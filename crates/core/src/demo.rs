//! Demo object classes shared by examples, tests and benchmarks.
//!
//! These play the role of the "objects A, B and C … created by the
//! programmer" in the paper's running example, plus the list workloads of
//! its evaluation section:
//!
//! * [`LinkedItem`] — a small list node (the A→B→C graph);
//! * [`PayloadNode`] — a list node with a sized byte payload (the 64 B–16 KB
//!   lists of Figures 5 and 6);
//! * [`Counter`] — a tiny mutable object for consistency tests;
//! * [`Document`] — a titled text body for the collaborative examples;
//! * [`TreeNode`] — a branching graph for non-list replication tests.

use crate::obi_class;
use crate::object::ClassRegistry;
use crate::objref::ObjRef;
use bytes::Bytes;
use obiwan_wire::ObiValue;

obi_class! {
    /// A linked-list node with a value, a label and optional out-edges.
    pub class LinkedItem {
        fields {
            value: i64,
            label: String,
            next: Option<ObjRef>,
            extra: Vec<ObjRef>,
        }
        methods {
            /// Returns the node's value.
            fn value(this, _ctx, _args) {
                Ok(ObiValue::I64(this.value))
            }
            /// Returns the node's label.
            fn label(this, _ctx, _args) {
                Ok(ObiValue::Str(this.label.clone()))
            }
            /// Returns the next node's reference, or `Null` at the tail.
            fn next_ref(this, _ctx, _args) {
                Ok(match this.next {
                    Some(n) => ObiValue::Ref(n.id()),
                    None => ObiValue::Null,
                })
            }
            /// Reads a field (the paper's "access to a variable" method)
            /// and returns the next reference for list walking.
            fn touch(this, _ctx, _args) {
                let _observed = this.value;
                Ok(match this.next {
                    Some(n) => ObiValue::Ref(n.id()),
                    None => ObiValue::Null,
                })
            }
            /// Invokes `value` on the next node — a cross-object call that
            /// faults the next node in when it is not yet replicated.
            fn next_value(this, ctx, _args) {
                match this.next {
                    Some(n) => ctx.invoke(n, "value", &ObiValue::Null),
                    None => Ok(ObiValue::Null),
                }
            }
            /// Sums this node's value with the rest of the list,
            /// recursively (each hop may fault).
            fn sum_rest(this, ctx, _args) {
                let mut total = this.value;
                if let Some(n) = this.next {
                    let rest = ctx.invoke(n, "sum_rest", &ObiValue::Null)?;
                    total += rest.as_i64().unwrap_or(0);
                }
                Ok(ObiValue::I64(total))
            }
        }
        mutating {
            /// Sets the value.
            fn set_value(this, _ctx, args) {
                this.value = args.as_i64().ok_or_else(|| {
                    crate::ObiError::BadArguments("set_value expects i64".into())
                })?;
                Ok(ObiValue::Null)
            }
            /// Sets the label.
            fn set_label(this, _ctx, args) {
                this.label = args
                    .as_str()
                    .ok_or_else(|| {
                        crate::ObiError::BadArguments("set_label expects str".into())
                    })?
                    .to_owned();
                Ok(ObiValue::Null)
            }
        }
    }
}

impl LinkedItem {
    /// A node with no out-edges.
    pub fn new(value: i64, label: impl Into<String>) -> Self {
        LinkedItem {
            value,
            label: label.into(),
            next: None,
            extra: Vec::new(),
        }
    }

    /// A node pointing at `next`.
    pub fn with_next(value: i64, label: impl Into<String>, next: ObjRef) -> Self {
        LinkedItem {
            value,
            label: label.into(),
            next: Some(next),
            extra: Vec::new(),
        }
    }

    /// Sets the next edge (builder-side; at run time use the `set_value`
    /// style mutating methods).
    pub fn set_next(&mut self, next: Option<ObjRef>) {
        self.next = next;
    }

    /// Sets additional out-edges (for branching graphs).
    pub fn set_extra(&mut self, extra: Vec<ObjRef>) {
        self.extra = extra;
    }
}

obi_class! {
    /// A list node carrying an opaque payload of configurable size — the
    /// workload object of the paper's Figures 4–6.
    pub class PayloadNode {
        fields {
            index: i64,
            payload: Bytes,
            next: Option<ObjRef>,
        }
        methods {
            /// The node's position in its list.
            fn index(this, _ctx, _args) {
                Ok(ObiValue::I64(this.index))
            }
            /// The payload length in bytes.
            fn payload_len(this, _ctx, _args) {
                Ok(ObiValue::I64(this.payload.len() as i64))
            }
            /// Reads the payload (first and last byte — "an access to a
            /// variable of the object, so it is not an empty method") and
            /// returns the next reference for list walking.
            fn touch(this, _ctx, _args) {
                let _first = this.payload.first().copied().unwrap_or(0);
                let _last = this.payload.last().copied().unwrap_or(0);
                Ok(match this.next {
                    Some(n) => ObiValue::Ref(n.id()),
                    None => ObiValue::Null,
                })
            }
        }
        mutating {
            /// Overwrites the node index.
            fn set_index(this, _ctx, args) {
                this.index = args.as_i64().ok_or_else(|| {
                    crate::ObiError::BadArguments("set_index expects i64".into())
                })?;
                Ok(ObiValue::Null)
            }
        }
    }
}

impl PayloadNode {
    /// A node with `size` deterministic payload bytes.
    pub fn sized(index: i64, size: usize) -> Self {
        let payload: Vec<u8> = (0..size).map(|i| (i ^ index as usize) as u8).collect();
        PayloadNode {
            index,
            payload: Bytes::from(payload),
            next: None,
        }
    }

    /// Sets the next edge.
    pub fn set_next(&mut self, next: Option<ObjRef>) {
        self.next = next;
    }
}

obi_class! {
    /// A shared counter.
    pub class Counter {
        fields {
            count: i64,
        }
        methods {
            /// Reads the count.
            fn read(this, _ctx, _args) {
                Ok(ObiValue::I64(this.count))
            }
        }
        mutating {
            /// Adds one.
            fn incr(this, _ctx, _args) {
                this.count += 1;
                Ok(ObiValue::I64(this.count))
            }
            /// Adds an arbitrary delta.
            fn add(this, _ctx, args) {
                let delta = args.as_i64().ok_or_else(|| {
                    crate::ObiError::BadArguments("add expects i64".into())
                })?;
                this.count += delta;
                Ok(ObiValue::I64(this.count))
            }
        }
    }
}

impl Counter {
    /// A counter starting at `count`.
    pub fn new(count: i64) -> Self {
        Counter { count }
    }
}

obi_class! {
    /// A titled text document, for the collaborative-work examples.
    pub class Document {
        fields {
            title: String,
            content: String,
        }
        methods {
            /// The document title.
            fn title(this, _ctx, _args) {
                Ok(ObiValue::Str(this.title.clone()))
            }
            /// The full content.
            fn content(this, _ctx, _args) {
                Ok(ObiValue::Str(this.content.clone()))
            }
            /// Content length in bytes.
            fn len(this, _ctx, _args) {
                Ok(ObiValue::I64(this.content.len() as i64))
            }
        }
        mutating {
            /// Replaces the content.
            fn set_content(this, _ctx, args) {
                this.content = args
                    .as_str()
                    .ok_or_else(|| {
                        crate::ObiError::BadArguments("set_content expects str".into())
                    })?
                    .to_owned();
                Ok(ObiValue::Null)
            }
            /// Appends a paragraph.
            fn append(this, _ctx, args) {
                let para = args.as_str().ok_or_else(|| {
                    crate::ObiError::BadArguments("append expects str".into())
                })?;
                if !this.content.is_empty() {
                    this.content.push('\n');
                }
                this.content.push_str(para);
                Ok(ObiValue::Null)
            }
        }
    }
}

impl Document {
    /// An empty document.
    pub fn new(title: impl Into<String>) -> Self {
        Document {
            title: title.into(),
            content: String::new(),
        }
    }
}

obi_class! {
    /// A node in a branching object graph.
    pub class TreeNode {
        fields {
            label: String,
            children: Vec<ObjRef>,
        }
        methods {
            /// The node label.
            fn label(this, _ctx, _args) {
                Ok(ObiValue::Str(this.label.clone()))
            }
            /// Number of direct children.
            fn child_count(this, _ctx, _args) {
                Ok(ObiValue::I64(this.children.len() as i64))
            }
            /// References to all children.
            fn children(this, _ctx, _args) {
                Ok(ObiValue::List(
                    this.children.iter().map(|c| ObiValue::Ref(c.id())).collect(),
                ))
            }
            /// Total nodes in this subtree (recursive; faults children in).
            fn deep_count(this, ctx, _args) {
                let mut total = 1i64;
                let children = this.children.clone();
                for c in children {
                    let sub = ctx.invoke(c, "deep_count", &ObiValue::Null)?;
                    total += sub.as_i64().unwrap_or(0);
                }
                Ok(ObiValue::I64(total))
            }
        }
        mutating {
            /// Renames the node.
            fn set_label(this, _ctx, args) {
                this.label = args
                    .as_str()
                    .ok_or_else(|| {
                        crate::ObiError::BadArguments("set_label expects str".into())
                    })?
                    .to_owned();
                Ok(ObiValue::Null)
            }
        }
    }
}

impl TreeNode {
    /// A leaf node.
    pub fn new(label: impl Into<String>) -> Self {
        TreeNode {
            label: label.into(),
            children: Vec::new(),
        }
    }

    /// A node with children.
    pub fn with_children(label: impl Into<String>, children: Vec<ObjRef>) -> Self {
        TreeNode {
            label: label.into(),
            children,
        }
    }
}

/// Registers every demo class with `registry`.
pub fn register_all(registry: &ClassRegistry) {
    LinkedItem::register(registry);
    PayloadNode::register(registry);
    Counter::register(registry);
    Document::register(registry);
    TreeNode::register(registry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObiObject;
    use crate::DecodableObject;

    #[test]
    fn linked_item_state_roundtrips() {
        let mut item = LinkedItem::new(5, "x");
        item.set_next(Some(ObjRef::new(obiwan_util::ObjId::new(
            obiwan_util::SiteId::new(1),
            2,
        ))));
        let mut enc = crate::Encoder::new();
        item.encode_state(&mut enc);
        let back = LinkedItem::decode_from(&mut crate::Decoder::new(&enc.finish())).unwrap();
        assert_eq!(back, item);
        assert_eq!(back.refs().len(), 1);
    }

    #[test]
    fn payload_node_sized_payload_is_deterministic() {
        let a = PayloadNode::sized(3, 64);
        let b = PayloadNode::sized(3, 64);
        assert_eq!(a, b);
        assert_eq!(a.payload.len(), 64);
        assert!(a.payload_size() >= 64);
    }

    #[test]
    fn register_all_registers_five_classes() {
        let reg = ClassRegistry::new();
        register_all(&reg);
        for class in ["LinkedItem", "PayloadNode", "Counter", "Document", "TreeNode"] {
            assert!(reg.knows(class), "{class} missing");
        }
        assert_eq!(reg.len(), 5);
    }

    #[test]
    fn tree_node_refs_enumerate_children() {
        let c1 = ObjRef::new(obiwan_util::ObjId::new(obiwan_util::SiteId::new(1), 1));
        let c2 = ObjRef::new(obiwan_util::ObjId::new(obiwan_util::SiteId::new(1), 2));
        let t = TreeNode::with_children("root", vec![c1, c2]);
        assert_eq!(t.refs(), vec![c1, c2]);
    }

    #[test]
    fn document_starts_empty() {
        let d = Document::new("t");
        assert_eq!(d.title, "t");
        assert!(d.content.is_empty());
        assert_eq!(d.class_name(), "Document");
    }
}
