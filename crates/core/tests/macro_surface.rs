//! Exhaustive surface tests of the `obi_class!` macro — our `obicomp`.
//!
//! Covers the full grammar: every supported field type, classes with only
//! read methods, only mutating methods, or neither; doc attributes on the
//! class, fields and methods; generated constructors, registry hooks and
//! dispatch behaviour (including automatic `mark_modified`); and the typed
//! state codec, pinned to the bytes the value-tree codec writes for the
//! list of field values.

use bytes::Bytes;
use obiwan_core::demo::{Counter, Document, LinkedItem, PayloadNode, TreeNode};
use obiwan_core::{
    obi_class, ClassRegistry, DecodableObject, Decoder, Encoder, ObiError, ObiObject, ObiValue,
    ObiWorld, ObjRef, ReplicationMode,
};
use obiwan_util::{ObjId, SiteId};
use proptest::prelude::*;

obi_class! {
    /// A class exercising every supported field type.
    pub class Kitchen {
        fields {
            /// Doc comments on fields are allowed.
            flag: bool,
            count: i64,
            size: u64,
            ratio: f64,
            name: String,
            blob: Bytes,
            edge: ObjRef,
            maybe_edge: Option<ObjRef>,
            edges: Vec<ObjRef>,
            numbers: Vec<i64>,
            names: Vec<String>,
            nested: Option<Vec<ObjRef>>,
            raw: ObiValue,
        }
        methods {
            /// Doc comments on methods are allowed too.
            fn describe(this, _ctx, _args) {
                Ok(ObiValue::Str(format!("{}:{}", this.name, this.count)))
            }
        }
        mutating {
            fn rename(this, _ctx, args) {
                this.name = args.as_str().unwrap_or("?").to_owned();
                Ok(ObiValue::Null)
            }
        }
    }
}

obi_class! {
    /// Fields only: a pure data carrier.
    pub class Inert {
        fields {
            x: i64,
        }
    }
}

obi_class! {
    /// Only mutating methods.
    pub class WriteOnly {
        fields {
            x: i64,
        }
        mutating {
            fn bump(this, _ctx, _args) {
                this.x += 1;
                Ok(ObiValue::I64(this.x))
            }
        }
    }
}

fn sample_kitchen() -> Kitchen {
    let r = |l: u64| ObjRef::new(ObjId::new(SiteId::new(9), l));
    Kitchen {
        flag: true,
        count: -5,
        size: 7,
        ratio: 1.25,
        name: "k".into(),
        blob: Bytes::from_static(b"\x01\x02"),
        edge: r(1),
        maybe_edge: Some(r(2)),
        edges: vec![r(3), r(4)],
        numbers: vec![1, 2, 3],
        names: vec!["a".into()],
        nested: Some(vec![r(5)]),
        raw: ObiValue::Map(vec![("inner".into(), ObiValue::Ref(r(6).id()))]),
    }
}

#[test]
fn every_field_type_roundtrips_through_state() {
    let k = sample_kitchen();
    let back = decode_tree(&k.state()).unwrap();
    assert_eq!(back, k);
}

#[test]
fn refs_cover_every_edge_bearing_field() {
    let k = sample_kitchen();
    let refs = k.refs();
    // edge, maybe_edge, edges×2, nested×1, raw×1 = 6 edges.
    assert_eq!(refs.len(), 6);
}

#[test]
fn registry_decode_through_generated_hook() {
    let reg = ClassRegistry::new();
    Kitchen::register(&reg);
    assert!(reg.knows(Kitchen::CLASS));
    assert_eq!(Kitchen::CLASS, "Kitchen");
    let k = sample_kitchen();
    let decoded = reg.decode_exact("Kitchen", &encoded(&k)).unwrap();
    assert_eq!(decoded.state(), k.state());
}

#[test]
fn decode_rejects_missing_and_mistyped_fields() {
    let k = sample_kitchen();
    // Drop one field.
    let ObiValue::List(mut fields) = k.state() else {
        panic!()
    };
    let count = fields.remove(1);
    assert!(decode_tree(&ObiValue::List(fields.clone())).is_err());
    // Mistype one field.
    fields.insert(1, count);
    fields[0] = ObiValue::Str("true".into());
    assert!(decode_tree(&ObiValue::List(fields)).is_err());
}

#[test]
fn from_fields_constructor_follows_declaration_order() {
    let inert = Inert::from_fields(42);
    assert_eq!(inert.x, 42);
    assert_eq!(inert.class_name(), "Inert");
    assert!(inert.refs().is_empty());
}

#[test]
fn fieldless_method_class_rejects_all_methods() {
    let mut world = ObiWorld::loopback();
    let s = world.add_site("S");
    Inert::register(world.registry());
    let r = world.site(s).create(Inert::from_fields(1));
    let err = world.site(s).invoke(r, "anything", ObiValue::Null).unwrap_err();
    assert!(matches!(err, obiwan_core::ObiError::NoSuchMethod { .. }));
}

#[test]
fn mutating_methods_mark_modified_automatically() {
    let mut world = ObiWorld::loopback();
    let s1 = world.add_site("S1");
    let s2 = world.add_site("S2");
    WriteOnly::register(world.registry());
    let master = world.site(s2).create(WriteOnly::from_fields(0));
    world.site(s2).export(master, "w").unwrap();
    let remote = world.site(s1).lookup("w").unwrap();
    let replica = world
        .site(s1)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    assert!(!world.site(s1).meta_of(replica).unwrap().dirty);
    world.site(s1).invoke(replica, "bump", ObiValue::Null).unwrap();
    assert!(world.site(s1).meta_of(replica).unwrap().dirty);
    // Master version bumps per mutation, too.
    world.site(s2).invoke(master, "bump", ObiValue::Null).unwrap();
    assert_eq!(world.site(s2).meta_of(master).unwrap().version, 2);
}

#[test]
fn read_methods_do_not_dirty() {
    let mut world = ObiWorld::loopback();
    let s1 = world.add_site("S1");
    let s2 = world.add_site("S2");
    Kitchen::register(world.registry());
    let master = world.site(s2).create(sample_kitchen());
    world.site(s2).export(master, "k").unwrap();
    let remote = world.site(s1).lookup("k").unwrap();
    let replica = world
        .site(s1)
        .get(&remote, ReplicationMode::incremental(1))
        .unwrap();
    world
        .site(s1)
        .invoke(replica, "describe", ObiValue::Null)
        .unwrap();
    assert!(!world.site(s1).meta_of(replica).unwrap().dirty);
    world
        .site(s1)
        .invoke(replica, "rename", ObiValue::from("renamed"))
        .unwrap();
    assert!(world.site(s1).meta_of(replica).unwrap().dirty);
}

#[test]
fn generated_classes_coexist_with_demo_classes_in_one_registry() {
    let reg = ClassRegistry::new();
    obiwan_core::demo::register_all(&reg);
    Kitchen::register(&reg);
    Inert::register(&reg);
    WriteOnly::register(&reg);
    assert_eq!(reg.len(), 8);
    // And a demo class still works.
    let c = Counter::new(2);
    assert_eq!(reg.decode_exact("Counter", &encoded(&c)).unwrap().state(), c.state());
}

#[test]
fn payload_size_reflects_state() {
    let small = Inert::from_fields(1);
    let big = sample_kitchen();
    assert!(big.payload_size() > small.payload_size());
}

// -- the typed state codec ----------------------------------------------------

fn encoded(o: &dyn ObiObject) -> Bytes {
    let mut enc = Encoder::new();
    o.encode_state(&mut enc);
    enc.finish()
}

fn put_value(v: &ObiValue) -> Bytes {
    let mut enc = Encoder::new();
    enc.put_value(v);
    enc.finish()
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// The state of a `PerfNode`-shaped object (index, 64 B payload, next):
/// a list header (`07 03`), then the three tagged values, no names.
#[test]
fn a_payload_node_state_is_byte_identical_to_the_value_tree_codec() {
    let mut node = PayloadNode::sized(7, 64);
    let next = ObjRef::new(ObjId::new(SiteId::new(2), 300));
    node.set_next(Some(next));
    let tree = ObiValue::List(vec![
        ObiValue::I64(7),
        ObiValue::Bytes(node.payload.clone()),
        ObiValue::Ref(next.id()),
    ]);
    assert_eq!(encoded(&node), put_value(&tree));
    assert_eq!(
        hex(&encoded(&node)),
        "0703030e064007060504030201000f0e0d0c0b0a090817161514131211101f1e1d1c1b1a19182726252423\
         2221202f2e2d2c2b2a292837363534333231303f3e3d3c3b3a39380902ac02"
    );
    let node = PayloadNode::sized(-1, 64);
    let tree =
        ObiValue::List(vec![ObiValue::I64(-1), ObiValue::Bytes(node.payload.clone()), ObiValue::Null]);
    assert_eq!(encoded(&node), put_value(&tree));
    assert_eq!(
        hex(&encoded(&node)),
        "070303010640fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0efeeedecebeae9e8e7e6e5e4e3e2e1e0dfdedddcdbda\
         d9d8d7d6d5d4d3d2d1d0cfcecdcccbcac9c8c7c6c5c4c3c2c1c000"
    );
}

fn arb_ref() -> impl Strategy<Value = ObjRef> {
    (0u32..300, 0u64..100_000).prop_map(|(s, l)| ObjRef::new(ObjId::new(SiteId::new(s), l)))
}

fn arb_option<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(some, v)| some.then_some(v))
}

fn arb_raw() -> impl Strategy<Value = ObiValue> {
    let leaf = prop_oneof![
        Just(ObiValue::Null),
        any::<i64>().prop_map(ObiValue::I64),
        "[a-z]{0,6}".prop_map(ObiValue::Str),
        arb_ref().prop_map(|r| ObiValue::Ref(r.id())),
    ];
    leaf.prop_recursive(2, 16, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(ObiValue::List),
            proptest::collection::vec(("[a-z]{1,4}", inner), 0..4).prop_map(ObiValue::Map),
        ]
    })
}

fn arb_bytes() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..80).prop_map(Bytes::from)
}

fn arb_kitchen() -> impl Strategy<Value = Kitchen> {
    (
        (any::<bool>(), any::<i64>(), any::<u64>(), -1e300f64..1e300, ".{0,12}", arb_bytes()),
        (
            arb_ref(),
            arb_option(arb_ref()),
            proptest::collection::vec(arb_ref(), 0..4),
            proptest::collection::vec(any::<i64>(), 0..4),
            proptest::collection::vec("[a-z]{0,5}", 0..3),
            arb_option(proptest::collection::vec(arb_ref(), 0..3)),
        ),
        arb_raw(),
    )
        .prop_map(
            |(
                (flag, count, size, ratio, name, blob),
                (edge, maybe_edge, edges, numbers, names, nested),
                raw,
            )| {
                Kitchen {
                    flag,
                    count,
                    size,
                    ratio,
                    name,
                    blob,
                    edge,
                    maybe_edge,
                    edges,
                    numbers,
                    names,
                    nested,
                    raw,
                }
            },
        )
}

fn reference(r: &ObjRef) -> ObiValue {
    ObiValue::Ref(r.id())
}

fn refs(rs: &[ObjRef]) -> ObiValue {
    ObiValue::List(rs.iter().map(reference).collect())
}

/// The field list of a `Kitchen`, written out by hand as the oracle of
/// what `encode_state` must write.
fn kitchen_fields(k: &Kitchen) -> Vec<ObiValue> {
    vec![
        ObiValue::Bool(k.flag),
        ObiValue::I64(k.count),
        ObiValue::I64(k.size as i64),
        ObiValue::F64(k.ratio),
        ObiValue::Str(k.name.clone()),
        ObiValue::Bytes(k.blob.clone()),
        reference(&k.edge),
        k.maybe_edge.as_ref().map_or(ObiValue::Null, reference),
        refs(&k.edges),
        ObiValue::List(k.numbers.iter().map(|&n| ObiValue::I64(n)).collect()),
        ObiValue::List(k.names.iter().map(|n| ObiValue::Str(n.clone())).collect()),
        k.nested.as_deref().map_or(ObiValue::Null, refs),
        k.raw.clone(),
    ]
}

fn arb_linked_item() -> impl Strategy<Value = LinkedItem> {
    (any::<i64>(), ".{0,10}", arb_option(arb_ref()), proptest::collection::vec(arb_ref(), 0..4))
        .prop_map(|(value, label, next, extra)| LinkedItem { value, label, next, extra })
}

fn arb_payload_node() -> impl Strategy<Value = PayloadNode> {
    (any::<i64>(), arb_bytes(), arb_option(arb_ref()))
        .prop_map(|(index, payload, next)| PayloadNode { index, payload, next })
}

fn next_tree(next: &Option<ObjRef>) -> ObiValue {
    next.as_ref().map_or(ObiValue::Null, reference)
}

/// `o`'s typed codec writes `tree`'s bytes, reads them back into `o`, and
/// its `state()` adapter is `tree`.
fn assert_codec<T>(o: &T, tree: ObiValue)
where
    T: ObiObject + DecodableObject + PartialEq + std::fmt::Debug,
{
    let bytes = encoded(o);
    assert_eq!(bytes, put_value(&tree));
    let mut dec = Decoder::new(&bytes);
    assert_eq!(&T::decode_from(&mut dec).unwrap(), o);
    assert!(dec.is_exhausted());
    assert_eq!(o.state(), tree);
    assert_eq!(o.payload_size(), bytes.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn kitchen_codec_writes_the_value_tree_bytes(k in arb_kitchen()) {
        let tree = ObiValue::List(kitchen_fields(&k));
        assert_codec(&k, tree);
    }

    #[test]
    fn demo_codecs_write_the_value_tree_bytes(
        item in arb_linked_item(),
        node in arb_payload_node(),
        count in any::<i64>(),
        doc in (".{0,12}", ".{0,40}"),
        node_tree in ("[a-z]{0,8}", proptest::collection::vec(arb_ref(), 0..5)),
    ) {
        let (title, content) = doc;
        let (label, children) = node_tree;
        let tree = ObiValue::List(vec![
            ObiValue::I64(item.value),
            ObiValue::Str(item.label.clone()),
            next_tree(&item.next),
            refs(&item.extra),
        ]);
        assert_codec(&item, tree);
        let tree = ObiValue::List(vec![
            ObiValue::I64(node.index),
            ObiValue::Bytes(node.payload.clone()),
            next_tree(&node.next),
        ]);
        assert_codec(&node, tree);
        assert_codec(&Counter::new(count), ObiValue::List(vec![ObiValue::I64(count)]));
        let doc = Document { title, content };
        let tree = ObiValue::List(vec![
            ObiValue::Str(doc.title.clone()),
            ObiValue::Str(doc.content.clone()),
        ]);
        assert_codec(&doc, tree);
        let tree_node = TreeNode::with_children(label.clone(), children.clone());
        let tree = ObiValue::List(vec![ObiValue::Str(label), refs(&children)]);
        assert_codec(&tree_node, tree);
    }
}

/// Decodes `tree`'s bytes with the typed decoder.
fn decode_tree(tree: &ObiValue) -> obiwan_core::Result<Kitchen> {
    Kitchen::decode_from(&mut Decoder::new(&put_value(tree)))
}

#[test]
fn decode_from_rejects_a_list_of_the_wrong_length() {
    let mut fields = kitchen_fields(&sample_kitchen());
    fields.push(ObiValue::Null);
    let long = decode_tree(&ObiValue::List(fields.clone())).unwrap_err();
    assert_eq!(long, ObiError::Decode("a `Kitchen` state has 13 fields, not 14".into()));
    fields.truncate(12);
    let short = decode_tree(&ObiValue::List(fields)).unwrap_err();
    assert_eq!(short, ObiError::Decode("a `Kitchen` state has 13 fields, not 12".into()));
    let empty = decode_tree(&ObiValue::List(Vec::new())).unwrap_err();
    assert_eq!(empty, ObiError::Decode("a `Kitchen` state has 13 fields, not 0".into()));
}

#[test]
fn decode_from_rejects_a_field_of_the_wrong_type_at_each_position() {
    let fields = kitchen_fields(&sample_kitchen());
    // `raw` (the last) is an `ObiValue`: every value has its type.
    for at in 0..fields.len() - 1 {
        let mut mistyped = fields.clone();
        mistyped[at] = match mistyped[at] {
            ObiValue::Str(_) => ObiValue::I64(1),
            _ => ObiValue::Str("x".into()),
        };
        let err = decode_tree(&ObiValue::List(mistyped)).unwrap_err();
        assert!(matches!(err, ObiError::Decode(_)), "at {at}: {err}");
    }
    // A list of the wrong items.
    let mut mistyped = fields;
    mistyped[8] = ObiValue::List(vec![ObiValue::I64(1)]);
    assert!(matches!(decode_tree(&ObiValue::List(mistyped)), Err(ObiError::Decode(_))));
}

/// A state must be a list: the keyed map states were before, or any other
/// value, is not read.
#[test]
fn decode_from_rejects_a_state_that_is_not_a_list() {
    let keyed = ObiValue::Map(vec![("x".into(), ObiValue::I64(1))]);
    let err = Inert::decode_from(&mut Decoder::new(&put_value(&keyed))).unwrap_err();
    assert_eq!(err, ObiError::Decode("expected list, got map".into()));
    assert!(matches!(decode_tree(&ObiValue::I64(1)), Err(ObiError::Decode(_))));
}

#[test]
fn a_state_cut_at_any_byte_is_an_error() {
    let reg = ClassRegistry::new();
    Kitchen::register(&reg);
    let bytes = encoded(&sample_kitchen());
    for cut in 0..bytes.len() {
        let part = &bytes[..cut];
        assert!(Kitchen::decode_from(&mut Decoder::new(part)).is_err(), "cut at {cut}");
        assert!(reg.decode_exact(Kitchen::CLASS, part).is_err(), "cut at {cut}");
    }
    assert!(reg.decode_exact(Kitchen::CLASS, &bytes).is_ok());
}
