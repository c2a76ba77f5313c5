//! The object model: the [`ObiObject`] trait and the class registry.
//!
//! The original system used Java reflection plus the `obicomp` source
//! augmenter to make arbitrary classes replicable. In Rust, a class opts in
//! by implementing [`ObiObject`] — usually via the
//! [`obi_class!`](crate::obi_class) macro, which generates the entire impl
//! from a field/method declaration (the macro *is* our `obicomp`).

use crate::objref::ObjRef;
use crate::process::InvokeCtx;
use obiwan_util::{ObiError, Result};
use obiwan_wire::{Decoder, Encoder, ObiValue};
use obiwan_util::sync::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A replicable, dynamically invocable OBIWAN object.
///
/// The contract mirrors what `obicomp` generated for Java classes:
///
/// * [`encode_state`](ObiObject::encode_state) / a registered
///   [`DecodeFn`] — the serialization pair (Java serialization's role);
/// * [`refs`](ObiObject::refs) — the out-edges, which drive incremental
///   graph replication;
/// * [`invoke`](ObiObject::invoke) — dynamic dispatch, because objects may
///   only be manipulated through methods (paper §2.1: proxies share the
///   interface but not the implementation, so no direct field access).
pub trait ObiObject: Send + Sync {
    /// The class name, resolved against a [`ClassRegistry`] on the
    /// receiving site.
    fn class_name(&self) -> &'static str;

    /// Writes the object's fields at the end of `enc`, as one tagged list of
    /// the field values in declaration order, with no field names (the
    /// receiving site's class knows them). This is the object's wire state:
    /// what a `get` reply, a `put`, a push, a handoff and a logged delta
    /// carry.
    fn encode_state(&self, enc: &mut Encoder);

    /// The object's fields as a value tree: what
    /// [`encode_state`](ObiObject::encode_state) writes, read back. For
    /// inspection; nothing on the wire builds it.
    fn state(&self) -> ObiValue {
        let mut enc = Encoder::new();
        self.encode_state(&mut enc);
        Decoder::new(&enc.finish())
            .take_value()
            .expect("encode_state writes one tagged value")
    }

    /// Every object reference held in this object's fields, in field order.
    fn refs(&self) -> Vec<ObjRef>;

    /// Dynamically dispatches `method`.
    ///
    /// # Errors
    ///
    /// Implementations return [`ObiError::NoSuchMethod`] for unknown method
    /// names and [`ObiError::BadArguments`] for argument mismatches.
    fn invoke(
        &mut self,
        ctx: &mut InvokeCtx<'_>,
        method: &str,
        args: &ObiValue,
    ) -> Result<ObiValue>;

    /// Size in bytes of the serialized state; used for cost accounting.
    ///
    /// The default encodes the state and measures it.
    fn payload_size(&self) -> usize {
        let mut enc = Encoder::new();
        self.encode_state(&mut enc);
        enc.len()
    }
}

/// A function materializing an object from its serialized state: it reads
/// one state, as [`ObiObject::encode_state`] wrote it, off the decoder.
pub type DecodeFn = Arc<dyn Fn(&mut Decoder<'_>) -> Result<Box<dyn ObiObject>> + Send + Sync>;

/// Maps class names to decode functions — each site's "classpath".
///
/// A replica batch can only be materialized on a site whose registry knows
/// every class in the batch; unknown classes yield
/// [`ObiError::Decode`].
///
/// # Examples
///
/// ```
/// use obiwan_core::{ClassRegistry, demo::LinkedItem};
///
/// let registry = ClassRegistry::new();
/// LinkedItem::register(&registry);
/// assert!(registry.knows("LinkedItem"));
/// ```
#[derive(Clone, Default)]
pub struct ClassRegistry {
    classes: Arc<RwLock<HashMap<&'static str, DecodeFn>>>,
}

impl std::fmt::Debug for ClassRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.classes.read().keys().copied().collect();
        names.sort_unstable();
        f.debug_tuple("ClassRegistry").field(&names).finish()
    }
}

impl ClassRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ClassRegistry::default()
    }

    /// Registers (or replaces) a class decoder.
    pub fn register(&self, class: &'static str, decode: DecodeFn) {
        self.classes.write().insert(class, decode);
    }

    /// True when `class` can be decoded.
    pub fn knows(&self, class: &str) -> bool {
        self.classes.read().contains_key(class)
    }

    /// Materializes an object of `class` from its encoded state (what
    /// [`ObiObject::encode_state`] writes), which it must consume exactly.
    ///
    /// # Errors
    ///
    /// [`ObiError::Decode`] when the class is unknown, the state does not
    /// match the class's fields, or bytes are left over after it.
    pub fn decode_exact(&self, class: &str, state: &[u8]) -> Result<Box<dyn ObiObject>> {
        let decode = self
            .classes
            .read()
            .get(class)
            .cloned()
            .ok_or_else(|| ObiError::Decode(format!("unknown class `{class}`")))?;
        let mut dec = Decoder::new(state);
        let object = decode(&mut dec)?;
        let left = dec.remaining();
        if left > 0 {
            return Err(ObiError::Decode(format!("{left} trailing bytes after a `{class}` state")));
        }
        Ok(object)
    }

    /// Number of registered classes.
    pub fn len(&self) -> usize {
        self.classes.read().len()
    }

    /// True when no classes are registered.
    pub fn is_empty(&self) -> bool {
        self.classes.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{Counter, LinkedItem};

    #[test]
    fn registry_registers_and_decodes() {
        let reg = ClassRegistry::new();
        assert!(reg.is_empty());
        LinkedItem::register(&reg);
        Counter::register(&reg);
        assert_eq!(reg.len(), 2);
        assert!(reg.knows("LinkedItem"));
        assert!(!reg.knows("Nope"));

        let item = LinkedItem::new(7, "x");
        let mut enc = Encoder::new();
        item.encode_state(&mut enc);
        let decoded = reg.decode_exact("LinkedItem", &enc.finish()).unwrap();
        assert_eq!(decoded.class_name(), "LinkedItem");
        assert_eq!(decoded.state(), item.state());
    }

    #[test]
    fn unknown_class_is_a_decode_error() {
        let reg = ClassRegistry::new();
        let err = match reg.decode_exact("Ghost", &[0]) {
            Err(e) => e,
            Ok(_) => panic!("decoded an unknown class"),
        };
        assert!(matches!(err, ObiError::Decode(_)));
    }

    #[test]
    fn decode_exact_rejects_trailing_bytes_and_unknown_classes() {
        let reg = ClassRegistry::new();
        Counter::register(&reg);
        let mut enc = Encoder::new();
        Counter::new(3).encode_state(&mut enc);
        let exact = enc.finish();
        let decoded = reg.decode_exact("Counter", &exact).unwrap();
        assert_eq!(decoded.state(), Counter::new(3).state());
        let mut long = exact.to_vec();
        long.push(0);
        let err = reg.decode_exact("Counter", &long).map(|_| ()).unwrap_err();
        assert_eq!(err, ObiError::Decode("1 trailing bytes after a `Counter` state".into()));
        assert!(reg.decode_exact("Ghost", &exact).is_err());
    }

    #[test]
    fn payload_size_tracks_state_size() {
        let small = LinkedItem::new(1, "a");
        let large = LinkedItem::new(1, "a".repeat(1000));
        assert!(large.payload_size() > small.payload_size() + 900);
    }

    #[test]
    fn registry_clones_share_registrations() {
        let reg = ClassRegistry::new();
        let reg2 = reg.clone();
        LinkedItem::register(&reg2);
        assert!(reg.knows("LinkedItem"));
    }
}
