//! The `obi_class!` macro — our `obicomp`.
//!
//! The original OBIWAN shipped a compiler that augmented programmer-written
//! Java classes with the replication interfaces and generated the proxy
//! classes. Rust has no reflection, so the augmentation happens at macro
//! expansion time instead: the programmer declares fields and methods, and
//! the macro generates the struct, constructors, the full
//! [`ObiObject`](crate::ObiObject) implementation (state serialization,
//! out-edge enumeration, dynamic dispatch), the matching
//! [`DecodableObject`](crate::DecodableObject) decoder and a registry hook.
//!
//! The state codec is typed: `encode_state` writes a list header and then
//! each field's tagged value, in declaration order, and `decode_from` reads
//! them back in that order; neither builds an [`ObiValue`](crate::ObiValue)
//! tree. The state carries no field names: both ends declare the class, so
//! a name would only say again what the position says, and cost a 64-byte
//! `PayloadNode` 19 of its 93 bytes. A list of another length is a decode
//! error, and so is a state in the keyed map form states had before.
//!
//! ```
//! use obiwan_core::{obi_class, ObjRef, ObiValue, ClassRegistry};
//!
//! obi_class! {
//!     /// A minimal replicable pair.
//!     pub class Pair {
//!         fields {
//!             left: i64,
//!             right: i64,
//!         }
//!         methods {
//!             fn sum(this, _ctx, _args) {
//!                 Ok(ObiValue::I64(this.left + this.right))
//!             }
//!         }
//!         mutating {
//!             fn set_left(this, _ctx, args) {
//!                 this.left = args.as_i64().ok_or_else(|| {
//!                     obiwan_core::ObiError::BadArguments("expected i64".into())
//!                 })?;
//!                 Ok(ObiValue::Null)
//!             }
//!         }
//!     }
//! }
//!
//! let registry = ClassRegistry::new();
//! Pair::register(&registry);
//! assert!(registry.knows("Pair"));
//! ```
//!
//! Method bodies receive three names chosen by the caller: the object
//! (`this` above), the [`InvokeCtx`](crate::InvokeCtx), and the argument
//! [`ObiValue`](crate::ObiValue). Methods in the `mutating` block
//! automatically call [`InvokeCtx::mark_modified`](crate::InvokeCtx::mark_modified)
//! before running, which is what bumps master versions and dirties replicas.

/// Declares a replicable OBIWAN class. See the [module docs](self) for the
/// grammar and an example.
#[macro_export]
macro_rules! obi_class {
    (
        $(#[$meta:meta])*
        pub class $name:ident {
            fields { $( $(#[$fmeta:meta])* $fname:ident : $fty:ty ),* $(,)? }
            $(methods { $( $(#[$mmeta:meta])* fn $mname:ident($mself:ident, $mctx:ident, $margs:ident) $mbody:block )* })?
            $(mutating { $( $(#[$umeta:meta])* fn $uname:ident($uself:ident, $uctx:ident, $uargs:ident) $ubody:block )* })?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $fname : $fty, )*
        }

        impl $name {
            /// The class name used in registries and on the wire.
            pub const CLASS: &'static str = stringify!($name);

            /// Constructs an instance from all fields, in declaration order.
            #[allow(clippy::too_many_arguments)]
            pub fn from_fields($( $fname : $fty ),*) -> Self {
                Self { $( $fname ),* }
            }

            /// Registers this class's decoder with `registry` so replicas
            /// can be materialized on this site.
            pub fn register(registry: &$crate::ClassRegistry) {
                registry.register(
                    Self::CLASS,
                    ::std::sync::Arc::new(|dec: &mut $crate::Decoder<'_>| {
                        let decoded = <$name as $crate::DecodableObject>::decode_from(dec)?;
                        Ok(Box::new(decoded) as Box<dyn $crate::ObiObject>)
                    }),
                );
            }
        }

        impl $name {
            /// The number of fields: the length of the state list.
            const FIELDS: usize = <[&str]>::len(&[$( stringify!($fname) ),*]);
        }

        impl $crate::DecodableObject for $name {
            fn decode_from(dec: &mut $crate::Decoder<'_>) -> $crate::Result<Self> {
                let count = dec.take_list_header()?;
                if count != Self::FIELDS {
                    return Err($crate::ObiError::Decode(::std::format!(
                        "a `{}` state has {} fields, not {}",
                        Self::CLASS,
                        Self::FIELDS,
                        count,
                    )));
                }
                // Struct fields are read in the order they are listed.
                Ok(Self {
                    $( $fname: <$fty as $crate::value_fields::FieldValue>::take(dec)?, )*
                })
            }
        }

        impl $crate::ObiObject for $name {
            fn class_name(&self) -> &'static str {
                Self::CLASS
            }

            fn encode_state(&self, enc: &mut $crate::Encoder) {
                enc.put_list_header(Self::FIELDS);
                $( $crate::value_fields::FieldValue::put(&self.$fname, enc); )*
            }

            fn refs(&self) -> Vec<$crate::ObjRef> {
                #[allow(unused_mut)]
                let mut out = Vec::new();
                $(
                    $crate::value_fields::FieldValue::collect_obj_refs(
                        &self.$fname,
                        &mut out,
                    );
                )*
                out
            }

            fn invoke(
                &mut self,
                ctx: &mut $crate::InvokeCtx<'_>,
                method: &str,
                args: &$crate::ObiValue,
            ) -> $crate::Result<$crate::ObiValue> {
                match method {
                    $($(
                        stringify!($mname) => {
                            #[allow(unused_variables)]
                            let $mself = &mut *self;
                            #[allow(unused_variables)]
                            let $mctx = &mut *ctx;
                            #[allow(unused_variables)]
                            let $margs = args;
                            $mbody
                        }
                    )*)?
                    $($(
                        stringify!($uname) => {
                            ctx.mark_modified();
                            #[allow(unused_variables)]
                            let $uself = &mut *self;
                            #[allow(unused_variables)]
                            let $uctx = &mut *ctx;
                            #[allow(unused_variables)]
                            let $uargs = args;
                            $ubody
                        }
                    )*)?
                    other => Err($crate::ObiError::NoSuchMethod {
                        object: ctx.self_id(),
                        method: other.to_owned(),
                    }),
                }
            }
        }
    };
}
