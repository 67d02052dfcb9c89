//! Stream data types.
//!
//! cgsim preserves kernel/port type information across the compile-time →
//! runtime boundary via reconstruction functions (§3.5). In this Rust port
//! the same information is carried in two forms:
//!
//! * [`StreamData`] — the compile-time view: any `'static + Clone + Send`
//!   value may flow through a stream (the paper highlights support for
//!   user-defined structs as a type-safety improvement over AMD's flat
//!   buffers, §5.1);
//! * [`DTypeDesc`] — the serialized view stored in a flattened graph: type
//!   name, size and alignment, which is what the extractor's code generator
//!   needs to emit AIE-compatible declarations.

use serde::{Deserialize, Serialize};
use std::any::TypeId;
use std::fmt;

/// Marker trait for values that can travel through a compute-graph stream.
///
/// Automatically implemented for every eligible type. The `Send` bound exists
/// because the same kernels may run one OS thread per kernel, under the
/// runtime's threads scheduler (`Backend::Threaded`).
pub trait StreamData: Clone + Send + 'static {
    /// Serialized type descriptor for this type.
    fn dtype() -> DTypeDesc {
        DTypeDesc::of::<Self>()
    }
}

impl<T: Clone + Send + 'static> StreamData for T {}

/// A serializable description of a stream element type.
///
/// Type *compatibility* ([`DTypeDesc::compatible`]) is what graph validation
/// checks when two ports are joined by a connector; within one process the
/// [`TypeId`]-derived `key` makes that check exact. Structural equality
/// (`==`, `Hash`) deliberately ignores the process-local key so descriptors
/// compare stably across serialization.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DTypeDesc {
    /// Human-readable type name (Rust path, e.g. `f32` or `my_app::Pixel`).
    pub name: String,
    /// Size of one element in bytes.
    pub size: u32,
    /// Alignment requirement in bytes.
    pub align: u32,
    /// Process-local disambiguator derived from [`TypeId`]. Two distinct
    /// types with identical `name` (e.g. shadowed definitions) still compare
    /// unequal in-process; serialized graphs compare by the other fields.
    #[serde(skip)]
    pub key: Option<TypeKey>,
}

/// Opaque, process-local type identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TypeKey(TypeId);

impl DTypeDesc {
    /// Build the descriptor for a concrete Rust type.
    pub fn of<T: 'static>() -> Self {
        DTypeDesc {
            name: short_type_name::<T>(),
            size: std::mem::size_of::<T>() as u32,
            align: std::mem::align_of::<T>() as u32,
            key: Some(TypeKey(TypeId::of::<T>())),
        }
    }

    /// Build a descriptor from serialized parts (used by the extractor, which
    /// has no live Rust types).
    pub fn named(name: impl Into<String>, size: u32, align: u32) -> Self {
        DTypeDesc {
            name: name.into(),
            size,
            align,
            key: None,
        }
    }

    /// Whether two descriptors describe the same stream element type.
    ///
    /// If both sides carry a process-local key the comparison is exact;
    /// otherwise it falls back to the serialized fields. This mirrors the
    /// paper's setup where the extractor works purely on serialized type
    /// metadata while the simulator has real C++ types.
    pub fn compatible(&self, other: &DTypeDesc) -> bool {
        match (self.key, other.key) {
            (Some(a), Some(b)) => a == b,
            _ => self.name == other.name && self.size == other.size && self.align == other.align,
        }
    }
}

impl PartialEq for DTypeDesc {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.size == other.size && self.align == other.align
    }
}

impl Eq for DTypeDesc {}

impl std::hash::Hash for DTypeDesc {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        self.size.hash(state);
        self.align.hash(state);
    }
}

impl fmt::Display for DTypeDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}B align {})", self.name, self.size, self.align)
    }
}

/// Strip module paths from `std::any::type_name` output while preserving
/// generic arguments, so descriptors stay readable and stable across crate
/// layout changes (`alloc::vec::Vec<f32>` → `Vec<f32>`).
fn short_type_name<T: 'static>() -> String {
    let full = std::any::type_name::<T>();
    let mut out = String::with_capacity(full.len());
    let mut segment_start = 0usize;
    for (i, ch) in full.char_indices() {
        match ch {
            ':' => segment_start = i + 1,
            '<' | '>' | ',' | ' ' | '(' | ')' | '[' | ']' | ';' | '&' => {
                out.push_str(&full[segment_start..i]);
                out.push(ch);
                segment_start = i + 1;
            }
            _ => {}
        }
    }
    out.push_str(&full[segment_start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_descriptor() {
        let d = DTypeDesc::of::<f32>();
        assert_eq!(d.name, "f32");
        assert_eq!(d.size, 4);
        assert_eq!(d.align, 4);
        assert!(d.key.is_some());
    }

    #[test]
    fn short_names_strip_paths() {
        assert_eq!(short_type_name::<Vec<f32>>(), "Vec<f32>");
        assert_eq!(short_type_name::<(u8, i64)>(), "(u8, i64)");
        assert_eq!(short_type_name::<[u32; 4]>(), "[u32; 4]");
    }

    #[test]
    fn compatibility_prefers_type_keys() {
        #[derive(Clone)]
        struct A(#[allow(dead_code)] u32);
        #[derive(Clone)]
        struct B(#[allow(dead_code)] u32);
        let a = DTypeDesc::of::<A>();
        let b = DTypeDesc::of::<B>();
        assert!(!a.compatible(&b));
        assert!(a.compatible(&DTypeDesc::of::<A>()));
    }

    #[test]
    fn compatibility_falls_back_to_serialized_fields() {
        let live = DTypeDesc::of::<f32>();
        let from_disk = DTypeDesc::named("f32", 4, 4);
        assert!(live.compatible(&from_disk));
        assert!(from_disk.compatible(&live));
        assert!(!from_disk.compatible(&DTypeDesc::named("f64", 8, 8)));
    }

    #[test]
    fn serde_skips_local_key() {
        let d = DTypeDesc::of::<u16>();
        let j = serde_json::to_string(&d).unwrap();
        let back: DTypeDesc = serde_json::from_str(&j).unwrap();
        assert!(back.key.is_none());
        assert!(back.compatible(&d));
    }
}
