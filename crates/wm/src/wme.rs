//! Working-memory elements: identity, payload and recency.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{Atom, AttrMap, Value};

/// Stable identifier of a WME within one [`crate::WorkingMemory`].
///
/// Ids are never reused, so a `WmeId` seen by a matcher or held as a lock
/// resource always denotes the same logical tuple, even after it has been
/// removed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WmeId(pub u64);

impl fmt::Debug for WmeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

impl fmt::Display for WmeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Multiplicative hasher for tables keyed by ids the program itself
/// hands out (`WmeId`s, token slots): a few cycles per key instead of
/// SipHash, and — having no random state — the same iteration order on
/// every run. `finish` rotates the well-mixed high bits down to where
/// the table takes its bucket index, so strided ids do not cluster.
/// Tables keyed by attribute *values* (which clients choose) keep the
/// standard collision-resistant hasher.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` keyed through [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` keyed through [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Monotonic recency stamp assigned at insertion (and refreshed by
/// `modify`). Used by LEX/MEA conflict resolution.
pub type Timestamp = u64;

/// The payload of a WME before it enters working memory: a class name and
/// attribute/value pairs. Identity and recency are assigned by the store.
///
/// ```
/// use dps_wm::{WmeData, Value};
/// let d = WmeData::new("order").with("item", "bolt").with("qty", 40i64);
/// assert_eq!(d.class.as_str(), "order");
/// assert_eq!(d.attrs.get("qty"), Some(&Value::Int(40)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WmeData {
    /// The class (relation name) this element belongs to.
    pub class: Atom,
    /// Attribute → value map. Iteration is in attribute order, which
    /// keeps matcher behaviour, codecs and test output reproducible.
    pub attrs: AttrMap,
}

impl WmeData {
    /// Creates an empty element of the given class.
    pub fn new(class: impl Into<Atom>) -> Self {
        WmeData {
            class: class.into(),
            attrs: AttrMap::new(),
        }
    }

    /// Builder-style attribute setter.
    #[must_use]
    pub fn with(mut self, attr: impl Into<Atom>, value: impl Into<Value>) -> Self {
        self.attrs.insert(attr.into(), value.into());
        self
    }

    /// Sets an attribute in place.
    pub fn set(&mut self, attr: impl Into<Atom>, value: impl Into<Value>) {
        self.attrs.insert(attr.into(), value.into());
    }

    /// Gets an attribute value; absent attributes read as `None`.
    pub fn get(&self, attr: &str) -> Option<&Value> {
        self.attrs.get(attr)
    }
}

/// A working-memory element as stored: payload plus identity and recency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Wme {
    /// Stable identity.
    pub id: WmeId,
    /// Payload.
    pub data: WmeData,
    /// Recency stamp (monotonic per working memory).
    pub timestamp: Timestamp,
}

impl Wme {
    /// The element's class.
    pub fn class(&self) -> &Atom {
        &self.data.class
    }

    /// Reads an attribute; returns `None` when absent.
    pub fn get(&self, attr: &str) -> Option<&Value> {
        self.data.get(attr)
    }

    /// Reads an attribute, treating absence as [`Value::Nil`].
    pub fn get_or_nil(&self, attr: &str) -> Value {
        self.data.get(attr).cloned().unwrap_or(Value::Nil)
    }
}

impl fmt::Display for Wme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} {} [t{}]", self.id, self.data.class, self.timestamp)?;
        for (k, v) in self.data.attrs.iter() {
            write!(f, " ^{k} {v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_attributes() {
        let d = WmeData::new("c").with("a", 1i64).with("b", "x");
        assert_eq!(d.get("a"), Some(&Value::Int(1)));
        assert_eq!(d.get("b"), Some(&Value::from("x")));
        assert_eq!(d.get("missing"), None);
    }

    #[test]
    fn set_overwrites() {
        let mut d = WmeData::new("c").with("a", 1i64);
        d.set("a", 2i64);
        assert_eq!(d.get("a"), Some(&Value::Int(2)));
    }

    #[test]
    fn get_or_nil_on_absent() {
        let w = Wme {
            id: WmeId(1),
            data: WmeData::new("c"),
            timestamp: 3,
        };
        assert_eq!(w.get_or_nil("zzz"), Value::Nil);
    }

    #[test]
    fn display_is_ops5_like() {
        let w = Wme {
            id: WmeId(2),
            data: WmeData::new("goal").with("kind", "plan"),
            timestamp: 7,
        };
        assert_eq!(w.to_string(), "(w2 goal [t7] ^kind plan)");
    }

    #[test]
    fn attribute_iteration_is_sorted() {
        let d = WmeData::new("c")
            .with("z", 1i64)
            .with("a", 2i64)
            .with("m", 3i64);
        let keys: Vec<&str> = d.attrs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "m", "z"]);
    }

    /// `e2e`'s final-WM fingerprint hashes this exact string (it was the
    /// `BTreeMap` payload's `Debug`), so it must never drift.
    #[test]
    fn debug_output_is_pinned() {
        let d = WmeData::new("order")
            .with("qty", 40i64)
            .with("item", "bolt")
            .with("note", String::from("rush"))
            .with("w", 1.5)
            .with("ok", true);
        assert_eq!(
            format!("{d:?}"),
            r#"WmeData { class: "order", attrs: {"item": Sym("bolt"), "note": Str("rush"), "ok": Bool(true), "qty": Int(40), "w": Float(1.5)} }"#
        );
        assert_eq!(
            format!("{:?}", WmeData::new("c")),
            r#"WmeData { class: "c", attrs: {} }"#
        );
    }
}
