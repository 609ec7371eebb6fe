//! Interned strings for class names, attribute names, variable and rule
//! names and symbolic values.
//!
//! An atom is normally a `&'static str` taken from one process-wide
//! table, so cloning it copies a pointer and writes no cache line that
//! another worker reads — an `Arc<str>` refcount would be exactly such a
//! line, bumped by every worker that copies a WME, a token or a binding.
//! The table only grows when an atom is *created* (parse, load, wire
//! decode, recovery); cloning, comparing and hashing never touch it.
//!
//! The table is capped at [`Atom::INTERN_CAP_BYTES`]. Interned strings
//! are never freed, so without a cap every distinct `Value::Str` or
//! `Value::Sym` a client sends would grow the process for good. The cap
//! counts bytes, not strings, because a wire string can be close to
//! 1 MiB long (a `u32` length, bounded by the frame size): each entry is
//! charged its length plus its slot in the table. A string
//! the table already holds always returns its interned atom; a new one
//! that would take the table past the cap falls back to a refcounted
//! heap string: correct and freed when dropped, only not free to clone.
//! Equality, ordering and hashing are by content in both forms.

use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, LazyLock, Mutex, PoisonError};

/// The process-wide intern table (see the module docs).
static TABLE: LazyLock<Mutex<Table>> = LazyLock::new(Default::default);

#[derive(Default)]
struct Table {
    entries: HashSet<&'static str>,
    /// What `entries` counts against [`Atom::INTERN_CAP_BYTES`].
    bytes: usize,
}

/// A cheaply cloneable immutable string.
///
/// Class names, attribute names and symbols occur in huge numbers of WMEs,
/// tokens and rule instantiations; `Atom` makes copying them a pointer
/// copy rather than a heap allocation or a shared refcount. Equality,
/// ordering and hashing are by string content, so atoms behave like
/// ordinary strings in maps (and `Borrow<str>` lookups work).
///
/// ```
/// use dps_wm::Atom;
/// let a = Atom::from("goal");
/// let b = a.clone();
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "goal");
/// ```
#[derive(Clone)]
pub struct Atom(Repr);

#[derive(Clone)]
enum Repr {
    /// A table entry. Entries are unique per content, so two interned
    /// atoms are equal exactly when they point at the same entry.
    Interned(&'static str),
    /// Past the cap: a private refcounted copy (a thin pointer, which
    /// keeps `Atom` two words).
    Heap(Arc<Box<str>>),
}

impl Atom {
    /// Most bytes the process-wide table holds, each entry charged its
    /// length plus its table slot (two words). A new string that would
    /// take the table past it becomes a refcounted heap string instead.
    pub const INTERN_CAP_BYTES: usize = 8 << 20;

    /// Creates an atom from anything string-like.
    pub fn new(s: impl AsRef<str>) -> Self {
        Atom::intern(Cow::Borrowed(s.as_ref()))
    }

    fn intern(s: Cow<'_, str>) -> Self {
        // A poisoned table is still usable: `bytes` moves only after the
        // `insert` returned, so it never undercounts the entries.
        let mut table = TABLE.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&hit) = table.entries.get(&*s) {
            return Atom(Repr::Interned(hit));
        }
        let bytes = table.bytes + s.len() + std::mem::size_of::<&'static str>();
        if bytes <= Atom::INTERN_CAP_BYTES {
            let leaked: &'static str = Box::leak(s.into_owned().into_boxed_str());
            table.entries.insert(leaked);
            table.bytes = bytes;
            return Atom(Repr::Interned(leaked));
        }
        drop(table);
        Atom::heap(s.into_owned())
    }

    /// The past-the-cap representation, reachable directly for tests.
    fn heap(s: String) -> Self {
        Atom(Repr::Heap(Arc::new(s.into_boxed_str())))
    }

    /// Bytes the table holds so far, as charged against
    /// [`Atom::INTERN_CAP_BYTES`] (never above it).
    pub fn interned_bytes() -> usize {
        TABLE.lock().unwrap_or_else(PoisonError::into_inner).bytes
    }

    /// `true` when this atom is a table entry rather than a past-the-cap
    /// heap string.
    pub fn is_interned(&self) -> bool {
        matches!(self.0, Repr::Interned(_))
    }

    /// Returns the string content.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Interned(s) => s,
            Repr::Heap(s) => s,
        }
    }

    /// Returns the length of the string in bytes.
    pub fn len(&self) -> usize {
        self.as_str().len()
    }

    /// Returns `true` if the string is empty.
    pub fn is_empty(&self) -> bool {
        self.as_str().is_empty()
    }
}

impl PartialEq for Atom {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::Interned(a), Repr::Interned(b)) => std::ptr::eq(*a, *b),
            _ => self.as_str() == other.as_str(),
        }
    }
}

impl Eq for Atom {}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Atom {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Repr::Interned(a), Repr::Interned(b)) = (&self.0, &other.0) {
            if std::ptr::eq(*a, *b) {
                return Ordering::Equal;
            }
        }
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Atom {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Atom {
    fn from(s: &str) -> Self {
        Atom::new(s)
    }
}

impl From<String> for Atom {
    fn from(s: String) -> Self {
        Atom::intern(Cow::Owned(s))
    }
}

impl From<&String> for Atom {
    fn from(s: &String) -> Self {
        Atom::new(s)
    }
}

impl Borrow<str> for Atom {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Atom {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for Atom {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Atom {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;

    fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// Both representations of each string, interned first.
    fn both(s: &str) -> [Atom; 2] {
        [Atom::from(s), Atom::heap(s.to_owned())]
    }

    #[test]
    fn equality_is_by_content() {
        let a = Atom::from("alpha");
        let b = Atom::new(String::from("alpha"));
        assert_eq!(a, b);
        assert_ne!(a, Atom::from("beta"));
    }

    #[test]
    fn clone_copies_the_table_pointer() {
        let a = Atom::from("shared");
        let b = a.clone();
        assert!(a.is_interned() && b.is_interned());
        assert_eq!(a.as_str().as_ptr(), b.as_str().as_ptr());
        assert_eq!(a.as_str().as_ptr(), Atom::from("shared").as_str().as_ptr());
    }

    #[test]
    fn two_words_in_both_forms() {
        assert_eq!(
            std::mem::size_of::<Atom>(),
            2 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn eq_ord_hash_agree_with_str_in_both_forms() {
        let words = ["", "a", "ab", "b", "goal", "goals", "z"];
        for x in words {
            for ax in both(x) {
                assert_eq!(ax.as_str(), x);
                assert_eq!(hash_of(&ax), hash_of(x), "{x:?}");
                for y in words {
                    for ay in both(y) {
                        assert_eq!(ax == ay, x == y, "{x:?} == {y:?}");
                        assert_eq!(ax.cmp(&ay), x.cmp(y), "{x:?} cmp {y:?}");
                        assert_eq!(ax.partial_cmp(&ay), x.partial_cmp(y));
                    }
                }
            }
        }
    }

    #[test]
    fn heap_form_is_not_interned_but_behaves_the_same() {
        let [a, b] = both("fallback");
        assert!(a.is_interned() && !b.is_interned());
        let mut m: HashMap<Atom, i32> = HashMap::new();
        m.insert(b.clone(), 1);
        assert_eq!(m.get(&a), Some(&1));
        assert_eq!(m.get("fallback"), Some(&1));
        assert_eq!(format!("{b:?} {b}"), format!("{a:?} {a}"));
    }

    #[test]
    fn usable_as_str_key() {
        let mut m: HashMap<Atom, i32> = HashMap::new();
        m.insert(Atom::from("k"), 7);
        // Borrow<str> lets us look up by &str without allocating.
        assert_eq!(m.get("k"), Some(&7));
        assert_eq!(m.get("missing"), None);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [Atom::from("b"), Atom::from("a"), Atom::from("c")];
        v.sort();
        let s: Vec<&str> = v.iter().map(|a| a.as_str()).collect();
        assert_eq!(s, ["a", "b", "c"]);
    }

    #[test]
    fn display_and_debug() {
        let a = Atom::from("x");
        assert_eq!(format!("{a}"), "x");
        assert_eq!(format!("{a:?}"), "\"x\"");
        assert_eq!(format!("{:?}", Atom::heap("x".into())), "\"x\"");
    }

    #[test]
    fn a_string_longer_than_the_cap_is_never_interned() {
        let long = "x".repeat(Atom::INTERN_CAP_BYTES);
        let a = Atom::new(&long);
        assert!(!a.is_interned());
        assert_eq!(a, Atom::from(long));
        assert!(Atom::interned_bytes() <= Atom::INTERN_CAP_BYTES);
    }

    #[test]
    fn emptiness() {
        assert!(Atom::from("").is_empty());
        assert_eq!(Atom::from("ab").len(), 2);
    }
}
