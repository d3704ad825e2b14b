//! Interned signal identifiers: the dense-index side of [`SigName`].
//!
//! Execution hot paths (the constructive simulator, the explicit-state
//! checker, the GALS runtimes) address signals by [`SigId`] — a `u32` index
//! into an append-only [`Interner`] — so per-instant work never touches a
//! string or a name-keyed map. [`SigName`]s remain the API-boundary
//! representation (parser, CLI, reports, VCD); the interner is the bridge,
//! built once per program/reactor and shared via its handle.

use std::fmt;

use crate::hash::FxHashMap;
use crate::value::SigName;

/// A dense, interner-scoped signal identifier.
///
/// Ids are assigned consecutively from zero in interning order, so a
/// `SigId` doubles as an index into any per-signal slot vector sized by
/// [`Interner::len`]. Ids from different interners must not be mixed; they
/// are plain indices and carry no provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SigId(pub u32);

impl SigId {
    /// The id as a slot-vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An append-only `SigName ↔ SigId` table.
///
/// ```
/// use polysig_tagged::{Interner, SigName};
/// let mut interner = Interner::new();
/// let x = interner.intern("x");
/// let y = interner.intern(&SigName::from("y"));
/// assert_eq!(interner.intern("x"), x);           // idempotent
/// assert_eq!(interner.lookup("y"), Some(y));
/// assert_eq!(interner.name(x).as_str(), "x");
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<SigName>,
    ids: FxHashMap<SigName, SigId>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// An empty interner with room for `n` names.
    pub fn with_capacity(n: usize) -> Self {
        Interner {
            names: Vec::with_capacity(n),
            ids: FxHashMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// Interns a name, returning its existing id when already known. A new
    /// [`SigName`] shares the caller's string; a `&str` is copied once.
    ///
    /// # Panics
    ///
    /// Panics on the (absurd) 2^32nd distinct name.
    pub fn intern(&mut self, name: impl AsRef<str> + Into<SigName>) -> SigId {
        if let Some(&id) = self.ids.get(name.as_ref()) {
            return id;
        }
        let id = SigId(u32::try_from(self.names.len()).expect("interner overflow"));
        let name = name.into();
        self.names.push(name.clone());
        self.ids.insert(name, id);
        id
    }

    /// The id of an already-interned name, without inserting.
    ///
    /// Lookup by `&str` is allocation-free (`SigName: Borrow<str>`).
    pub fn lookup(&self, name: impl AsRef<str>) -> Option<SigId> {
        self.ids.get(name.as_ref()).copied()
    }

    /// The name behind an id.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not produced by this interner.
    #[inline]
    pub fn name(&self, id: SigId) -> &SigName {
        &self.names[id.index()]
    }

    /// All interned names, in id order (so `names()[i]` has `SigId(i)`).
    pub fn names(&self) -> &[SigName] {
        &self.names
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (SigId, &SigName)> {
        self.names.iter().enumerate().map(|(i, n)| (SigId(i as u32), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_append_only_and_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_eq!(a, SigId(0));
        assert_eq!(b, SigId(1));
        assert_eq!(i.intern("a"), a);
        assert_eq!(i.len(), 2);
        assert_eq!(i.names(), &[SigName::from("a"), SigName::from("b")]);
    }

    #[test]
    fn interning_a_sig_name_shares_its_string() {
        let mut i = Interner::with_capacity(1);
        let name = SigName::from("shared");
        let id = i.intern(&name);
        assert_eq!(i.name(id).as_str().as_ptr(), name.as_str().as_ptr());
        assert_eq!(i.intern("shared"), id);
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut i = Interner::new();
        i.intern("x");
        assert_eq!(i.lookup("x"), Some(SigId(0)));
        assert_eq!(i.lookup("y"), None);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iteration_matches_id_order() {
        let mut i = Interner::new();
        for n in ["c", "a", "b"] {
            i.intern(n);
        }
        let pairs: Vec<(SigId, &str)> = i.iter().map(|(id, n)| (id, n.as_str())).collect();
        assert_eq!(pairs, vec![(SigId(0), "c"), (SigId(1), "a"), (SigId(2), "b")]);
    }
}
