//! The keyword universe `S = {s_1, …, s_R}` and string interning.
//!
//! Tasks on AMT/CrowdFlower carry keyword metadata ("audio", "English",
//! "sentiment analysis", …). [`KeywordSpace`] interns keyword strings into
//! dense ids so [`crate::KeywordVec`]s can be built over a shared universe.

use std::collections::HashMap;

use crate::bitvec::KeywordVec;

/// Dense id of an interned keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeywordId(pub u32);

/// An append-only, interned keyword universe.
///
/// ```
/// use hta_core::KeywordSpace;
/// let mut space = KeywordSpace::new();
/// let audio = space.intern("audio");
/// assert_eq!(space.intern("audio"), audio); // idempotent
/// assert_eq!(space.name(audio), "audio");
/// assert_eq!(space.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KeywordSpace {
    names: Vec<String>,
    index: HashMap<String, KeywordId>,
}

impl KeywordSpace {
    /// An empty universe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> KeywordId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = KeywordId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Look up an already-interned keyword.
    pub fn get(&self, name: &str) -> Option<KeywordId> {
        self.index.get(name).copied()
    }

    /// The name of keyword `id`.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this space.
    pub fn name(&self, id: KeywordId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of interned keywords (the `R` of the paper).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no keyword has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Build a [`KeywordVec`] over this universe from keyword names,
    /// interning any new ones.
    pub fn vector_of(&mut self, keywords: &[&str]) -> KeywordVec {
        let ids: Vec<usize> = keywords.iter().map(|k| self.intern(k).0 as usize).collect();
        // The universe may have grown while interning.
        KeywordVec::from_indices(self.len(), &ids)
    }

    /// Build a [`KeywordVec`] from names without interning; unknown names
    /// are ignored. Use when the universe is frozen.
    pub fn vector_of_known(&self, keywords: &[&str]) -> KeywordVec {
        let ids: Vec<usize> = keywords
            .iter()
            .filter_map(|k| self.get(k).map(|id| id.0 as usize))
            .collect();
        KeywordVec::from_indices(self.len(), &ids)
    }

    /// Re-home `v` into this (possibly larger) universe. Vectors built
    /// before later interning calls have a smaller width; this pads them.
    ///
    /// # Panics
    /// Panics if `v` is *wider* than the universe.
    pub fn widen(&self, v: &KeywordVec) -> KeywordVec {
        v.widened(self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut s = KeywordSpace::new();
        let a = s.intern("audio");
        let b = s.intern("news");
        assert_ne!(a, b);
        assert_eq!(s.intern("audio"), a);
        assert_eq!(s.len(), 2);
        assert_eq!(s.name(b), "news");
        assert_eq!(s.get("news"), Some(b));
        assert_eq!(s.get("video"), None);
    }

    #[test]
    fn vector_of_interns_and_sets() {
        let mut s = KeywordSpace::new();
        let v = s.vector_of(&["audio", "english", "news"]);
        assert_eq!(s.len(), 3);
        assert_eq!(v.nbits(), 3);
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn vector_of_known_ignores_unknown() {
        let mut s = KeywordSpace::new();
        s.intern("audio");
        let v = s.vector_of_known(&["audio", "mystery"]);
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    fn widen_pads_old_vectors() {
        let mut s = KeywordSpace::new();
        let v1 = s.vector_of(&["a"]);
        s.intern("b");
        s.intern("c");
        let wide = s.widen(&v1);
        assert_eq!(wide.nbits(), 3);
        assert!(wide.get(0));
        assert!(!wide.get(2));
    }

    #[test]
    fn empty_space() {
        let s = KeywordSpace::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
