//! Frequent patterns and pattern sets.
//!
//! Every mined pattern is identified by its minimum DFS code, so a
//! [`PatternSet`] — the `P(U_i)`, `F^k`, and `UF`/`FI`/`IF` collections
//! of the paper — is a hash map keyed by canonical code.

use rustc_hash::FxHashMap;

use crate::{DfsCode, Graph, Support};

/// A frequent pattern: canonical code, materialised graph, and support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Minimum DFS code (canonical identity).
    pub code: DfsCode,
    /// The pattern graph (as rebuilt from the code).
    pub graph: Graph,
    /// Support in the database the pattern was mined from.
    pub support: Support,
}

impl Pattern {
    /// Builds a pattern from its canonical code and support.
    pub fn from_code(code: DfsCode, support: Support) -> Self {
        let graph = code.to_graph();
        Pattern { code, graph, support }
    }

    /// Number of edges (the paper's pattern *size*).
    #[inline]
    pub fn size(&self) -> usize {
        self.code.len()
    }
}

/// A set of patterns keyed by canonical DFS code.
///
/// Supports the set algebra the PartMiner/IncPartMiner pseudo-code performs
/// on `P(·)` collections: union, difference, size-stratified access
/// (`P^k(U)`), and membership by code.
#[derive(Debug, Clone, Default)]
pub struct PatternSet {
    map: FxHashMap<DfsCode, Pattern>,
}

impl PatternSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of patterns.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the set holds no patterns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts (or replaces) a pattern, returning the previous entry with
    /// the same canonical code if any.
    pub fn insert(&mut self, p: Pattern) -> Option<Pattern> {
        self.map.insert(p.code.clone(), p)
    }

    /// Looks up a pattern by canonical code.
    pub fn get(&self, code: &DfsCode) -> Option<&Pattern> {
        self.map.get(code)
    }

    /// `true` when a pattern with this canonical code is present.
    pub fn contains(&self, code: &DfsCode) -> bool {
        self.map.contains_key(code)
    }

    /// Support of the pattern with this code, if present.
    pub fn support(&self, code: &DfsCode) -> Option<Support> {
        self.map.get(code).map(|p| p.support)
    }

    /// Removes a pattern by code.
    pub fn remove(&mut self, code: &DfsCode) -> Option<Pattern> {
        self.map.remove(code)
    }

    /// Iterates over all patterns (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &Pattern> {
        self.map.values()
    }

    /// Iterates over all canonical codes (unspecified order).
    pub fn codes(&self) -> impl Iterator<Item = &DfsCode> {
        self.map.keys()
    }

    /// Drains the set into its patterns.
    pub fn into_patterns(self) -> Vec<Pattern> {
        self.map.into_values().collect()
    }

    /// Patterns with exactly `k` edges — the paper's `P^k(·)`.
    pub fn of_size(&self, k: usize) -> impl Iterator<Item = &Pattern> {
        self.map.values().filter(move |p| p.size() == k)
    }

    /// Largest pattern size present (0 when empty).
    pub fn max_size(&self) -> usize {
        self.map.values().map(Pattern::size).max().unwrap_or(0)
    }

    /// Union: keeps the *maximum* support when both sides know the pattern
    /// (supports from different units are incomparable lower bounds on the
    /// database support; the larger bound is the tighter one).
    pub fn union(&mut self, other: &PatternSet) {
        for p in other.iter() {
            match self.map.get_mut(&p.code) {
                Some(mine) => mine.support = mine.support.max(p.support),
                None => {
                    self.map.insert(p.code.clone(), p.clone());
                }
            }
        }
    }

    /// Set difference by code: `self \ other` — the paper's `P(U_i) \ P(U_i')`.
    pub fn difference(&self, other: &PatternSet) -> PatternSet {
        PatternSet {
            map: self
                .map
                .iter()
                .filter(|(code, _)| !other.contains(code))
                .map(|(c, p)| (c.clone(), p.clone()))
                .collect(),
        }
    }

    /// Retains only patterns satisfying the predicate.
    pub fn retain(&mut self, mut f: impl FnMut(&Pattern) -> bool) {
        self.map.retain(|_, p| f(p));
    }

    /// Canonical codes, sorted — handy for deterministic comparisons in
    /// tests and reports.
    pub fn codes_sorted(&self) -> Vec<DfsCode> {
        let mut v: Vec<DfsCode> = self.map.keys().cloned().collect();
        v.sort();
        v
    }

    /// `true` when both sets contain exactly the same canonical codes
    /// (supports ignored).
    pub fn same_codes(&self, other: &PatternSet) -> bool {
        self.len() == other.len() && self.map.keys().all(|c| other.contains(c))
    }

    /// `true` when both sets contain the same codes *and* supports.
    pub fn same_codes_and_supports(&self, other: &PatternSet) -> bool {
        self.len() == other.len()
            && self.map.iter().all(|(c, p)| other.support(c) == Some(p.support))
    }
}

impl FromIterator<Pattern> for PatternSet {
    fn from_iter<T: IntoIterator<Item = Pattern>>(iter: T) -> Self {
        let mut s = PatternSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl<'a> IntoIterator for &'a PatternSet {
    type Item = &'a Pattern;
    type IntoIter = std::collections::hash_map::Values<'a, DfsCode, Pattern>;

    fn into_iter(self) -> Self::IntoIter {
        self.map.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfsEdge;

    fn pat(label: u32, support: Support) -> Pattern {
        Pattern::from_code(DfsCode(vec![DfsEdge::new(0, 1, label, 0, label)]), support)
    }

    fn pat2(label: u32, support: Support) -> Pattern {
        Pattern::from_code(
            DfsCode(vec![DfsEdge::new(0, 1, label, 0, label), DfsEdge::new(1, 2, label, 0, label)]),
            support,
        )
    }

    #[test]
    fn insert_get_remove() {
        let mut s = PatternSet::new();
        assert!(s.insert(pat(1, 5)).is_none());
        assert_eq!(s.support(&pat(1, 0).code), Some(5));
        let old = s.insert(pat(1, 9)).unwrap();
        assert_eq!(old.support, 5);
        assert!(s.remove(&pat(1, 0).code).is_some());
        assert!(s.is_empty());
    }

    #[test]
    fn size_stratification() {
        let s: PatternSet = vec![pat(1, 5), pat(2, 5), pat2(1, 4)].into_iter().collect();
        assert_eq!(s.of_size(1).count(), 2);
        assert_eq!(s.of_size(2).count(), 1);
        assert_eq!(s.max_size(), 2);
    }

    #[test]
    fn union_keeps_max_support() {
        let mut a: PatternSet = vec![pat(1, 5)].into_iter().collect();
        let b: PatternSet = vec![pat(1, 8), pat(2, 3)].into_iter().collect();
        a.union(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.support(&pat(1, 0).code), Some(8));
    }

    #[test]
    fn difference_by_code() {
        let a: PatternSet = vec![pat(1, 5), pat(2, 5)].into_iter().collect();
        let b: PatternSet = vec![pat(2, 1)].into_iter().collect();
        let d = a.difference(&b);
        assert_eq!(d.len(), 1);
        assert!(d.contains(&pat(1, 0).code));
    }

    #[test]
    fn equality_helpers() {
        let a: PatternSet = vec![pat(1, 5), pat(2, 5)].into_iter().collect();
        let b: PatternSet = vec![pat(2, 5), pat(1, 5)].into_iter().collect();
        let c: PatternSet = vec![pat(2, 5), pat(1, 6)].into_iter().collect();
        assert!(a.same_codes(&b));
        assert!(a.same_codes_and_supports(&b));
        assert!(a.same_codes(&c));
        assert!(!a.same_codes_and_supports(&c));
    }

    #[test]
    fn pattern_from_code_materialises_graph() {
        let p = pat2(3, 1);
        assert_eq!(p.graph.vertex_count(), 3);
        assert_eq!(p.graph.edge_count(), 2);
        assert_eq!(p.size(), 2);
    }
}
