//! Frequent patterns and pattern sets.
//!
//! Every mined pattern is identified by its minimum DFS code, and gSpan's
//! order on those codes (`DfsCode::cmp`) is total. A [`PatternSet`] — the
//! `P(U_i)`, `F^k`, and `UF`/`FI`/`IF` collections of the paper — is one
//! vector of patterns kept strictly ascending in that order: the pre-order
//! of the DFS-code tree the walk emits, so the walk only ever appends.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::{DfsCode, Graph, Support};

/// A frequent pattern: canonical code, materialised graph, and support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Minimum DFS code (canonical identity).
    pub code: DfsCode,
    /// The pattern graph (as rebuilt from the code), shared by every copy
    /// of the pattern: a copy costs its code, not a graph.
    pub graph: Arc<Graph>,
    /// Support in the database the pattern was mined from.
    pub support: Support,
}

impl Pattern {
    /// Builds a pattern from its canonical code and support.
    pub fn from_code(code: DfsCode, support: Support) -> Self {
        let graph = Arc::new(code.to_graph());
        Pattern { code, graph, support }
    }

    /// Number of edges (the paper's pattern *size*).
    #[inline]
    pub fn size(&self) -> usize {
        self.code.len()
    }
}

/// A set of patterns, one per canonical DFS code, held in code order.
///
/// Membership is a binary search; iteration, difference and equality are
/// slice passes. Inserting a code that sorts last appends, so a set built
/// in code order (the walk, the merge-join's concatenated subtrees,
/// ADIMINE) never shifts; any other insert shifts the tail.
#[derive(Debug, Clone, Default)]
pub struct PatternSet {
    /// Strictly ascending by `code`.
    patterns: Vec<Pattern>,
}

impl PatternSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of patterns.
    #[inline]
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// `true` when the set holds no patterns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Position of `code`, or where it would be inserted.
    fn find(&self, code: &DfsCode) -> Result<usize, usize> {
        self.patterns.binary_search_by(|p| p.code.cmp(code))
    }

    /// Inserts (or replaces) a pattern, returning the previous entry with
    /// the same canonical code if any.
    pub fn insert(&mut self, p: Pattern) -> Option<Pattern> {
        match self.find(&p.code) {
            Ok(i) => Some(std::mem::replace(&mut self.patterns[i], p)),
            Err(i) => {
                self.patterns.insert(i, p);
                None
            }
        }
    }

    /// Looks up a pattern by canonical code.
    pub fn get(&self, code: &DfsCode) -> Option<&Pattern> {
        self.find(code).ok().map(|i| &self.patterns[i])
    }

    /// `true` when a pattern with this canonical code is present.
    pub fn contains(&self, code: &DfsCode) -> bool {
        self.find(code).is_ok()
    }

    /// Support of the pattern with this code, if present.
    pub fn support(&self, code: &DfsCode) -> Option<Support> {
        self.get(code).map(|p| p.support)
    }

    /// Removes a pattern by code.
    pub fn remove(&mut self, code: &DfsCode) -> Option<Pattern> {
        self.find(code).ok().map(|i| self.patterns.remove(i))
    }

    /// Iterates over all patterns in ascending code order.
    pub fn iter(&self) -> impl Iterator<Item = &Pattern> {
        self.patterns.iter()
    }

    /// Iterates over all canonical codes in ascending order.
    pub fn codes(&self) -> impl Iterator<Item = &DfsCode> {
        self.patterns.iter().map(|p| &p.code)
    }

    /// [`PatternSet::codes`], collected: kept for the benchmark (ROADMAP 1(a)).
    pub fn codes_sorted(&self) -> Vec<DfsCode> {
        self.codes().cloned().collect()
    }

    /// Drains the set into its patterns, in ascending code order.
    pub fn into_patterns(self) -> Vec<Pattern> {
        self.patterns
    }

    /// Largest pattern size present (0 when empty).
    pub fn max_size(&self) -> usize {
        self.patterns.iter().map(Pattern::size).max().unwrap_or(0)
    }

    /// Set difference by code: `self \ other` — the paper's `P(U_i) \ P(U_i')`.
    pub fn difference(&self, other: &PatternSet) -> PatternSet {
        self.iter().filter(|p| !other.contains(&p.code)).cloned().collect()
    }

    /// Retains only patterns satisfying the predicate.
    pub fn retain(&mut self, f: impl FnMut(&Pattern) -> bool) {
        self.patterns.retain(f);
    }

    /// `true` when both sets contain exactly the same canonical codes
    /// (supports ignored).
    pub fn same_codes(&self, other: &PatternSet) -> bool {
        self.len() == other.len() && self.codes().eq(other.codes())
    }

    /// `true` when both sets contain the same codes *and* supports.
    pub fn same_codes_and_supports(&self, other: &PatternSet) -> bool {
        self.len() == other.len()
            && self.iter().zip(other).all(|(a, b)| a.code == b.code && a.support == b.support)
    }

    /// Every code of `self ∪ new` in ascending order, classified as
    /// IncPartMiner's Fig. 12 does when `new` replaces `self`: one merge
    /// pass over both sequences.
    pub fn changes_to<'a>(&'a self, new: &'a PatternSet) -> impl Iterator<Item = Change<'a>> {
        let (mut old, mut new) = (self.patterns.iter().peekable(), new.patterns.iter().peekable());
        std::iter::from_fn(move || {
            let order = match (old.peek(), new.peek()) {
                (None, None) => return None,
                (Some(o), Some(n)) => o.code.cmp(&n.code),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
            };
            Some(match order {
                Ordering::Less => Change::Lost(old.next()?),
                Ordering::Greater => Change::Gained(new.next()?),
                Ordering::Equal => Change::Unchanged(old.next()?, new.next()?),
            })
        })
    }
}

/// Where one code lands when an old pattern set is replaced by a new one.
#[derive(Debug, Clone, Copy)]
pub enum Change<'a> {
    /// `UF`: frequent before and after — the old and the new pattern.
    Unchanged(&'a Pattern, &'a Pattern),
    /// `FI`: frequent before only.
    Lost(&'a Pattern),
    /// `IF`: frequent after only.
    Gained(&'a Pattern),
}

impl FromIterator<Pattern> for PatternSet {
    /// Sorts once (unless the patterns already arrive in code order); of
    /// several patterns with one code the last wins, as with `insert`.
    fn from_iter<T: IntoIterator<Item = Pattern>>(iter: T) -> Self {
        let mut patterns: Vec<Pattern> = iter.into_iter().collect();
        if !patterns.is_sorted_by(|a, b| a.code < b.code) {
            // Reversed, the stable sort puts each code's last arrival first.
            patterns.reverse();
            patterns.sort_by(|a, b| a.code.cmp(&b.code));
            patterns.dedup_by(|a, b| a.code == b.code);
        }
        PatternSet { patterns }
    }
}

impl<'a> IntoIterator for &'a PatternSet {
    type Item = &'a Pattern;
    type IntoIter = std::slice::Iter<'a, Pattern>;

    fn into_iter(self) -> Self::IntoIter {
        self.patterns.iter()
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
        assert_eq!(s.iter().filter(|p| p.size() == 1).count(), 2);
        assert_eq!(s.max_size(), 2);
    }

    #[test]
    fn iteration_is_in_code_order() {
        let s: PatternSet = vec![pat2(1, 4), pat(2, 5), pat(1, 5)].into_iter().collect();
        let codes: Vec<&DfsCode> = s.codes().collect();
        assert_eq!(codes, [&pat(1, 0).code, &pat2(1, 0).code, &pat(2, 0).code]);
    }

    #[test]
    fn collect_keeps_the_last_of_a_repeated_code() {
        let s: PatternSet = vec![pat(2, 1), pat(1, 5), pat(2, 7)].into_iter().collect();
        assert_eq!(s.len(), 2);
        assert_eq!(s.support(&pat(2, 0).code), Some(7));
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
    fn changes_split_the_union() {
        let old: PatternSet = vec![pat(1, 5), pat(2, 5)].into_iter().collect();
        let new: PatternSet = vec![pat(2, 3), pat(3, 4)].into_iter().collect();
        let got: Vec<String> = old
            .changes_to(&new)
            .map(|c| match c {
                Change::Unchanged(o, n) => format!("UF {} {}", o.support, n.support),
                Change::Lost(p) => format!("FI {}", p.support),
                Change::Gained(p) => format!("IF {}", p.support),
            })
            .collect();
        assert_eq!(got, ["FI 5", "UF 5 3", "IF 4"]);
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
