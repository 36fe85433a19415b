//! Labels — the well-ordered set 𝓛 the replicas use to order operations
//! (paper §6.3).
//!
//! Labels are partitioned into per-replica sets 𝓛ᵣ so that label assignment
//! is globally unique, and for any finite set of labels each replica can
//! produce one of its own labels greater than all of them ("a replica never
//! gets stuck"). A [`Label`] is a pair `(counter, replica)` ordered
//! lexicographically: 𝓛ᵣ = {(c, r) : c ∈ ℕ} satisfies both requirements.
//!
//! `∞` (an operation with no label yet) is [`LabelSlot::Inf`], greater than
//! every finite label. An operation's place in the *eventual total order* is
//! its system-wide minimum label.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::{OpId, ReplicaId};
use crate::summary::IdSummary;

/// A finite label from the well-ordered set 𝓛 = ℕ × ReplicaId (lexicographic).
///
/// Labels generated by different replicas are distinct because the replica
/// id is part of the label; labels generated by one replica are distinct
/// because its counter only grows.
///
/// # Examples
///
/// ```
/// use esds_core::{Label, ReplicaId};
/// let a = Label::new(3, ReplicaId(0));
/// let b = Label::new(3, ReplicaId(1));
/// let c = Label::new(4, ReplicaId(0));
/// assert!(a < b && b < c);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Label {
    /// Major component: strictly increases with each assignment at a replica
    /// and dominates the order.
    pub counter: u64,
    /// The replica that generated the label; tie-breaker making 𝓛ᵣ disjoint.
    pub replica: ReplicaId,
}

impl Label {
    /// Creates a label in 𝓛ᵣ for `replica`.
    pub fn new(counter: u64, replica: ReplicaId) -> Self {
        Label { counter, replica }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.counter, self.replica)
    }
}

/// A label slot: either a finite label or `∞` ("no label seen yet").
///
/// The derived order places every finite label below `Inf`, matching the
/// paper's extension `l < ∞ for all l ∈ 𝓛`.
///
/// # Examples
///
/// ```
/// use esds_core::{Label, LabelSlot, ReplicaId};
/// let fin = LabelSlot::Fin(Label::new(9, ReplicaId(2)));
/// assert!(fin < LabelSlot::Inf);
/// assert_eq!(fin.min(LabelSlot::Inf), fin);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum LabelSlot {
    /// A finite label.
    Fin(Label),
    /// No label yet (`∞`).
    Inf,
}

impl LabelSlot {
    /// Whether the slot holds a finite label.
    pub fn is_finite(&self) -> bool {
        matches!(self, LabelSlot::Fin(_))
    }

    /// The finite label, if any.
    pub fn finite(&self) -> Option<Label> {
        match self {
            LabelSlot::Fin(l) => Some(*l),
            LabelSlot::Inf => None,
        }
    }
}

impl From<Label> for LabelSlot {
    fn from(l: Label) -> Self {
        LabelSlot::Fin(l)
    }
}

impl fmt::Display for LabelSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelSlot::Fin(l) => write!(f, "{l}"),
            LabelSlot::Inf => write!(f, "∞"),
        }
    }
}

/// A replica's label function `label_r : ℐ → 𝓛 ∪ {∞}` (paper Fig. 7):
/// the minimum label seen for each operation identifier, with absent
/// entries denoting `∞`.
///
/// The map is injective on finite labels (two operations never share a
/// label) — this is Invariant 7.15's underpinning and is `debug_assert`ed
/// on every insertion.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LabelMap {
    by_id: BTreeMap<OpId, Label>,
    by_label: BTreeMap<Label, OpId>,
}

impl LabelMap {
    /// Creates an empty map (`label(id) = ∞` for all ids).
    pub fn new() -> Self {
        Self::default()
    }

    /// The label for `id`, or `∞`.
    pub fn get(&self, id: OpId) -> LabelSlot {
        self.by_id
            .get(&id)
            .copied()
            .map_or(LabelSlot::Inf, LabelSlot::Fin)
    }

    /// Whether `id` has a finite label — exactly "id ∈ done" by
    /// Invariant 7.5.
    pub fn is_labeled(&self, id: OpId) -> bool {
        self.by_id.contains_key(&id)
    }

    /// Number of labeled operations.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether no operation is labeled.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Lowers the label for `id` to `min(current, label)` and reports
    /// whether the entry changed. This is the merge rule of gossip
    /// processing (`label_r ← min(label_r, L_m)`).
    ///
    /// # Panics
    ///
    /// Debug-asserts that no *other* operation already holds `label`
    /// (labels are generated uniquely).
    pub fn merge_min(&mut self, id: OpId, label: Label) -> bool {
        match self.by_id.get(&id).copied() {
            Some(cur) if cur <= label => false,
            cur => {
                debug_assert!(
                    self.by_label.get(&label).is_none_or(|o| *o == id),
                    "label {label} already assigned to a different operation"
                );
                if let Some(old) = cur {
                    self.by_label.remove(&old);
                }
                self.by_id.insert(id, label);
                self.by_label.insert(label, id);
                true
            }
        }
    }

    /// Iterates `(id, label)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, Label)> + '_ {
        self.by_id.iter().map(|(id, l)| (*id, *l))
    }

    /// The `(id, label)` entries whose id `acked` does not contain, by a
    /// per-client range scan (see [`IdSummary::missing_from`]).
    pub fn missing_from(&self, acked: &IdSummary) -> Vec<(OpId, Label)> {
        acked
            .missing_from(&self.by_id)
            .into_iter()
            .map(|(id, l)| (*id, *l))
            .collect()
    }

    /// Iterates `(label, id)` pairs in **label order** — the replica's local
    /// constraints `lc_r` as a total order on its done operations.
    pub fn iter_by_label(&self) -> impl Iterator<Item = (Label, OpId)> + '_ {
        self.by_label.iter().map(|(l, id)| (*l, *id))
    }

    /// The operations in label order (the local total order `≺_{lc_r}`).
    pub fn ids_in_label_order(&self) -> Vec<OpId> {
        self.by_label.values().copied().collect()
    }

    /// The largest finite label present, if any. A fresh label must exceed
    /// this (do_it's precondition `l > label_r(y.id)` for all done `y`).
    pub fn max_label(&self) -> Option<Label> {
        self.by_label.keys().next_back().copied()
    }

    /// The first `(label, id)` entry strictly after `after` in label order
    /// (or the overall minimum when `after` is `None`). Lets callers walk
    /// the local total order incrementally — the memoization optimization
    /// (paper §10.1) advances its solid prefix this way.
    pub fn next_after(&self, after: Option<Label>) -> Option<(Label, OpId)> {
        use std::ops::Bound;
        let range = match after {
            None => self.by_label.range(..),
            Some(l) => self.by_label.range((Bound::Excluded(l), Bound::Unbounded)),
        };
        range.map(|(l, id)| (*l, *id)).next()
    }

    /// The local-constraints test `(id, id′) ∈ lc_r`:
    /// `label_r(id) < label_r(id′)` (with absent = ∞; note `∞ < ∞` is
    /// false, so two unlabeled operations are unordered).
    pub fn lc_precedes(&self, a: OpId, b: OpId) -> bool {
        self.get(a) < self.get(b)
    }

    /// Removes an entry (memory compaction, paper §10.2).
    pub fn remove(&mut self, id: OpId) -> Option<Label> {
        if let Some(l) = self.by_id.remove(&id) {
            self.by_label.remove(&l);
            Some(l)
        } else {
            None
        }
    }
}

impl FromIterator<(OpId, Label)> for LabelMap {
    fn from_iter<I: IntoIterator<Item = (OpId, Label)>>(iter: I) -> Self {
        let mut m = LabelMap::new();
        for (id, l) in iter {
            m.merge_min(id, l);
        }
        m
    }
}

/// Generator for a replica's own labels 𝓛ᵣ: hands out `(c, r)` with strictly
/// increasing `c`, always jumping above any label the replica has observed.
#[derive(Clone, Debug)]
pub struct LabelGenerator {
    replica: ReplicaId,
    next_counter: u64,
}

impl LabelGenerator {
    /// Creates a generator for `replica` starting at counter 0.
    pub fn new(replica: ReplicaId) -> Self {
        LabelGenerator {
            replica,
            next_counter: 0,
        }
    }

    /// The replica whose label set this generator draws from.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Produces a fresh label strictly greater than `floor` (if any) and
    /// than every label previously generated here. `floor` is typically the
    /// replica's current `max_label()`, making the fresh label greater than
    /// the label of every done operation (do_it's precondition).
    pub fn fresh_above(&mut self, floor: Option<Label>) -> Label {
        if let Some(f) = floor {
            // counter = floor.counter + 1 is > floor regardless of replica
            // tie-break, and keeps counters small.
            self.next_counter = self.next_counter.max(f.counter + 1);
        }
        let l = Label::new(self.next_counter, self.replica);
        self.next_counter += 1;
        l
    }

    /// Raises the internal counter so future labels exceed `seen`. Called
    /// when gossip reveals labels from other replicas — not required for
    /// correctness (fresh labels only need to beat *local* done labels) but
    /// keeps the eventual order close to arrival order, and is required
    /// after crash-recovery (paper §9.3: the label floor is the one piece
    /// of state kept in stable storage).
    pub fn observe(&mut self, seen: Label) {
        self.next_counter = self.next_counter.max(seen.counter + 1);
    }

    /// The counter the next label will use (exposed for crash-recovery
    /// persistence, paper §9.3).
    pub fn next_counter(&self) -> u64 {
        self.next_counter
    }

    /// Restores a generator from a persisted counter floor (crash recovery).
    pub fn from_counter(replica: ReplicaId, next_counter: u64) -> Self {
        LabelGenerator {
            replica,
            next_counter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    fn id(s: u64) -> OpId {
        OpId::new(ClientId(0), s)
    }

    #[test]
    fn label_order_lexicographic() {
        let r0 = ReplicaId(0);
        let r1 = ReplicaId(1);
        assert!(Label::new(0, r1) < Label::new(1, r0));
        assert!(Label::new(2, r0) < Label::new(2, r1));
    }

    #[test]
    fn slot_order_inf_is_top() {
        let l = LabelSlot::Fin(Label::new(u64::MAX, ReplicaId(u32::MAX)));
        assert!(l < LabelSlot::Inf);
        assert_eq!(LabelSlot::Inf.finite(), None);
    }

    #[test]
    fn generator_is_strictly_increasing_and_unique_per_replica() {
        let mut g = LabelGenerator::new(ReplicaId(3));
        let a = g.fresh_above(None);
        let b = g.fresh_above(None);
        assert!(a < b);
        assert_eq!(a.replica, ReplicaId(3));
    }

    #[test]
    fn generator_jumps_above_floor() {
        let mut g = LabelGenerator::new(ReplicaId(0));
        let floor = Label::new(41, ReplicaId(9));
        let l = g.fresh_above(Some(floor));
        assert!(l > floor);
    }

    #[test]
    fn generators_of_distinct_replicas_never_collide() {
        let mut g0 = LabelGenerator::new(ReplicaId(0));
        let mut g1 = LabelGenerator::new(ReplicaId(1));
        let mut all = std::collections::BTreeSet::new();
        for _ in 0..100 {
            assert!(all.insert(g0.fresh_above(None)));
            assert!(all.insert(g1.fresh_above(None)));
        }
    }

    #[test]
    fn merge_min_keeps_minimum() {
        let mut m = LabelMap::new();
        let hi = Label::new(5, ReplicaId(1));
        let lo = Label::new(2, ReplicaId(0));
        assert!(m.merge_min(id(0), hi));
        assert_eq!(m.get(id(0)), LabelSlot::Fin(hi));
        assert!(m.merge_min(id(0), lo));
        assert_eq!(m.get(id(0)), LabelSlot::Fin(lo));
        // Re-merging a larger label is a no-op.
        assert!(!m.merge_min(id(0), hi));
        assert_eq!(m.get(id(0)), LabelSlot::Fin(lo));
    }

    #[test]
    fn label_order_iteration() {
        let mut m = LabelMap::new();
        m.merge_min(id(2), Label::new(0, ReplicaId(0)));
        m.merge_min(id(0), Label::new(1, ReplicaId(0)));
        m.merge_min(id(1), Label::new(0, ReplicaId(1)));
        assert_eq!(m.ids_in_label_order(), vec![id(2), id(1), id(0)]);
        assert_eq!(m.max_label(), Some(Label::new(1, ReplicaId(0))));
    }

    #[test]
    fn lc_precedes_matches_labels() {
        let mut m = LabelMap::new();
        m.merge_min(id(0), Label::new(0, ReplicaId(0)));
        m.merge_min(id(1), Label::new(1, ReplicaId(0)));
        assert!(m.lc_precedes(id(0), id(1)));
        assert!(!m.lc_precedes(id(1), id(0)));
        // Unlabeled ids (∞) never precede anything, including each other.
        assert!(m.lc_precedes(id(0), id(9)));
        assert!(!m.lc_precedes(id(9), id(8)));
    }

    #[test]
    fn observe_supports_crash_recovery_floor() {
        let mut g = LabelGenerator::new(ReplicaId(0));
        g.observe(Label::new(100, ReplicaId(1)));
        assert!(g.fresh_above(None) > Label::new(100, ReplicaId(1)));
        let persisted = g.next_counter();
        let g2 = LabelGenerator::from_counter(ReplicaId(0), persisted);
        assert_eq!(g2.next_counter(), persisted);
    }

    #[test]
    fn remove_unlinks_both_directions() {
        let mut m = LabelMap::new();
        let l = Label::new(0, ReplicaId(0));
        m.merge_min(id(0), l);
        assert_eq!(m.remove(id(0)), Some(l));
        assert_eq!(m.get(id(0)), LabelSlot::Inf);
        assert!(m.ids_in_label_order().is_empty());
        assert_eq!(m.remove(id(0)), None);
    }
}
