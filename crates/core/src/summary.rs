//! Compact summaries of operation-identifier sets (paper §10.2).
//!
//! Section 10.2 observes that identifiers "cannot be so readily dispensed
//! with, since they are required in case they are included in the `prev`
//! sets of future operations", but that "by imposing some structure on
//! these identifiers, it is possible to summarize them so they do not take
//! linear space with the number of operations issued", citing the multipart
//! timestamps of Ladin et al. as the sophisticated variant.
//!
//! Our identifiers already carry the required structure: an [`OpId`] is a
//! (client, per-client sequence number) pair, and each client issues
//! consecutive sequence numbers. A set of identifiers that is *downward
//! closed per client* (contains `c:0 .. c:k` for each client `c`) is then
//! fully described by one watermark per client — exactly a multipart
//! timestamp. [`IdSummary`] stores such a watermark vector plus an
//! *exception set* for identifiers received out of order, so it represents
//! **any** finite set of identifiers exactly, while collapsing the common
//! downward-closed case to one integer per client.
//!
//! The `done` and `stable` components of gossip messages are downward
//! closed per client in steady state (operations from one client are done
//! in sequence order unless `prev` sets reach across clients), so encoding
//! them as summaries shrinks gossip from `O(#ops)` to `O(#clients)` — the
//! §10.4 experiment `tab_id_summary` measures this on live gossip streams.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Bound;

use serde::{Deserialize, Serialize};

use crate::ids::{ClientId, OpId};

/// An exact, compact representation of a finite set of [`OpId`]s.
///
/// Invariant: for every client `c` with watermark `w`, the set contains
/// exactly the ids `c:0 … c:(w-1)` plus the ids in the exception set; no
/// exception has sequence `< w` for its client. [`IdSummary::insert`] and
/// [`IdSummary::merge`] re-establish the invariant by advancing watermarks
/// over contiguous exceptions (*compaction*).
///
/// # Examples
///
/// ```
/// use esds_core::{ClientId, IdSummary, OpId};
///
/// let mut s = IdSummary::new();
/// s.insert(OpId::new(ClientId(1), 0));
/// s.insert(OpId::new(ClientId(1), 1));
/// s.insert(OpId::new(ClientId(1), 3)); // gap at seq 2
/// assert!(s.contains(OpId::new(ClientId(1), 1)));
/// assert!(!s.contains(OpId::new(ClientId(1), 2)));
/// assert_eq!(s.len(), 3);
/// // Two ids are covered by the watermark, one is an exception.
/// assert_eq!(s.watermark(ClientId(1)), 2);
/// assert_eq!(s.exception_count(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct IdSummary {
    /// Per-client watermark `w`: all sequences `< w` are members.
    watermarks: BTreeMap<ClientId, u64>,
    /// Members at or above their client's watermark.
    exceptions: BTreeSet<OpId>,
}

impl IdSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a summary of the given identifiers.
    ///
    /// # Examples
    ///
    /// ```
    /// use esds_core::{ClientId, IdSummary, OpId};
    /// let ids = (0..100).map(|s| OpId::new(ClientId(0), s));
    /// let summary = IdSummary::from_ids(ids);
    /// assert_eq!(summary.len(), 100);
    /// assert_eq!(summary.exception_count(), 0); // pure watermark
    /// ```
    pub fn from_ids(ids: impl IntoIterator<Item = OpId>) -> Self {
        let mut s = Self::new();
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: OpId) -> bool {
        id.seq() < self.watermark(id.client()) || self.exceptions.contains(&id)
    }

    /// The watermark for `client` (0 if none recorded): every sequence
    /// strictly below it is a member.
    pub fn watermark(&self, client: ClientId) -> u64 {
        self.watermarks.get(&client).copied().unwrap_or(0)
    }

    /// Adds a member. Returns `true` if it was new.
    pub fn insert(&mut self, id: OpId) -> bool {
        if self.contains(id) {
            return false;
        }
        self.exceptions.insert(id);
        self.compact_client(id.client());
        true
    }

    /// Adds every sequence of `client` below `w` — one watermark update,
    /// not `w` inserts.
    pub fn raise_watermark(&mut self, client: ClientId, w: u64) {
        let mine = self.watermarks.entry(client).or_insert(0);
        *mine = (*mine).max(w);
        self.compact_client(client);
    }

    /// Merges another summary into this one (set union).
    pub fn merge(&mut self, other: &IdSummary) {
        let clients: BTreeSet<ClientId> = other
            .watermarks
            .keys()
            .copied()
            .chain(other.exceptions.iter().map(|id| id.client()))
            .collect();
        for (c, w) in &other.watermarks {
            let mine = self.watermarks.entry(*c).or_insert(0);
            *mine = (*mine).max(*w);
        }
        for id in &other.exceptions {
            if !self.contains(*id) {
                self.exceptions.insert(*id);
            }
        }
        for c in clients {
            self.compact_client(c);
        }
    }

    /// Number of members.
    ///
    /// The watermark contribution is exact because watermark `w` covers the
    /// `w` sequences `0..w`.
    pub fn len(&self) -> usize {
        let wm: u64 = self.watermarks.values().sum();
        wm as usize + self.exceptions.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.watermarks.values().all(|w| *w == 0) && self.exceptions.is_empty()
    }

    /// Number of identifiers stored explicitly (not covered by watermarks).
    /// This — not [`len`](Self::len) — is what the summary spends memory and
    /// message bytes on.
    pub fn exception_count(&self) -> usize {
        self.exceptions.len()
    }

    /// The set difference `self − other` as a summary.
    ///
    /// Cost is proportional to the *difference* plus the two summaries'
    /// stored entries (watermarks and exceptions), **not** to
    /// [`len`](Self::len): per client only the sequences between the two
    /// watermarks are examined. This is what makes an `IdSummary` exchange
    /// O(delta) — batched gossip (§10.4) ships complete `done`/`stable`
    /// summaries and receivers diff them against what they have already
    /// folded in, touching only the new identifiers.
    ///
    /// # Examples
    ///
    /// ```
    /// use esds_core::{ClientId, IdSummary, OpId};
    ///
    /// let big = IdSummary::from_ids((0..100).map(|s| OpId::new(ClientId(0), s)));
    /// let small = IdSummary::from_ids((0..98).map(|s| OpId::new(ClientId(0), s)));
    /// let delta = big.difference(&small);
    /// assert_eq!(delta.len(), 2);
    /// assert!(delta.contains(OpId::new(ClientId(0), 99)));
    /// assert!(small.difference(&big).is_empty());
    /// ```
    pub fn difference(&self, other: &IdSummary) -> IdSummary {
        let mut out = IdSummary::new();
        for (c, w) in &self.watermarks {
            for seq in other.watermark(*c)..*w {
                let id = OpId::new(*c, seq);
                if !other.contains(id) {
                    out.insert(id);
                }
            }
        }
        for id in &self.exceptions {
            if !other.contains(*id) {
                out.insert(*id);
            }
        }
        out
    }

    /// Whether every member of `other` is a member of `self`.
    pub fn covers(&self, other: &IdSummary) -> bool {
        for (c, w) in &other.watermarks {
            if self.watermark(*c) < *w {
                // Members below other's watermark must each be covered.
                for seq in self.watermark(*c)..*w {
                    if !self.contains(OpId::new(*c, seq)) {
                        return false;
                    }
                }
            }
        }
        other.exceptions.iter().all(|id| self.contains(*id))
    }

    /// The entries of `map` whose key is **not** a member, in key order.
    ///
    /// One range scan per client of `map`, starting at that client's
    /// watermark: cost is O(#clients · log |map| + entries at or above the
    /// watermarks), never O(|map|). Batched gossip (§10.4) builds its `R`
    /// and `L` components this way against a peer's acknowledged
    /// `known`/`stable` summaries.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::collections::BTreeMap;
    /// use esds_core::{ClientId, IdSummary, OpId};
    ///
    /// let map: BTreeMap<OpId, ()> = (0..5).map(|s| (OpId::new(ClientId(0), s), ())).collect();
    /// let acked = IdSummary::from_ids([0, 1, 3].map(|s| OpId::new(ClientId(0), s)));
    /// let missing: Vec<u64> = acked.missing_from(&map).iter().map(|(id, _)| id.seq()).collect();
    /// assert_eq!(missing, vec![2, 4]);
    /// ```
    pub fn missing_from<'a, V>(&self, map: &'a BTreeMap<OpId, V>) -> Vec<(&'a OpId, &'a V)> {
        let mut out = Vec::new();
        let mut next = map.keys().next();
        while let Some(first) = next {
            let c = first.client();
            let last = OpId::new(c, u64::MAX);
            out.extend(
                map.range(OpId::new(c, self.watermark(c))..=last)
                    .filter(|(id, _)| !self.exceptions.contains(id)),
            );
            next = map
                .range((Bound::Excluded(last), Bound::Unbounded))
                .next()
                .map(|(id, _)| id);
        }
        out
    }

    /// Iterates over all members, client-major. The watermark part is
    /// materialized lazily; cost is `O(len)`.
    pub fn iter(&self) -> impl Iterator<Item = OpId> + '_ {
        let clients: BTreeSet<ClientId> = self
            .watermarks
            .keys()
            .copied()
            .chain(self.exceptions.iter().map(|id| id.client()))
            .collect();
        clients.into_iter().flat_map(move |c| {
            let w = self.watermark(c);
            let below = (0..w).map(move |seq| OpId::new(c, seq));
            let above = self
                .exceptions
                .range(OpId::new(c, 0)..=OpId::new(c, u64::MAX))
                .copied();
            below.chain(above)
        })
    }

    /// The members not covered by watermarks, in order.
    pub fn exceptions(&self) -> impl Iterator<Item = OpId> + '_ {
        self.exceptions.iter().copied()
    }

    /// The (client, watermark) pairs with nonzero watermark.
    pub fn watermarks(&self) -> impl Iterator<Item = (ClientId, u64)> + '_ {
        self.watermarks
            .iter()
            .filter(|(_, w)| **w > 0)
            .map(|(c, w)| (*c, *w))
    }

    /// Approximate encoded size in bytes, comparable to the 16-bytes-per-id
    /// estimate used for plain id lists in gossip sizing: each watermark
    /// entry costs 12 bytes (client + u64), each exception 16.
    pub fn approx_bytes(&self) -> usize {
        12 * self.watermarks.iter().filter(|(_, w)| **w > 0).count() + 16 * self.exceptions.len()
    }

    /// Advances `client`'s watermark over contiguous exceptions and prunes
    /// exceptions the watermark already covers (a merge can raise the
    /// watermark over ids that were exceptional before).
    fn compact_client(&mut self, client: ClientId) {
        let mut w = self.watermark(client);
        let covered: Vec<OpId> = self
            .exceptions
            .range(OpId::new(client, 0)..OpId::new(client, w))
            .copied()
            .collect();
        for id in covered {
            self.exceptions.remove(&id);
        }
        while self.exceptions.remove(&OpId::new(client, w)) {
            w += 1;
        }
        if w > 0 {
            self.watermarks.insert(client, w);
        }
    }
}

impl FromIterator<OpId> for IdSummary {
    fn from_iter<I: IntoIterator<Item = OpId>>(iter: I) -> Self {
        Self::from_ids(iter)
    }
}

impl Extend<OpId> for IdSummary {
    fn extend<I: IntoIterator<Item = OpId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl fmt::Display for IdSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (c, w) in self.watermarks() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{c}:<{w}")?;
        }
        for id in self.exceptions() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(c: u32, s: u64) -> OpId {
        OpId::new(ClientId(c), s)
    }

    #[test]
    fn empty_summary() {
        let s = IdSummary::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(id(0, 0)));
        assert_eq!(s.to_string(), "{}");
    }

    #[test]
    fn consecutive_inserts_collapse_to_watermark() {
        let mut s = IdSummary::new();
        for seq in 0..1000 {
            assert!(s.insert(id(3, seq)));
        }
        assert_eq!(s.len(), 1000);
        assert_eq!(s.exception_count(), 0);
        assert_eq!(s.watermark(ClientId(3)), 1000);
        assert!(s.approx_bytes() < 16);
    }

    #[test]
    fn out_of_order_inserts_compact_when_gap_fills() {
        let mut s = IdSummary::new();
        s.insert(id(0, 2));
        s.insert(id(0, 0));
        assert_eq!(s.watermark(ClientId(0)), 1);
        assert_eq!(s.exception_count(), 1);
        // Filling the gap swallows the exception.
        s.insert(id(0, 1));
        assert_eq!(s.watermark(ClientId(0)), 3);
        assert_eq!(s.exception_count(), 0);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn reinsert_is_noop() {
        let mut s = IdSummary::new();
        assert!(s.insert(id(1, 0)));
        assert!(!s.insert(id(1, 0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn merge_is_union() {
        let a = IdSummary::from_ids([id(0, 0), id(0, 1), id(1, 5)]);
        let b = IdSummary::from_ids([id(0, 2), id(1, 0), id(2, 0)]);
        let mut m = a.clone();
        m.merge(&b);
        let want: BTreeSet<OpId> =
            [id(0, 0), id(0, 1), id(0, 2), id(1, 5), id(1, 0), id(2, 0)].into();
        let got: BTreeSet<OpId> = m.iter().collect();
        assert_eq!(got, want);
        assert_eq!(m.len(), want.len());
        // 0's watermark advanced over both halves.
        assert_eq!(m.watermark(ClientId(0)), 3);
        assert!(m.covers(&a));
        assert!(m.covers(&b));
        assert!(!a.covers(&b));
    }

    #[test]
    fn merge_compacts_across_sources() {
        // a has the evens, b the odds: union is downward closed.
        let a = IdSummary::from_ids((0..10).step_by(2).map(|s| id(0, s)));
        let b = IdSummary::from_ids((1..10).step_by(2).map(|s| id(0, s)));
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.watermark(ClientId(0)), 10);
        assert_eq!(m.exception_count(), 0);
    }

    #[test]
    fn merge_prunes_exceptions_overtaken_by_watermark() {
        // Regression (found by the set-model proptest): `a` holds c2:1 as
        // an exception; merging `b`, whose watermark already covers it,
        // must not leave the id counted twice.
        let a = IdSummary::from_ids([id(2, 1)]);
        let b = IdSummary::from_ids([id(2, 0), id(2, 1)]);
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.len(), 2);
        assert_eq!(m.exception_count(), 0);
        assert_eq!(m.watermark(ClientId(2)), 2);
    }

    #[test]
    fn covers_checks_watermark_shortfall_against_exceptions() {
        // self covers seq 0 via exception only (watermark 0 after gap).
        let mut s = IdSummary::new();
        s.insert(id(0, 1));
        let other = IdSummary::from_ids([id(0, 0), id(0, 1)]);
        assert!(!s.covers(&other));
        s.insert(id(0, 0));
        assert!(s.covers(&other));
    }

    #[test]
    fn difference_is_set_minus() {
        let a = IdSummary::from_ids([id(0, 0), id(0, 1), id(0, 2), id(1, 0), id(2, 5)]);
        let b = IdSummary::from_ids([id(0, 1), id(1, 0), id(1, 1)]);
        let d = a.difference(&b);
        let got: BTreeSet<OpId> = d.iter().collect();
        let want: BTreeSet<OpId> = [id(0, 0), id(0, 2), id(2, 5)].into();
        assert_eq!(got, want);
        // other's exceptions above its watermark are honoured.
        let mut c = IdSummary::new();
        c.insert(id(0, 2)); // exception, watermark 0
        let d = a.difference(&c);
        assert!(!d.contains(id(0, 2)));
        assert!(d.contains(id(0, 0)));
        // Difference against self / empty.
        assert!(a.difference(&a).is_empty());
        assert_eq!(a.difference(&IdSummary::new()), a);
    }

    #[test]
    fn missing_from_scans_above_watermarks_per_client() {
        let map: BTreeMap<OpId, u8> = [id(0, 0), id(0, 1), id(0, 2), id(1, 0), id(1, 4), id(3, 7)]
            .into_iter()
            .map(|i| (i, 0))
            .collect();
        let acked = IdSummary::from_ids([id(0, 0), id(0, 1), id(1, 4), id(2, 0)]);
        let got: Vec<OpId> = acked.missing_from(&map).iter().map(|(i, _)| **i).collect();
        assert_eq!(got, vec![id(0, 2), id(1, 0), id(3, 7)]);
        assert!(IdSummary::from_ids(map.keys().copied())
            .missing_from(&map)
            .is_empty());
        assert_eq!(IdSummary::new().missing_from(&map).len(), map.len());
    }

    #[test]
    fn iter_yields_all_members_in_order() {
        let s = IdSummary::from_ids([id(1, 0), id(0, 0), id(0, 1), id(0, 5)]);
        let got: Vec<OpId> = s.iter().collect();
        assert_eq!(got, vec![id(0, 0), id(0, 1), id(0, 5), id(1, 0)]);
    }

    #[test]
    fn display_shows_watermarks_and_exceptions() {
        let s = IdSummary::from_ids([id(0, 0), id(0, 1), id(2, 7)]);
        assert_eq!(s.to_string(), "{c0:<2, c2:7}");
    }

    #[test]
    fn bytes_beat_plain_lists_on_dense_sets() {
        let ids: Vec<OpId> = (0..4)
            .flat_map(|c| (0..250).map(move |s| id(c, s)))
            .collect();
        let s = IdSummary::from_ids(ids.iter().copied());
        let plain = 16 * ids.len();
        assert_eq!(s.len(), ids.len());
        assert!(
            s.approx_bytes() * 100 < plain,
            "summary {} should be ≪ plain {plain}",
            s.approx_bytes()
        );
    }
}
