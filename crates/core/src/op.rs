//! Operation descriptors and client-specified constraints (paper §2.3).
//!
//! A client requests an operation by issuing an *operation descriptor*
//! consisting of a data-type operator, a unique identifier, a `prev` set of
//! identifiers of operations that must precede it, and a `strict` flag.
//! The `prev` sets of a set of operations induce the *client-specified
//! constraints* relation `CSC(X) = {(y.id, x.id) : x ∈ X ∧ y.id ∈ x.prev}`.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::OpId;

/// An operation descriptor (an element of 𝒪 in the paper, §2.3).
///
/// `O` is the operator type of the serial data type being accessed (see
/// [`crate::SerialDataType`]).
///
/// # Examples
///
/// ```
/// use esds_core::{ClientId, OpDescriptor, OpId};
///
/// let w = OpDescriptor::new(OpId::new(ClientId(0), 0), "write(1)");
/// let r = OpDescriptor::new(OpId::new(ClientId(0), 1), "read")
///     .with_prev([w.id])
///     .with_strict(true);
/// assert!(r.strict);
/// assert!(r.prev.contains(&w.id));
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct OpDescriptor<O> {
    /// Unique operation identifier (`x.id`).
    pub id: OpId,
    /// The data-type operator to apply (`x.op`).
    pub op: O,
    /// Identifiers of operations that must be applied before this one
    /// (`x.prev`). May only name operations requested earlier (well-
    /// formedness, paper §4).
    pub prev: BTreeSet<OpId>,
    /// Whether the operation must be *stable* at response time (`x.strict`):
    /// its response is then consistent with the eventual total order and is
    /// never invalidated by later reordering.
    pub strict: bool,
}

impl<O> OpDescriptor<O> {
    /// Creates a nonstrict descriptor with an empty `prev` set.
    pub fn new(id: OpId, op: O) -> Self {
        OpDescriptor {
            id,
            op,
            prev: BTreeSet::new(),
            strict: false,
        }
    }

    /// Replaces the `prev` set.
    #[must_use]
    pub fn with_prev(mut self, prev: impl IntoIterator<Item = OpId>) -> Self {
        self.prev = prev.into_iter().collect();
        self
    }

    /// Sets the strict flag.
    #[must_use]
    pub fn with_strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Approximate encoded size in bytes, the shared estimate of every
    /// gossip sizing model (`GossipMsg`/`BatchedGossipMsg::approx_bytes`):
    /// id (16) + a small operator
    /// estimate (8) + prev entries (16 each) + strict/overhead (16).
    /// Keeping one copy keeps the §10.4 byte comparisons honest — tuning
    /// the estimate skews every strategy's column together.
    pub fn approx_bytes(&self) -> usize {
        16 + 8 + 16 * self.prev.len() + 16
    }

    /// Maps the operator, preserving id/prev/strict. Useful when wrapping a
    /// data type (e.g. instrumentation).
    pub fn map_op<P>(self, f: impl FnOnce(O) -> P) -> OpDescriptor<P> {
        OpDescriptor {
            id: self.id,
            op: f(self.op),
            prev: self.prev,
            strict: self.strict,
        }
    }
}

impl<O: fmt::Display> fmt::Display for OpDescriptor<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}{}]",
            self.id,
            self.op,
            if self.strict { ", strict" } else { "" }
        )
    }
}

/// The client-specified constraints `CSC(X)` of a set of operations
/// (paper §2.3): the set of pairs `(y.id, x.id)` with `x ∈ X` and
/// `y.id ∈ x.prev`, read "y must be applied before x".
///
/// Lemma 2.4: `X ⊆ Y ⟹ CSC(X) ⊆ CSC(Y)` — immediate from this definition
/// because each descriptor contributes its pairs independently.
///
/// # Examples
///
/// ```
/// use esds_core::{csc, ClientId, OpDescriptor, OpId};
/// let a = OpId::new(ClientId(0), 0);
/// let b = OpId::new(ClientId(0), 1);
/// let ops = [
///     OpDescriptor::new(a, "w"),
///     OpDescriptor::new(b, "r").with_prev([a]),
/// ];
/// let pairs = csc(&ops);
/// assert_eq!(pairs, vec![(a, b)]);
/// ```
pub fn csc<'a, O: 'a>(ops: impl IntoIterator<Item = &'a OpDescriptor<O>>) -> Vec<(OpId, OpId)> {
    let mut out = Vec::new();
    for x in ops {
        for y in &x.prev {
            out.push((*y, x.id));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    fn id(c: u32, s: u64) -> OpId {
        OpId::new(ClientId(c), s)
    }

    #[test]
    fn descriptor_builders() {
        let d = OpDescriptor::new(id(0, 0), 7u32)
            .with_prev([id(0, 1), id(1, 0)])
            .with_strict(true);
        assert_eq!(d.prev.len(), 2);
        assert!(d.strict);
        assert_eq!(d.op, 7);
    }

    #[test]
    fn csc_collects_prev_pairs() {
        let ops = vec![
            OpDescriptor::new(id(0, 0), ()),
            OpDescriptor::new(id(0, 1), ()).with_prev([id(0, 0)]),
            OpDescriptor::new(id(1, 0), ()).with_prev([id(0, 0), id(0, 1)]),
        ];
        let mut pairs = csc(&ops);
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                (id(0, 0), id(0, 1)),
                (id(0, 0), id(1, 0)),
                (id(0, 1), id(1, 0)),
            ]
        );
    }

    #[test]
    fn csc_monotone_lemma_2_4() {
        let x = vec![OpDescriptor::new(id(0, 1), ()).with_prev([id(0, 0)])];
        let mut y = x.clone();
        y.push(OpDescriptor::new(id(1, 0), ()).with_prev([id(0, 1)]));
        let cx: std::collections::BTreeSet<_> = csc(&x).into_iter().collect();
        let cy: std::collections::BTreeSet<_> = csc(&y).into_iter().collect();
        assert!(cx.is_subset(&cy));
    }

    #[test]
    fn map_op_preserves_metadata() {
        let d = OpDescriptor::new(id(2, 3), 10u32).with_strict(true);
        let e = d.map_op(|v| v as u64 * 2);
        assert_eq!(e.op, 20);
        assert!(e.strict);
        assert_eq!(e.id, id(2, 3));
    }

    #[test]
    fn display_includes_strictness() {
        let d = OpDescriptor::new(id(0, 0), "inc").with_strict(true);
        assert_eq!(d.to_string(), "c0:0[inc, strict]");
        let d = OpDescriptor::new(id(0, 1), "read");
        assert_eq!(d.to_string(), "c0:1[read]");
    }
}
