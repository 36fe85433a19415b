//! Checked encode/decode primitives and the [`Wire`] trait.
//!
//! All multi-byte integers are LEB128 varints (small values — sequence
//! numbers, set sizes, label counters — dominate the message mix, see the
//! gossip sizing model in `esds-alg::messages`). Decoding never panics:
//! every read is length-checked and returns [`WireError`] on malformed
//! input, so a node can safely decode bytes received from the network.

use std::collections::{BTreeMap, BTreeSet};

use bytes::{Buf, BufMut};
use esds_core::{
    ClientId, IdSummary, Label, LabelSlot, OpDescriptor, OpId, ReplicaId, RoutingTable, ShardedOpId,
};

use crate::error::WireError;

/// Maximum number of elements accepted for any length-prefixed collection.
/// Guards decoders against hostile or corrupt length prefixes.
pub const MAX_COLLECTION_LEN: u64 = 1 << 20;

/// A type with a canonical binary wire representation.
///
/// Implementations must round-trip: `decode(encode(x)) == x`. The proptests
/// in this crate verify this for every implementation.
///
/// # Examples
///
/// ```
/// use bytes::BytesMut;
/// use esds_core::{ClientId, OpId};
/// use esds_wire::Wire;
///
/// # fn main() -> Result<(), esds_wire::WireError> {
/// let id = OpId::new(ClientId(3), 41);
/// let mut buf = BytesMut::new();
/// id.encode(&mut buf);
/// let mut bytes = buf.freeze();
/// assert_eq!(OpId::decode(&mut bytes)?, id);
/// # Ok(())
/// # }
/// ```
pub trait Wire: Sized {
    /// Appends the binary representation of `self` to `buf`.
    fn encode(&self, buf: &mut impl BufMut);

    /// Decodes a value from the front of `buf`, consuming exactly the
    /// bytes that [`encode`](Self::encode) produced.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if the buffer is truncated or malformed.
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError>;

    /// Convenience: the encoded bytes as a vector.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Convenience: decodes from a slice, requiring the whole slice to be
    /// consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed input; trailing bytes are
    /// reported as an [`WireError::InvalidTag`] on context `trailing`.
    fn from_wire_bytes(mut bytes: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode(&mut bytes)?;
        if bytes.has_remaining() {
            return Err(WireError::InvalidTag {
                context: "trailing",
                tag: bytes.chunk()[0],
            });
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

/// Writes a `u64` as a LEB128 varint (1–10 bytes).
pub fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 varint.
///
/// # Errors
///
/// [`WireError::UnexpectedEof`] on truncation, [`WireError::VarintOverflow`]
/// if the encoding exceeds 64 bits.
pub fn get_varint(buf: &mut impl Buf) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof { context: "varint" });
        }
        let byte = buf.get_u8();
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(WireError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reads one byte.
///
/// # Errors
///
/// [`WireError::UnexpectedEof`] on truncation.
pub fn get_u8(buf: &mut impl Buf, context: &'static str) -> Result<u8, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::UnexpectedEof { context });
    }
    Ok(buf.get_u8())
}

/// Reads a length prefix bounded by [`MAX_COLLECTION_LEN`].
///
/// # Errors
///
/// [`WireError::TooLarge`] if the declared length exceeds the bound.
pub fn get_len(buf: &mut impl Buf, context: &'static str) -> Result<usize, WireError> {
    let len = get_varint(buf)?;
    if len > MAX_COLLECTION_LEN {
        return Err(WireError::TooLarge {
            context,
            len,
            max: MAX_COLLECTION_LEN,
        });
    }
    Ok(len as usize)
}

impl Wire for u64 {
    fn encode(&self, buf: &mut impl BufMut) {
        put_varint(buf, *self);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        get_varint(buf)
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut impl BufMut) {
        put_varint(buf, u64::from(*self));
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let v = get_varint(buf)?;
        u32::try_from(v).map_err(|_| WireError::TooLarge {
            context: "u32",
            len: v,
            max: u64::from(u32::MAX),
        })
    }
}

impl Wire for i64 {
    /// Zigzag-encoded so small negative numbers stay short.
    fn encode(&self, buf: &mut impl BufMut) {
        let zz = ((self << 1) ^ (self >> 63)) as u64;
        put_varint(buf, zz);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let zz = get_varint(buf)?;
        Ok(((zz >> 1) as i64) ^ -((zz & 1) as i64))
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(u8::from(*self));
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        match get_u8(buf, "bool")? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag {
                context: "bool",
                tag,
            }),
        }
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut impl BufMut) {
        put_varint(buf, self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let len = get_len(buf, "string")?;
        if buf.remaining() < len {
            return Err(WireError::UnexpectedEof { context: "string" });
        }
        let mut bytes = vec![0u8; len];
        buf.copy_to_slice(&mut bytes);
        String::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        match get_u8(buf, "Option")? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            tag => Err(WireError::InvalidTag {
                context: "Option",
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut impl BufMut) {
        put_varint(buf, self.len() as u64);
        for v in self {
            v.encode(buf);
        }
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let len = get_len(buf, "Vec")?;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn encode(&self, buf: &mut impl BufMut) {
        put_varint(buf, self.len() as u64);
        for v in self {
            v.encode(buf);
        }
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let len = get_len(buf, "BTreeSet")?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, buf: &mut impl BufMut) {
        put_varint(buf, self.len() as u64);
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let len = get_len(buf, "BTreeMap")?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(buf)?;
            let v = V::decode(buf)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut impl BufMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

// ---------------------------------------------------------------------
// Core vocabulary
// ---------------------------------------------------------------------

impl Wire for ClientId {
    fn encode(&self, buf: &mut impl BufMut) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok(ClientId(u32::decode(buf)?))
    }
}

impl Wire for ReplicaId {
    fn encode(&self, buf: &mut impl BufMut) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok(ReplicaId(u32::decode(buf)?))
    }
}

impl Wire for OpId {
    fn encode(&self, buf: &mut impl BufMut) {
        self.client().encode(buf);
        self.seq().encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let client = ClientId::decode(buf)?;
        let seq = u64::decode(buf)?;
        Ok(OpId::new(client, seq))
    }
}

impl Wire for Label {
    fn encode(&self, buf: &mut impl BufMut) {
        self.counter.encode(buf);
        self.replica.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let counter = u64::decode(buf)?;
        let replica = ReplicaId::decode(buf)?;
        Ok(Label::new(counter, replica))
    }
}

impl Wire for LabelSlot {
    fn encode(&self, buf: &mut impl BufMut) {
        match self.finite() {
            None => buf.put_u8(0),
            Some(l) => {
                buf.put_u8(1);
                l.encode(buf);
            }
        }
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        match get_u8(buf, "LabelSlot")? {
            0 => Ok(LabelSlot::Inf),
            1 => Ok(LabelSlot::from(Label::decode(buf)?)),
            tag => Err(WireError::InvalidTag {
                context: "LabelSlot",
                tag,
            }),
        }
    }
}

impl Wire for IdSummary {
    fn encode(&self, buf: &mut impl BufMut) {
        let wm: Vec<(ClientId, u64)> = self.watermarks().collect();
        wm.encode(buf);
        let ex: Vec<OpId> = self.exceptions().collect();
        ex.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let wm: Vec<(ClientId, u64)> = Vec::decode(buf)?;
        let ex: Vec<OpId> = Vec::decode(buf)?;
        let mut s = IdSummary::new();
        for (c, w) in wm {
            // Watermark w covers sequences 0..w. Bounded like a collection
            // length: a receiver's summary difference walks the gap
            // between two watermarks.
            if w > MAX_COLLECTION_LEN {
                return Err(WireError::TooLarge {
                    context: "IdSummary watermark",
                    len: w,
                    max: MAX_COLLECTION_LEN,
                });
            }
            s.raise_watermark(c, w);
        }
        s.extend(ex);
        Ok(s)
    }
}

impl Wire for ShardedOpId {
    fn encode(&self, buf: &mut impl BufMut) {
        self.client().encode(buf);
        self.seq().encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let client = ClientId::decode(buf)?;
        let seq = u64::decode(buf)?;
        Ok(ShardedOpId::new(client, seq))
    }
}

impl Wire for RoutingTable {
    fn encode(&self, buf: &mut impl BufMut) {
        self.version().encode(buf);
        self.n_shards().encode(buf);
        // Same bytes as Vec<u32>::encode, without cloning the slot map.
        let owners = self.slot_owners();
        put_varint(buf, owners.len() as u64);
        for s in owners {
            s.encode(buf);
        }
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let version = u64::decode(buf)?;
        let n_shards = u32::decode(buf)?;
        let slots: Vec<u32> = Vec::decode(buf)?;
        RoutingTable::from_parts(version, n_shards, slots).map_err(|_| WireError::InvalidTag {
            context: "RoutingTable",
            tag: 0,
        })
    }
}

impl<O: Wire> Wire for OpDescriptor<O> {
    fn encode(&self, buf: &mut impl BufMut) {
        self.id.encode(buf);
        self.op.encode(buf);
        self.prev.encode(buf);
        self.strict.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let id = OpId::decode(buf)?;
        let op = O::decode(buf)?;
        let prev: BTreeSet<OpId> = BTreeSet::decode(buf)?;
        let strict = bool::decode(buf)?;
        Ok(OpDescriptor::new(id, op)
            .with_prev(prev)
            .with_strict(strict))
    }
}

// ---------------------------------------------------------------------
// Datatype operators and values
// ---------------------------------------------------------------------

/// Implements [`Wire`] for a unit-less enum-like codec by matching tags.
/// (Macro kept local: each datatype has bespoke payloads.)
macro_rules! tagged {
    ($buf:expr, $tag:expr) => {
        $buf.put_u8($tag)
    };
}

mod datatype_impls {
    use super::*;
    use esds_datatypes::{
        BankOp, BankValue, CounterOp, CounterValue, DirectoryOp, DirectoryValue, GSetOp, GSetValue,
        KvOp, KvValue, LogOp, LogValue, QueueOp, QueueValue, RegisterOp, RegisterValue,
    };

    impl Wire for CounterOp {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                CounterOp::Increment(d) => {
                    tagged!(buf, 0);
                    d.encode(buf);
                }
                CounterOp::Double => tagged!(buf, 1),
                CounterOp::Read => tagged!(buf, 2),
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "CounterOp")? {
                0 => Ok(CounterOp::Increment(i64::decode(buf)?)),
                1 => Ok(CounterOp::Double),
                2 => Ok(CounterOp::Read),
                tag => Err(WireError::InvalidTag {
                    context: "CounterOp",
                    tag,
                }),
            }
        }
    }

    impl Wire for CounterValue {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                CounterValue::Ack => tagged!(buf, 0),
                CounterValue::Count(v) => {
                    tagged!(buf, 1);
                    v.encode(buf);
                }
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "CounterValue")? {
                0 => Ok(CounterValue::Ack),
                1 => Ok(CounterValue::Count(i64::decode(buf)?)),
                tag => Err(WireError::InvalidTag {
                    context: "CounterValue",
                    tag,
                }),
            }
        }
    }

    impl Wire for RegisterOp {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                RegisterOp::Write(v) => {
                    tagged!(buf, 0);
                    v.encode(buf);
                }
                RegisterOp::Read => tagged!(buf, 1),
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "RegisterOp")? {
                0 => Ok(RegisterOp::Write(i64::decode(buf)?)),
                1 => Ok(RegisterOp::Read),
                tag => Err(WireError::InvalidTag {
                    context: "RegisterOp",
                    tag,
                }),
            }
        }
    }

    impl Wire for RegisterValue {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                RegisterValue::Ack => tagged!(buf, 0),
                RegisterValue::Value(v) => {
                    tagged!(buf, 1);
                    v.encode(buf);
                }
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "RegisterValue")? {
                0 => Ok(RegisterValue::Ack),
                1 => Ok(RegisterValue::Value(i64::decode(buf)?)),
                tag => Err(WireError::InvalidTag {
                    context: "RegisterValue",
                    tag,
                }),
            }
        }
    }

    impl Wire for QueueOp {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                QueueOp::Enqueue(x) => {
                    tagged!(buf, 0);
                    x.encode(buf);
                }
                QueueOp::Dequeue => tagged!(buf, 1),
                QueueOp::Peek => tagged!(buf, 2),
                QueueOp::Len => tagged!(buf, 3),
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "QueueOp")? {
                0 => Ok(QueueOp::Enqueue(i64::decode(buf)?)),
                1 => Ok(QueueOp::Dequeue),
                2 => Ok(QueueOp::Peek),
                3 => Ok(QueueOp::Len),
                tag => Err(WireError::InvalidTag {
                    context: "QueueOp",
                    tag,
                }),
            }
        }
    }

    impl Wire for QueueValue {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                QueueValue::Ack => tagged!(buf, 0),
                QueueValue::Item(x) => {
                    tagged!(buf, 1);
                    x.encode(buf);
                }
                QueueValue::Size(n) => {
                    tagged!(buf, 2);
                    n.encode(buf);
                }
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "QueueValue")? {
                0 => Ok(QueueValue::Ack),
                1 => Ok(QueueValue::Item(Option::decode(buf)?)),
                2 => Ok(QueueValue::Size(u64::decode(buf)?)),
                tag => Err(WireError::InvalidTag {
                    context: "QueueValue",
                    tag,
                }),
            }
        }
    }

    impl Wire for BankOp {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                BankOp::Deposit(a) => {
                    tagged!(buf, 0);
                    a.encode(buf);
                }
                BankOp::Withdraw(a) => {
                    tagged!(buf, 1);
                    a.encode(buf);
                }
                BankOp::Balance => tagged!(buf, 2),
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "BankOp")? {
                0 => Ok(BankOp::Deposit(u64::decode(buf)?)),
                1 => Ok(BankOp::Withdraw(u64::decode(buf)?)),
                2 => Ok(BankOp::Balance),
                tag => Err(WireError::InvalidTag {
                    context: "BankOp",
                    tag,
                }),
            }
        }
    }

    impl Wire for BankValue {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                BankValue::Ack => tagged!(buf, 0),
                BankValue::Withdrawn(ok) => {
                    tagged!(buf, 1);
                    ok.encode(buf);
                }
                BankValue::Balance(b) => {
                    tagged!(buf, 2);
                    b.encode(buf);
                }
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "BankValue")? {
                0 => Ok(BankValue::Ack),
                1 => Ok(BankValue::Withdrawn(bool::decode(buf)?)),
                2 => Ok(BankValue::Balance(u64::decode(buf)?)),
                tag => Err(WireError::InvalidTag {
                    context: "BankValue",
                    tag,
                }),
            }
        }
    }

    fn put_usize(buf: &mut impl BufMut, n: usize) {
        put_varint(buf, n as u64);
    }

    fn get_usize(buf: &mut impl Buf, context: &'static str) -> Result<usize, WireError> {
        let v = get_varint(buf)?;
        usize::try_from(v).map_err(|_| WireError::TooLarge {
            context,
            len: v,
            max: u64::MAX,
        })
    }

    impl Wire for GSetOp {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                GSetOp::Add(x) => {
                    tagged!(buf, 0);
                    x.encode(buf);
                }
                GSetOp::Contains(x) => {
                    tagged!(buf, 1);
                    x.encode(buf);
                }
                GSetOp::Size => tagged!(buf, 2),
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "GSetOp")? {
                0 => Ok(GSetOp::Add(u64::decode(buf)?)),
                1 => Ok(GSetOp::Contains(u64::decode(buf)?)),
                2 => Ok(GSetOp::Size),
                tag => Err(WireError::InvalidTag {
                    context: "GSetOp",
                    tag,
                }),
            }
        }
    }

    impl Wire for GSetValue {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                GSetValue::Ack => tagged!(buf, 0),
                GSetValue::Bool(b) => {
                    tagged!(buf, 1);
                    b.encode(buf);
                }
                GSetValue::Size(n) => {
                    tagged!(buf, 2);
                    put_usize(buf, *n);
                }
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "GSetValue")? {
                0 => Ok(GSetValue::Ack),
                1 => Ok(GSetValue::Bool(bool::decode(buf)?)),
                2 => Ok(GSetValue::Size(get_usize(buf, "GSetValue::Size")?)),
                tag => Err(WireError::InvalidTag {
                    context: "GSetValue",
                    tag,
                }),
            }
        }
    }

    impl Wire for LogOp {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                LogOp::Append(s) => {
                    tagged!(buf, 0);
                    s.encode(buf);
                }
                LogOp::Len => tagged!(buf, 1),
                LogOp::ReadAll => tagged!(buf, 2),
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "LogOp")? {
                0 => Ok(LogOp::Append(String::decode(buf)?)),
                1 => Ok(LogOp::Len),
                2 => Ok(LogOp::ReadAll),
                tag => Err(WireError::InvalidTag {
                    context: "LogOp",
                    tag,
                }),
            }
        }
    }

    impl Wire for LogValue {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                LogValue::Ack => tagged!(buf, 0),
                LogValue::Len(n) => {
                    tagged!(buf, 1);
                    put_usize(buf, *n);
                }
                LogValue::Entries(es) => {
                    tagged!(buf, 2);
                    es.encode(buf);
                }
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "LogValue")? {
                0 => Ok(LogValue::Ack),
                1 => Ok(LogValue::Len(get_usize(buf, "LogValue::Len")?)),
                2 => Ok(LogValue::Entries(Vec::decode(buf)?)),
                tag => Err(WireError::InvalidTag {
                    context: "LogValue",
                    tag,
                }),
            }
        }
    }

    impl Wire for KvOp {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                KvOp::Put(k, v) => {
                    tagged!(buf, 0);
                    k.encode(buf);
                    v.encode(buf);
                }
                KvOp::Get(k) => {
                    tagged!(buf, 1);
                    k.encode(buf);
                }
                KvOp::Remove(k) => {
                    tagged!(buf, 2);
                    k.encode(buf);
                }
                KvOp::Keys => tagged!(buf, 3),
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "KvOp")? {
                0 => Ok(KvOp::Put(String::decode(buf)?, String::decode(buf)?)),
                1 => Ok(KvOp::Get(String::decode(buf)?)),
                2 => Ok(KvOp::Remove(String::decode(buf)?)),
                3 => Ok(KvOp::Keys),
                tag => Err(WireError::InvalidTag {
                    context: "KvOp",
                    tag,
                }),
            }
        }
    }

    impl Wire for KvValue {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                KvValue::Ack => tagged!(buf, 0),
                KvValue::Value(v) => {
                    tagged!(buf, 1);
                    v.encode(buf);
                }
                KvValue::Removed(b) => {
                    tagged!(buf, 2);
                    b.encode(buf);
                }
                KvValue::Keys(ks) => {
                    tagged!(buf, 3);
                    ks.encode(buf);
                }
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "KvValue")? {
                0 => Ok(KvValue::Ack),
                1 => Ok(KvValue::Value(Option::decode(buf)?)),
                2 => Ok(KvValue::Removed(bool::decode(buf)?)),
                3 => Ok(KvValue::Keys(Vec::decode(buf)?)),
                tag => Err(WireError::InvalidTag {
                    context: "KvValue",
                    tag,
                }),
            }
        }
    }

    impl Wire for DirectoryOp {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                DirectoryOp::CreateName(n) => {
                    tagged!(buf, 0);
                    n.encode(buf);
                }
                DirectoryOp::RemoveName(n) => {
                    tagged!(buf, 1);
                    n.encode(buf);
                }
                DirectoryOp::SetAttr { name, attr, value } => {
                    tagged!(buf, 2);
                    name.encode(buf);
                    attr.encode(buf);
                    value.encode(buf);
                }
                DirectoryOp::Lookup { name, attr } => {
                    tagged!(buf, 3);
                    name.encode(buf);
                    attr.encode(buf);
                }
                DirectoryOp::ListNames => tagged!(buf, 4),
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "DirectoryOp")? {
                0 => Ok(DirectoryOp::CreateName(String::decode(buf)?)),
                1 => Ok(DirectoryOp::RemoveName(String::decode(buf)?)),
                2 => Ok(DirectoryOp::SetAttr {
                    name: String::decode(buf)?,
                    attr: String::decode(buf)?,
                    value: String::decode(buf)?,
                }),
                3 => Ok(DirectoryOp::Lookup {
                    name: String::decode(buf)?,
                    attr: String::decode(buf)?,
                }),
                4 => Ok(DirectoryOp::ListNames),
                tag => Err(WireError::InvalidTag {
                    context: "DirectoryOp",
                    tag,
                }),
            }
        }
    }

    impl Wire for DirectoryValue {
        fn encode(&self, buf: &mut impl BufMut) {
            match self {
                DirectoryValue::Created(ok) => {
                    tagged!(buf, 0);
                    ok.encode(buf);
                }
                DirectoryValue::Removed(ok) => {
                    tagged!(buf, 1);
                    ok.encode(buf);
                }
                DirectoryValue::AttrSet(ok) => {
                    tagged!(buf, 2);
                    ok.encode(buf);
                }
                DirectoryValue::Attr(v) => {
                    tagged!(buf, 3);
                    v.encode(buf);
                }
                DirectoryValue::Names(ns) => {
                    tagged!(buf, 4);
                    ns.encode(buf);
                }
            }
        }
        fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
            match get_u8(buf, "DirectoryValue")? {
                0 => Ok(DirectoryValue::Created(bool::decode(buf)?)),
                1 => Ok(DirectoryValue::Removed(bool::decode(buf)?)),
                2 => Ok(DirectoryValue::AttrSet(bool::decode(buf)?)),
                3 => Ok(DirectoryValue::Attr(Option::decode(buf)?)),
                4 => Ok(DirectoryValue::Names(Vec::decode(buf)?)),
                tag => Err(WireError::InvalidTag {
                    context: "DirectoryValue",
                    tag,
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_datatypes::{CounterOp, KvOp};
    use proptest::prelude::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_wire_bytes();
        let back = T::from_wire_bytes(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut s = &buf[..];
            assert_eq!(get_varint(&mut s).unwrap(), v);
            assert!(!s.has_remaining());
        }
    }

    #[test]
    fn varint_truncation_is_an_error() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 300);
        let mut s = &buf[..1];
        assert!(matches!(
            get_varint(&mut s),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn varint_overflow_is_an_error() {
        let bytes = [0xffu8; 11];
        let mut s = &bytes[..];
        assert_eq!(get_varint(&mut s), Err(WireError::VarintOverflow));
    }

    #[test]
    fn zigzag_i64_roundtrip_boundaries() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300] {
            roundtrip(&v);
        }
        // Small magnitudes stay short.
        assert_eq!((-1i64).to_wire_bytes().len(), 1);
    }

    #[test]
    fn core_ids_roundtrip() {
        roundtrip(&ClientId(7));
        roundtrip(&ReplicaId(2));
        roundtrip(&OpId::new(ClientId(3), u64::MAX));
        roundtrip(&Label::new(99, ReplicaId(1)));
        roundtrip(&LabelSlot::Inf);
        roundtrip(&LabelSlot::from(Label::new(0, ReplicaId(0))));
    }

    #[test]
    fn descriptor_roundtrip() {
        let d = OpDescriptor::new(OpId::new(ClientId(0), 4), CounterOp::Increment(-3))
            .with_prev([OpId::new(ClientId(0), 1), OpId::new(ClientId(2), 0)])
            .with_strict(true);
        roundtrip(&d);
    }

    #[test]
    fn summary_roundtrip() {
        let s = IdSummary::from_ids([
            OpId::new(ClientId(0), 0),
            OpId::new(ClientId(0), 1),
            OpId::new(ClientId(1), 4),
        ]);
        roundtrip(&s);
    }

    #[test]
    fn sharded_id_and_routing_table_roundtrip() {
        roundtrip(&ShardedOpId::new(ClientId(9), u64::MAX));
        let mut t = RoutingTable::uniform(3);
        t.apply(&esds_core::MigrationPlan::add_shard(&t));
        roundtrip(&t);
        // A table naming an out-of-range shard is rejected, not absorbed.
        let mut bytes = Vec::new();
        0u64.encode(&mut bytes); // version
        2u32.encode(&mut bytes); // n_shards
        vec![0u32, 7].encode(&mut bytes); // slot owned by shard 7 of 2
        assert!(RoutingTable::from_wire_bytes(&bytes).is_err());
    }

    #[test]
    fn kv_op_roundtrip() {
        roundtrip(&KvOp::put("k", "v"));
        roundtrip(&KvOp::get("k"));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = ClientId(1).to_wire_bytes();
        bytes.push(0xee);
        assert!(matches!(
            ClientId::from_wire_bytes(&bytes),
            Err(WireError::InvalidTag {
                context: "trailing",
                ..
            })
        ));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // A Vec<u64> claiming 2^40 elements must not allocate.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        assert!(matches!(
            Vec::<u64>::from_wire_bytes(&buf),
            Err(WireError::TooLarge { .. })
        ));
    }

    proptest! {
        #[test]
        fn varint_roundtrip(v: u64) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut s = &buf[..];
            prop_assert_eq!(get_varint(&mut s).unwrap(), v);
        }

        #[test]
        fn i64_roundtrip(v: i64) {
            roundtrip(&v);
        }

        #[test]
        fn string_roundtrip(s in ".{0,64}") {
            roundtrip(&s);
        }

        #[test]
        fn opid_set_roundtrip(ids in proptest::collection::btree_set((0u32..8, 0u64..100), 0..20)) {
            let set: BTreeSet<OpId> =
                ids.into_iter().map(|(c, s)| OpId::new(ClientId(c), s)).collect();
            roundtrip(&set);
        }

        #[test]
        fn summary_roundtrip_random(ids in proptest::collection::btree_set((0u32..4, 0u64..40), 0..30)) {
            let s: IdSummary =
                ids.into_iter().map(|(c, q)| OpId::new(ClientId(c), q)).collect();
            roundtrip(&s);
        }

        /// Random byte soup never panics the descriptor decoder.
        #[test]
        fn decoder_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = OpDescriptor::<CounterOp>::from_wire_bytes(&bytes);
        }
    }
}
