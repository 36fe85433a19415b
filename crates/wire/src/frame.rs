//! Length-prefixed frames.
//!
//! Layout (all integers little-endian, fixed width — framing must be
//! parseable before any varint state exists):
//!
//! ```text
//! +----+----+---------+------+-------------+----------+-------------+
//! | 'E'| 'S'| version | kind | len: u32 LE | payload… | fnv1a: u32  |
//! +----+----+---------+------+-------------+----------+-------------+
//! ```
//!
//! The checksum covers the payload only; header corruption is caught by
//! the magic/version/kind checks and the length bound. Checksums matter
//! here: the algorithm tolerates *lost* and *duplicated* messages (paper
//! §9.3) but not *corrupted* ones — a flipped bit in a label would
//! silently violate the label-uniqueness assumption, so corrupt frames
//! are surfaced as [`WireError::BadChecksum`] and dropped by transports.

use std::io::{Read, Write};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::WireError;

/// Frame magic: `b"ES"`.
pub const MAGIC: [u8; 2] = *b"ES";

/// Current protocol version.
pub const VERSION: u8 = 1;

/// Maximum payload length accepted (16 MiB).
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// What a frame carries; the tag byte after the version.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum FrameKind {
    /// A `⟨"request", x⟩` message (front end → replica).
    Request = 1,
    /// A `⟨"response", x, v⟩` message (replica → front end).
    Response = 2,
    /// A `⟨"gossip", R, D, L, S⟩` message (replica → replica).
    Gossip = 3,
    /// Connection preamble naming the sender (client or replica).
    Hello = 5,
    /// A §10.2/§10.4 batched gossip exchange (acknowledgement-pruned
    /// `R`/`L`, summary `D`/`S`, and the `known` handshake). Tag 4, the
    /// retired summarized snapshot, is no longer valid.
    GossipBatched = 6,
    /// A sharded-deployment request: a `ShardedOpId`-tagged descriptor
    /// plus the routing-table version the client routed under.
    ShardedRequest = 7,
    /// A sharded-deployment response: the answered global operation, or a
    /// version-mismatch NAK carrying the authoritative routing table.
    ShardedResponse = 8,
    /// A client's probe of a replica's stability knowledge (no payload) —
    /// the wire half of the barrier-strict gather snapshot.
    StabilityQuery = 9,
    /// The probed replica's answer: its local label order and the set it
    /// knows stable at every replica.
    StabilityInfo = 10,
    /// A client's request for the node's metrics snapshot (no payload).
    MetricsQuery = 11,
    /// The node's answer: a rendered metrics snapshot (counters,
    /// gauges, histogram summaries) of its process-wide registry.
    MetricsInfo = 12,
}

impl FrameKind {
    /// Every frame kind the protocol defines, in tag order. Exhaustive by
    /// construction — the round-trip tests iterate this so a new variant
    /// cannot be added without entering the coverage.
    pub const ALL: [FrameKind; 11] = [
        FrameKind::Request,
        FrameKind::Response,
        FrameKind::Gossip,
        FrameKind::Hello,
        FrameKind::GossipBatched,
        FrameKind::ShardedRequest,
        FrameKind::ShardedResponse,
        FrameKind::StabilityQuery,
        FrameKind::StabilityInfo,
        FrameKind::MetricsQuery,
        FrameKind::MetricsInfo,
    ];

    /// Decodes a tag byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidTag`] for a byte naming no variant.
    pub fn from_u8(tag: u8) -> Result<Self, WireError> {
        match tag {
            1 => Ok(FrameKind::Request),
            2 => Ok(FrameKind::Response),
            3 => Ok(FrameKind::Gossip),
            5 => Ok(FrameKind::Hello),
            6 => Ok(FrameKind::GossipBatched),
            7 => Ok(FrameKind::ShardedRequest),
            8 => Ok(FrameKind::ShardedResponse),
            9 => Ok(FrameKind::StabilityQuery),
            10 => Ok(FrameKind::StabilityInfo),
            11 => Ok(FrameKind::MetricsQuery),
            12 => Ok(FrameKind::MetricsInfo),
            tag => Err(WireError::InvalidTag {
                context: "FrameKind",
                tag,
            }),
        }
    }
}

/// A decoded frame: its kind and payload bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// What the payload contains.
    pub kind: FrameKind,
    /// The payload (already checksum-verified on decode).
    pub payload: Bytes,
}

/// FNV-1a over a byte slice (32-bit).
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for b in bytes {
        hash ^= u32::from(*b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Encodes a frame into a buffer.
pub fn encode_frame(kind: FrameKind, payload: &[u8], out: &mut BytesMut) {
    out.put_slice(&MAGIC);
    out.put_u8(VERSION);
    out.put_u8(kind as u8);
    out.put_u32_le(payload.len() as u32);
    out.put_slice(payload);
    out.put_u32_le(fnv1a(payload));
}

/// Attempts to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer holds an incomplete frame (read more
/// bytes and retry); consumes the frame's bytes exactly when it returns
/// `Ok(Some(_))`.
///
/// # Errors
///
/// Returns [`WireError`] for bad magic/version/kind, oversized payloads,
/// or checksum mismatches. The buffer position is unspecified after an
/// error; transports should drop the connection.
pub fn decode_frame(buf: &mut BytesMut) -> Result<Option<Frame>, WireError> {
    const HEADER: usize = 2 + 1 + 1 + 4;
    if buf.len() < HEADER {
        return Ok(None);
    }
    let magic = [buf[0], buf[1]];
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    if buf[2] != VERSION {
        return Err(WireError::BadVersion { found: buf[2] });
    }
    let kind = FrameKind::from_u8(buf[3])?;
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::TooLarge {
            context: "frame payload",
            len: u64::from(len),
            max: u64::from(MAX_FRAME_LEN),
        });
    }
    let total = HEADER + len as usize + 4;
    if buf.len() < total {
        return Ok(None);
    }
    buf.advance(HEADER);
    let payload = buf.split_to(len as usize).freeze();
    let declared = buf.get_u32_le();
    let computed = fnv1a(&payload);
    if declared != computed {
        return Err(WireError::BadChecksum { declared, computed });
    }
    Ok(Some(Frame { kind, payload }))
}

/// Writes one frame to a blocking writer.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> std::io::Result<()> {
    let mut buf = BytesMut::with_capacity(payload.len() + 12);
    encode_frame(kind, payload, &mut buf);
    w.write_all(&buf)
}

/// Reads one frame from a blocking reader (e.g. a `TcpStream`).
///
/// # Errors
///
/// Returns `Ok(None)` on clean EOF at a frame boundary; wire errors are
/// converted to `io::ErrorKind::InvalidData`.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Frame>> {
    let mut header = [0u8; 8];
    // Clean EOF only if the very first byte is missing.
    match r.read(&mut header[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    r.read_exact(&mut header[1..])?;
    let mut buf = BytesMut::from(&header[..]);
    let magic = [buf[0], buf[1]];
    if magic != MAGIC {
        return Err(invalid(WireError::BadMagic { found: magic }));
    }
    if buf[2] != VERSION {
        return Err(invalid(WireError::BadVersion { found: buf[2] }));
    }
    let kind = FrameKind::from_u8(buf[3]).map_err(invalid)?;
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len > MAX_FRAME_LEN {
        return Err(invalid(WireError::TooLarge {
            context: "frame payload",
            len: u64::from(len),
            max: u64::from(MAX_FRAME_LEN),
        }));
    }
    buf.clear();
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut check = [0u8; 4];
    r.read_exact(&mut check)?;
    let declared = u32::from_le_bytes(check);
    let computed = fnv1a(&payload);
    if declared != computed {
        return Err(invalid(WireError::BadChecksum { declared, computed }));
    }
    Ok(Some(Frame {
        kind,
        payload: Bytes::from(payload),
    }))
}

fn invalid(e: WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_buffer() {
        let mut buf = BytesMut::new();
        encode_frame(FrameKind::Gossip, b"hello", &mut buf);
        encode_frame(FrameKind::Request, b"", &mut buf);
        let f1 = decode_frame(&mut buf).unwrap().unwrap();
        assert_eq!(f1.kind, FrameKind::Gossip);
        assert_eq!(&f1.payload[..], b"hello");
        let f2 = decode_frame(&mut buf).unwrap().unwrap();
        assert_eq!(f2.kind, FrameKind::Request);
        assert!(f2.payload.is_empty());
        assert!(decode_frame(&mut buf).unwrap().is_none());
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut full = BytesMut::new();
        encode_frame(FrameKind::Response, b"abc", &mut full);
        for cut in 0..full.len() {
            let mut partial = BytesMut::from(&full[..cut]);
            assert_eq!(decode_frame(&mut partial).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut buf = BytesMut::new();
        encode_frame(FrameKind::Gossip, b"payload", &mut buf);
        let idx = 8 + 3; // inside the payload
        buf[idx] ^= 0x40;
        assert!(matches!(
            decode_frame(&mut buf),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = BytesMut::new();
        encode_frame(FrameKind::Gossip, b"x", &mut buf);
        buf[0] = b'X';
        assert!(matches!(
            decode_frame(&mut buf),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn bad_version_detected() {
        let mut buf = BytesMut::new();
        encode_frame(FrameKind::Gossip, b"x", &mut buf);
        buf[2] = 99;
        assert!(matches!(
            decode_frame(&mut buf),
            Err(WireError::BadVersion { found: 99 })
        ));
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut buf = BytesMut::new();
        buf.put_slice(&MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(FrameKind::Gossip as u8);
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            decode_frame(&mut buf),
            Err(WireError::TooLarge { .. })
        ));
    }

    #[test]
    fn io_reader_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Hello, b"r0").unwrap();
        write_frame(&mut wire, FrameKind::Gossip, b"g").unwrap();
        let mut r = &wire[..];
        let f1 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!((f1.kind, &f1.payload[..]), (FrameKind::Hello, &b"r0"[..]));
        let f2 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(f2.kind, FrameKind::Gossip);
        // Clean EOF at the boundary.
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn io_reader_rejects_corruption() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Gossip, b"payload").unwrap();
        wire[10] ^= 1;
        let mut r = &wire[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_kind_all_is_exhaustive() {
        // Every listed kind round-trips through its tag…
        for k in FrameKind::ALL {
            assert_eq!(FrameKind::from_u8(k as u8).unwrap(), k);
        }
        // …and no tag outside the list decodes, so ALL really is the
        // whole protocol.
        let tags: std::collections::BTreeSet<u8> =
            FrameKind::ALL.iter().map(|k| *k as u8).collect();
        for t in 0..=255u8 {
            assert_eq!(FrameKind::from_u8(t).is_ok(), tags.contains(&t), "tag {t}");
        }
    }

    #[test]
    fn fnv1a_reference_vectors() {
        // Standard FNV-1a 32-bit test vectors.
        assert_eq!(fnv1a(b""), 0x811c_9dc5);
        assert_eq!(fnv1a(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a(b"foobar"), 0xbf9c_f968);
    }
}
