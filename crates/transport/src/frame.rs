//! Length-prefixed framing with per-channel multiplexing.
//!
//! Wire format of one frame:
//!
//! ```text
//! [len: u32 LE][channel: u8][payload][crc: u32 LE]
//! ```
//!
//! `len` counts everything after itself — channel byte, payload and
//! checksum — so a well-formed frame occupies `4 + len` bytes. The
//! channel byte multiplexes independent message streams (control,
//! events, actions) over one connection; see [`crate::wire`] for the
//! channel assignments and the payload encodings. The trailing CRC-32
//! (IEEE) covers `channel ‖ payload`. Corruption *inside* a frame
//! leaves the length prefix intact, so — unlike a framing violation — a
//! checksum mismatch is recoverable: the decoder skips the damaged
//! frame, counts it, and resynchronizes at the next length prefix
//! instead of killing the connection. CRC-32 detects every single-bit
//! flip (and any burst ≤ 32 bits) by construction.
//!
//! The handshake alone (see [`crate::wire`]) travels in *plain*
//! framing — the same layout without the checksum, `len >= 1` —
//! written by [`finish`] / [`encode`] and read by a [`Decoder`] before
//! [`enable_crc`](Decoder::enable_crc).
//!
//! Both directions work in place. A sender opens a frame in a buffer it
//! keeps ([`begin`]), appends the payload, and closes it
//! ([`finish_crc`]: checksum appended, length patched) — no second
//! buffer, one write. A [`Decoder`] accepts bytes in arbitrary split
//! positions (as TCP delivers them), rejects oversized or malformed
//! length prefixes *before* buffering their payload, and lends each
//! complete frame's payload out of its own buffer
//! ([`Decoder::next_frame`]). [`encode_crc`] and [`Decoder::try_next`]
//! are the same code returning owned values.

use std::ops::Range;

/// Upper bound on `len` (channel byte + payload + checksum). A peer
/// announcing a larger frame is faulty or hostile; the decoder rejects
/// the length prefix without allocating.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Bytes of the trailing CRC-32 in a checksummed frame.
pub const CRC_LEN: usize = 4;

/// Bytes of the length prefix.
const PREFIX_LEN: usize = 4;

/// The CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup
/// table, built at compile time so the crate stays dependency-free.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// One decoded frame: a channel id and its payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Which multiplexed stream the payload belongs to.
    pub channel: u8,
    /// The payload bytes (everything after the channel byte).
    pub payload: Vec<u8>,
}

/// One decoded frame whose payload still lies in the [`Decoder`]'s
/// buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// Which multiplexed stream the payload belongs to.
    pub channel: u8,
    /// The payload bytes (everything after the channel byte).
    pub payload: &'a [u8],
}

/// A malformed byte stream. Framing errors are not recoverable: the
/// stream position is lost, so the connection must be dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The announced length.
        len: usize,
    },
    /// The length prefix is zero (a frame always has a channel byte).
    Empty,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Empty => write!(f, "zero-length frame (missing channel byte)"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Opens a frame on `channel` at the end of `out`: a length placeholder
/// and the channel byte. Append the payload, then close the frame with
/// [`finish_crc`] (or [`finish`]), handing back the returned offset.
pub fn begin(out: &mut Vec<u8>, channel: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; PREFIX_LEN]);
    out.push(channel);
    start
}

/// Closes the plain frame [`begin`] opened at `start` (the offset it
/// returned): patches its length prefix.
///
/// # Errors
/// [`FrameError::Oversized`] if channel byte + payload exceeds
/// [`MAX_FRAME`]; the unfinished frame is removed from `out`.
pub fn finish(out: &mut Vec<u8>, start: usize) -> Result<(), FrameError> {
    let len = out.len() - start - PREFIX_LEN;
    match u32::try_from(len) {
        Ok(prefix) if len <= MAX_FRAME => {
            out[start..start + PREFIX_LEN].copy_from_slice(&prefix.to_le_bytes());
            Ok(())
        }
        _ => {
            out.truncate(start);
            Err(FrameError::Oversized { len })
        }
    }
}

/// Closes the checksummed frame [`begin`] opened at `start` (the
/// offset it returned): appends the CRC-32 of `channel ‖ payload` and
/// patches the length prefix, which counts it.
///
/// # Errors
/// [`FrameError::Oversized`] if channel byte + payload + checksum
/// exceeds [`MAX_FRAME`]; the unfinished frame is removed from `out`.
pub fn finish_crc(out: &mut Vec<u8>, start: usize) -> Result<(), FrameError> {
    let crc = crc32(&out[start + PREFIX_LEN..]);
    out.extend_from_slice(&crc.to_le_bytes());
    finish(out, start)
}

/// Encodes one plain frame into a fresh buffer.
///
/// # Errors
/// [`FrameError::Oversized`] if the payload (plus channel byte) exceeds
/// [`MAX_FRAME`].
pub fn encode(channel: u8, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(PREFIX_LEN + 1 + payload.len());
    let start = begin(&mut out, channel);
    out.extend_from_slice(payload);
    finish(&mut out, start)?;
    Ok(out)
}

/// Encodes one checksummed frame into a fresh buffer.
///
/// # Errors
/// [`FrameError::Oversized`] if channel byte + payload + checksum
/// exceeds [`MAX_FRAME`].
pub fn encode_crc(channel: u8, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(PREFIX_LEN + 1 + payload.len() + CRC_LEN);
    let start = begin(&mut out, channel);
    out.extend_from_slice(payload);
    finish_crc(&mut out, start)?;
    Ok(out)
}

/// An incremental frame decoder: push bytes in as they arrive, pull
/// complete frames out.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    start: usize,
    crc: bool,
    rejected: u64,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Appends newly received bytes to the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `start` is consumed.
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Switches the decoder to checksummed framing: every frame must
    /// carry a trailing CRC-32 over `channel ‖ payload`. Frames whose
    /// checksum does not verify are skipped and counted, not fatal.
    pub fn enable_crc(&mut self) {
        self.crc = true;
    }

    /// Frames discarded for checksum mismatch since construction.
    pub fn crc_rejected(&self) -> u64 {
        self.rejected
    }

    /// Consumes the next complete frame and returns its channel and
    /// where in `buf` its payload lies; `None` if more bytes are needed.
    fn advance(&mut self) -> Result<Option<(u8, Range<usize>)>, FrameError> {
        loop {
            let Some((prefix, rest)) = self.buf[self.start..].split_first_chunk() else {
                return Ok(None);
            };
            let len = u32::from_le_bytes(*prefix) as usize;
            if len == 0 {
                return Err(FrameError::Empty);
            }
            if len > MAX_FRAME {
                return Err(FrameError::Oversized { len });
            }
            if rest.len() < len {
                return Ok(None);
            }
            let at = self.start + PREFIX_LEN;
            self.start = at + len;
            let covered = if self.crc {
                // A checksummed frame needs room for the channel byte
                // and the checksum; anything shorter is corrupt by
                // definition.
                match rest[..len].split_last_chunk() {
                    Some((body, tail))
                        if !body.is_empty() && crc32(body) == u32::from_le_bytes(*tail) =>
                    {
                        body.len()
                    }
                    _ => {
                        self.rejected += 1;
                        continue;
                    }
                }
            } else {
                len
            };
            return Ok(Some((self.buf[at], at + 1..at + covered)));
        }
    }

    /// Yields the next complete frame, its payload borrowed from the
    /// decoder's buffer; `None` if more bytes are needed.
    ///
    /// In CRC mode a frame whose checksum fails verification is
    /// silently skipped (and counted via [`Decoder::crc_rejected`]);
    /// decoding resynchronizes at the next length prefix.
    ///
    /// # Errors
    /// A [`FrameError`] on a malformed length prefix; the stream is
    /// unrecoverable afterwards and the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<FrameRef<'_>>, FrameError> {
        Ok(self.advance()?.map(|(channel, at)| FrameRef {
            channel,
            payload: &self.buf[at],
        }))
    }

    /// [`next_frame`](Decoder::next_frame) with the payload copied out.
    ///
    /// # Errors
    /// As [`next_frame`](Decoder::next_frame).
    pub fn try_next(&mut self) -> Result<Option<Frame>, FrameError> {
        Ok(self.next_frame()?.map(|f| Frame {
            channel: f.channel,
            payload: f.payload.to_vec(),
        }))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_one_frame() {
        let bytes = encode(3, b"hello").expect("fits");
        let mut dec = Decoder::new();
        dec.push(&bytes);
        let f = dec.try_next().expect("well-formed").expect("complete");
        assert_eq!(
            f,
            Frame {
                channel: 3,
                payload: b"hello".to_vec()
            }
        );
        assert_eq!(dec.try_next(), Ok(None));
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let bytes = encode(0, b"").expect("fits");
        assert_eq!(bytes.len(), 5);
        let mut dec = Decoder::new();
        dec.push(&bytes);
        let f = dec.try_next().expect("well-formed").expect("complete");
        assert_eq!(f.payload, Vec::<u8>::new());
    }

    #[test]
    fn oversized_length_is_rejected_before_buffering() {
        let mut dec = Decoder::new();
        let len = (MAX_FRAME as u32 + 1).to_le_bytes();
        dec.push(&len);
        assert_eq!(
            dec.try_next(),
            Err(FrameError::Oversized { len: MAX_FRAME + 1 })
        );
        assert!(encode(0, &vec![0u8; MAX_FRAME]).is_err(), "encode agrees");
    }

    #[test]
    fn frames_append_in_place_and_an_oversized_one_is_taken_back() {
        let mut out = Vec::new();
        for payload in [&b"first"[..], b"", b"third"] {
            let start = begin(&mut out, 4);
            out.extend_from_slice(payload);
            finish_crc(&mut out, start).expect("fits");
        }
        let stream = out.clone();
        let start = begin(&mut out, 4);
        out.resize(out.len() + MAX_FRAME, 0);
        assert!(matches!(
            finish_crc(&mut out, start),
            Err(FrameError::Oversized { .. })
        ));
        assert_eq!(out, stream, "the refused frame left nothing behind");

        let mut dec = Decoder::new();
        dec.enable_crc();
        dec.push(&out);
        for payload in [&b"first"[..], b"", b"third"] {
            let f = dec.next_frame().expect("well-formed").expect("complete");
            assert_eq!((f.channel, f.payload), (4, payload));
        }
        assert_eq!(dec.next_frame(), Ok(None));
        assert_eq!(dec.crc_rejected(), 0);
    }

    #[test]
    fn zero_length_is_rejected() {
        let mut dec = Decoder::new();
        dec.push(&0u32.to_le_bytes());
        assert_eq!(dec.try_next(), Err(FrameError::Empty));
    }

    #[test]
    fn crc_round_trips_one_frame() {
        let bytes = encode_crc(2, b"payload").expect("fits");
        assert_eq!(bytes.len(), 4 + 1 + 7 + CRC_LEN);
        let mut dec = Decoder::new();
        dec.enable_crc();
        dec.push(&bytes);
        let f = dec.try_next().expect("well-formed").expect("complete");
        assert_eq!(
            f,
            Frame {
                channel: 2,
                payload: b"payload".to_vec()
            }
        );
        assert_eq!(dec.crc_rejected(), 0);
    }

    #[test]
    fn crc_rejects_every_single_bit_flip() {
        let clean = encode_crc(1, b"ordering").expect("fits");
        // Flip each bit of the frame body (channel + payload + crc);
        // the length prefix is excluded because damaging it is a
        // framing-level fault, not a payload-corruption fault.
        for byte in 4..clean.len() {
            for bit in 0..8 {
                let mut dirty = clean.clone();
                dirty[byte] ^= 1 << bit;
                let mut dec = Decoder::new();
                dec.enable_crc();
                dec.push(&dirty);
                assert_eq!(
                    dec.try_next(),
                    Ok(None),
                    "flip at byte {byte} bit {bit} must be rejected"
                );
                assert_eq!(dec.crc_rejected(), 1);
            }
        }
    }

    #[test]
    fn crc_mismatch_resyncs_to_the_next_frame() {
        let mut dirty = encode_crc(0, b"first").expect("fits");
        let last = dirty.len() - 1;
        dirty[last] ^= 0x80;
        let clean = encode_crc(0, b"second").expect("fits");
        let mut dec = Decoder::new();
        dec.enable_crc();
        dec.push(&dirty);
        dec.push(&clean);
        let f = dec.try_next().expect("recoverable").expect("complete");
        assert_eq!(f.payload, b"second".to_vec());
        assert_eq!(dec.crc_rejected(), 1);
        assert_eq!(dec.try_next(), Ok(None));
    }

    #[test]
    fn crc_frame_too_short_for_checksum_is_skipped() {
        // A plain 5-byte frame (len = 1) read by a checksumming decoder:
        // no room for the checksum, so it is counted and skipped.
        let plain = encode(7, b"").expect("fits");
        let clean = encode_crc(7, b"ok").expect("fits");
        let mut dec = Decoder::new();
        dec.enable_crc();
        dec.push(&plain);
        dec.push(&clean);
        let f = dec.try_next().expect("recoverable").expect("complete");
        assert_eq!(f.payload, b"ok".to_vec());
        assert_eq!(dec.crc_rejected(), 1);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
