//! The wire protocol spoken over a framed connection.
//!
//! Three multiplexed channels:
//!
//! - [`CH_CONTROL`] — JSON [`ControlMsg`]: handshake and shutdown, once
//!   per connection;
//! - [`CH_EVENT`] — binary [`EventMsg`]: kernel → protocol, one framed
//!   [`HostEvent`] per sequence number;
//! - [`CH_ACTION`] — binary [`ActionMsg`]: protocol → kernel, the action
//!   batch answering one event.
//!
//! Every event carries a per-node sequence number and every action
//! batch echoes it, which is what makes reconnection safe: after a
//! connection drop the kernel resends its in-flight event, and a client
//! that already processed it answers from its one-deep reply cache
//! instead of reprocessing (at-least-once delivery, exactly-once
//! processing).
//!
//! # The event and action encoding
//!
//! Two builds of the same binary need no self-describing format between
//! them, so the two hot channels carry a fixed-width little-endian
//! layout, written into and parsed out of the connection's buffers in
//! place. `u64` is 8 bytes LE (process and message ids travel as
//! `u64`); `bytes` is a `u32` LE length followed by that many raw bytes
//! — a tag or a control payload, the protocols' own bytes untouched;
//! `kind` is one byte, the variant's position in its enum's
//! declaration.
//!
//! ```text
//! EventMsg   seq:u64  now:u64  kind:u8  then
//!   0 Init
//!   1 Request        msg:u64
//!   2 UserFrame      from:u64  msg:u64  tag:bytes
//!   3 ControlFrame   from:u64  bytes:bytes
//!   4 Timer          id:u64
//!
//! ActionMsg  seq:u64  count:u32  then count × ( kind:u8  then )
//!   0 SendUser       msg:u64  tag:bytes
//!   1 ResendUser     msg:u64  tag:bytes
//!   2 Deliver        msg:u64
//!   3 SendControl    to:u64  bytes:bytes
//!   4 ResendControl  to:u64  bytes:bytes
//!   5 SetTimer       delay:u64  id:u64
//!   6 RejectFrame    from:u64  reason:u8
//!                    (0 Malformed, 1 StaleEpoch, 2 Replayed, 3 Unexpected)
//! ```
//!
//! The decoder accepts exactly what the encoder writes: an unknown
//! kind, a payload that ends early, a length or count the remaining
//! bytes cannot hold (checked before anything is reserved for it), an
//! id that does not fit `usize`, or a byte left over is `InvalidData`.
//! The serde derives on [`EventMsg`] and [`ActionMsg`] are no longer
//! the wire; the tests use the JSON they produce as an independent
//! reference for this codec.

use crate::endpoint::Conn;
use crate::frame::{self, Decoder, FrameRef};
use msgorder_runs::{MessageId, ProcessId};
use msgorder_simnet::{HostAction, HostEvent, RejectReason};
use msgorder_trace::Setup;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Channel id for [`ControlMsg`] frames.
pub const CH_CONTROL: u8 = 0;
/// Channel id for [`EventMsg`] frames (kernel → protocol).
pub const CH_EVENT: u8 = 1;
/// Channel id for [`ActionMsg`] frames (protocol → kernel).
pub const CH_ACTION: u8 = 2;

/// The wire version this build speaks — the only one. Version history:
///
/// - `1` — plain length-prefixed frames, JSON payloads;
/// - `2` — every post-handshake frame carries a trailing CRC-32 over
///   `channel ‖ payload` (see [`crate::frame`]); corrupt frames are
///   skipped and counted instead of killing the connection;
/// - `3` — [`EventMsg`] and [`ActionMsg`] travel in the fixed-width
///   binary encoding described in the [module docs](self) instead of
///   JSON;
/// - `4` — the `Welcome`'s [`Setup`] is written in trace schema v2
///   ([`msgorder_trace::TRACE_VERSION`]): every [`FaultModel`] key is
///   always present;
/// - `5` — control frames are link envelopes
///   ([`msgorder_protocols::link`], trace schema v3): a peer of an
///   older build frames them in bytes this one refuses.
///
/// [`FaultModel`]: msgorder_simnet::FaultModel
/// Both handshake messages state the speaker's version and either side
/// refuses a peer announcing any other: there is nothing to negotiate.
/// The handshake itself is JSON in plain framing; every frame after the
/// `Welcome` is checksummed.
pub const WIRE_VERSION: u16 = 5;

/// Handshake and lifecycle messages on [`CH_CONTROL`].
// `Welcome` dwarfs the other variants because it carries the full run
// `Setup`, but handshake messages are exchanged once per connection and
// never stored in bulk, so boxing would complicate serde for no win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlMsg {
    /// Client → server, first message on every (re)connection: which
    /// process this is, and the sequence number of the next event it
    /// expects (`0` on a fresh start).
    Hello {
        /// The client's process id.
        node: usize,
        /// Sequence number of the next unprocessed event.
        resume: u64,
        /// The client's [`WIRE_VERSION`].
        version: u16,
    },
    /// Server → client, answering a `Hello`: the run's full setup, from
    /// which the client instantiates its protocol and environment.
    Welcome {
        /// The run setup (also the header of the recorded trace).
        setup: Setup,
        /// The server's [`WIRE_VERSION`].
        version: u16,
    },
    /// Server → client: the run is over, disconnect.
    Bye,
}

/// One framed kernel event on [`CH_EVENT`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventMsg {
    /// Per-node sequence number, starting at 0.
    pub seq: u64,
    /// The virtual time the event executes at.
    pub now: u64,
    /// The event itself.
    pub ev: HostEvent,
}

/// The action batch answering one [`EventMsg`], on [`CH_ACTION`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionMsg {
    /// Echo of the answered event's sequence number.
    pub seq: u64,
    /// The emitted actions, in emission order.
    pub actions: Vec<HostAction>,
}

/// One decoded incoming message, told apart by its frame's channel.
// `Control` carries `Welcome`'s full `Setup`; see `ControlMsg`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, PartialEq)]
pub enum Incoming {
    /// A [`CH_CONTROL`] frame.
    Control(ControlMsg),
    /// A [`CH_EVENT`] frame.
    Event(EventMsg),
    /// A [`CH_ACTION`] frame.
    Actions(ActionMsg),
}

/// An `InvalidData` error saying `e`: what every malformed or
/// out-of-protocol message off the wire becomes.
pub(crate) fn bad_data(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_id(out: &mut Vec<u8>, id: usize) {
    // Lossless: no supported target has a `usize` wider than 64 bits.
    put_u64(out, id as u64);
}

/// A `u32` count or length, refused when `n` does not fit one.
fn put_len(out: &mut Vec<u8>, n: usize) -> io::Result<()> {
    let n = u32::try_from(n).map_err(|_| bad_data(frame::FrameError::Oversized { len: n }))?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) -> io::Result<()> {
    put_len(out, bytes.len())?;
    out.extend_from_slice(bytes);
    Ok(())
}

/// Appends the [`CH_EVENT`] payload of `msg` to `out`.
fn encode_event(msg: &EventMsg, out: &mut Vec<u8>) -> io::Result<()> {
    put_u64(out, msg.seq);
    put_u64(out, msg.now);
    match &msg.ev {
        HostEvent::Init => out.push(0),
        HostEvent::Request { msg } => {
            out.push(1);
            put_id(out, msg.0);
        }
        HostEvent::UserFrame { from, msg, tag } => {
            out.push(2);
            put_id(out, from.0);
            put_id(out, msg.0);
            put_bytes(out, tag)?;
        }
        HostEvent::ControlFrame { from, bytes } => {
            out.push(3);
            put_id(out, from.0);
            put_bytes(out, bytes)?;
        }
        HostEvent::Timer { id } => {
            out.push(4);
            put_u64(out, *id);
        }
    }
    Ok(())
}

/// Appends the [`CH_ACTION`] payload of `msg` to `out`.
fn encode_actions(msg: &ActionMsg, out: &mut Vec<u8>) -> io::Result<()> {
    put_u64(out, msg.seq);
    put_len(out, msg.actions.len())?;
    for action in &msg.actions {
        match action {
            HostAction::SendUser { msg, tag } => {
                out.push(0);
                put_id(out, msg.0);
                put_bytes(out, tag)?;
            }
            HostAction::ResendUser { msg, tag } => {
                out.push(1);
                put_id(out, msg.0);
                put_bytes(out, tag)?;
            }
            HostAction::Deliver { msg } => {
                out.push(2);
                put_id(out, msg.0);
            }
            HostAction::SendControl { to, bytes } => {
                out.push(3);
                put_id(out, to.0);
                put_bytes(out, bytes)?;
            }
            HostAction::ResendControl { to, bytes } => {
                out.push(4);
                put_id(out, to.0);
                put_bytes(out, bytes)?;
            }
            HostAction::SetTimer { delay, id } => {
                out.push(5);
                put_u64(out, *delay);
                put_u64(out, *id);
            }
            HostAction::RejectFrame { from, reason } => {
                out.push(6);
                put_id(out, from.0);
                out.push(*reason as u8);
            }
        }
    }
    Ok(())
}

/// The smallest encoded action (`Deliver`: kind byte + one `u64`) —
/// what bounds an announced action count by the bytes that remain.
const MIN_ACTION_LEN: usize = 9;

/// A cursor over one payload; every read checks what remains first.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let (head, rest) = self
            .rest
            .split_first_chunk()
            .ok_or_else(|| bad_data("payload ends early"))?;
        self.rest = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        self.array().map(u8::from_le_bytes)
    }

    fn u64(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn id(&mut self) -> io::Result<usize> {
        usize::try_from(self.u64()?).map_err(bad_data)
    }

    fn len(&mut self) -> io::Result<usize> {
        usize::try_from(self.array().map(u32::from_le_bytes)?).map_err(bad_data)
    }

    fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let len = self.len()?;
        let (head, rest) = self
            .rest
            .split_at_checked(len)
            .ok_or_else(|| bad_data("byte string longer than its payload"))?;
        self.rest = rest;
        Ok(head.to_vec())
    }

    fn finish(self) -> io::Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(bad_data(format!(
                "{} trailing byte(s) after the message",
                self.rest.len()
            )))
        }
    }
}

/// Parses one [`CH_EVENT`] payload.
fn decode_event(payload: &[u8]) -> io::Result<EventMsg> {
    let mut r = Reader { rest: payload };
    let (seq, now) = (r.u64()?, r.u64()?);
    let ev = match r.u8()? {
        0 => HostEvent::Init,
        1 => HostEvent::Request {
            msg: MessageId(r.id()?),
        },
        2 => HostEvent::UserFrame {
            from: ProcessId(r.id()?),
            msg: MessageId(r.id()?),
            tag: r.bytes()?,
        },
        3 => HostEvent::ControlFrame {
            from: ProcessId(r.id()?),
            bytes: r.bytes()?,
        },
        4 => HostEvent::Timer { id: r.u64()? },
        kind => return Err(bad_data(format!("unknown event kind {kind}"))),
    };
    r.finish()?;
    Ok(EventMsg { seq, now, ev })
}

/// Parses one [`CH_ACTION`] payload.
fn decode_actions(payload: &[u8]) -> io::Result<ActionMsg> {
    let mut r = Reader { rest: payload };
    let seq = r.u64()?;
    let count = r.len()?;
    if count > r.rest.len() / MIN_ACTION_LEN {
        return Err(bad_data(format!(
            "{count} actions cannot fit in {} byte(s)",
            r.rest.len()
        )));
    }
    let mut actions = Vec::with_capacity(count);
    for _ in 0..count {
        actions.push(match r.u8()? {
            0 => HostAction::SendUser {
                msg: MessageId(r.id()?),
                tag: r.bytes()?,
            },
            1 => HostAction::ResendUser {
                msg: MessageId(r.id()?),
                tag: r.bytes()?,
            },
            2 => HostAction::Deliver {
                msg: MessageId(r.id()?),
            },
            3 => HostAction::SendControl {
                to: ProcessId(r.id()?),
                bytes: r.bytes()?,
            },
            4 => HostAction::ResendControl {
                to: ProcessId(r.id()?),
                bytes: r.bytes()?,
            },
            5 => HostAction::SetTimer {
                delay: r.u64()?,
                id: r.u64()?,
            },
            6 => HostAction::RejectFrame {
                from: ProcessId(r.id()?),
                reason: {
                    let reason = r.u8()?;
                    *RejectReason::ALL
                        .get(usize::from(reason))
                        .ok_or_else(|| bad_data(format!("unknown reject reason {reason}")))?
                },
            },
            kind => return Err(bad_data(format!("unknown action kind {kind}"))),
        });
    }
    r.finish()?;
    Ok(ActionMsg { seq, actions })
}

/// Decodes one frame by its channel, straight from the decoder's
/// buffer.
fn decode(frame: FrameRef<'_>) -> io::Result<Incoming> {
    match frame.channel {
        CH_CONTROL => serde_json::from_slice(frame.payload)
            .map(Incoming::Control)
            .map_err(bad_data),
        CH_EVENT => decode_event(frame.payload).map(Incoming::Event),
        CH_ACTION => decode_actions(frame.payload).map(Incoming::Actions),
        other => Err(bad_data(format!("unexpected channel {other}"))),
    }
}

/// A connection, its incremental frame decoder and one reused outgoing
/// buffer: typed send/receive of the wire messages. A frame is encoded
/// in place in the buffer and leaves in one write; an incoming payload
/// is parsed where the decoder holds it.
#[derive(Debug)]
pub struct FramedConn {
    conn: Conn,
    decoder: Decoder,
    out: Vec<u8>,
    crc: bool,
    chaos: Option<WireChaos>,
}

/// Deterministic corruption injector for loopback chaos runs: before
/// selected frames, an extra copy with one bit flipped inside the CRC-
/// covered region is written, exercising the receiver's reject-and-
/// resync path without disturbing the genuine traffic.
#[derive(Debug)]
struct WireChaos {
    state: u64,
    injected: u64,
}

impl WireChaos {
    fn next(&mut self) -> u64 {
        // SplitMix64, same generator the chaos sweep uses.
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl FramedConn {
    /// Wraps an established connection, in the plain framing the
    /// handshake uses.
    pub fn new(conn: Conn) -> FramedConn {
        FramedConn {
            conn,
            decoder: Decoder::new(),
            out: Vec::new(),
            crc: false,
            chaos: None,
        }
    }

    /// The underlying connection (for socket options).
    pub fn conn(&self) -> &Conn {
        &self.conn
    }

    /// Switches both directions to checksummed framing: outgoing frames
    /// gain a CRC-32, incoming frames are verified (mismatches skipped
    /// and counted). Both sides call it once the `Welcome` has passed.
    pub fn enable_crc(&mut self) {
        self.crc = true;
        self.decoder.enable_crc();
    }

    /// Incoming frames discarded for checksum mismatch.
    pub fn crc_rejected(&self) -> u64 {
        self.decoder.crc_rejected()
    }

    /// Arms deterministic wire chaos: the first outgoing checksummed
    /// frame, and roughly a quarter of later ones, is preceded by a
    /// copy with one bit flipped in its CRC-covered region.
    pub fn enable_chaos(&mut self, seed: u64) {
        self.chaos = Some(WireChaos {
            state: seed,
            injected: 0,
        });
    }

    /// Corrupt frame copies injected so far by wire chaos.
    pub fn chaos_injected(&self) -> u64 {
        self.chaos.as_ref().map_or(0, |c| c.injected)
    }

    /// Writes `msg` as one JSON frame on [`CH_CONTROL`].
    ///
    /// # Errors
    /// Serialization failures surface as `InvalidData`; otherwise the
    /// underlying write error.
    pub fn send_control(&mut self, msg: &ControlMsg) -> io::Result<()> {
        let sent = self.send_with(CH_CONTROL, |out| {
            out.extend_from_slice(&serde_json::to_vec(msg).map_err(bad_data)?);
            Ok(())
        });
        // A `Welcome` carries the whole workload: do not hold a buffer
        // that size for the life of the connection.
        self.out = Vec::new();
        sent
    }

    /// Writes `msg` as one frame on [`CH_EVENT`].
    ///
    /// # Errors
    /// `InvalidData` when the frame would exceed
    /// [`MAX_FRAME`](frame::MAX_FRAME); otherwise the underlying write
    /// error.
    pub fn send_event(&mut self, msg: &EventMsg) -> io::Result<()> {
        self.send_with(CH_EVENT, |out| encode_event(msg, out))
    }

    /// Writes `msg` as one frame on [`CH_ACTION`].
    ///
    /// # Errors
    /// As [`send_event`](FramedConn::send_event).
    pub fn send_actions(&mut self, msg: &ActionMsg) -> io::Result<()> {
        self.send_with(CH_ACTION, |out| encode_actions(msg, out))
    }

    /// Builds one frame in the outgoing buffer — header, the payload
    /// `encode` appends, checksum — and writes it.
    fn send_with(
        &mut self,
        channel: u8,
        encode: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
    ) -> io::Result<()> {
        self.out.clear();
        let start = frame::begin(&mut self.out, channel);
        encode(&mut self.out)?;
        if self.crc {
            frame::finish_crc(&mut self.out, start).map_err(bad_data)?;
            if let Some(chaos) = self.chaos.as_mut() {
                let roll = chaos.next();
                if chaos.injected == 0 || roll & 3 == 0 {
                    // Flip one bit past the length prefix so the copy
                    // stays a well-framed, checksum-invalid frame.
                    let body = self.out.len() - 4;
                    let bit = chaos.next() as usize % (body * 8);
                    let mut dirty = self.out.clone();
                    dirty[4 + bit / 8] ^= 1 << (bit % 8);
                    chaos.injected += 1;
                    self.conn.write_all(&dirty)?;
                }
            }
        } else {
            frame::finish(&mut self.out, start).map_err(bad_data)?;
        }
        self.conn.write_all(&self.out)?;
        self.conn.flush()
    }

    /// Blocks until one complete frame arrives and decodes it by its
    /// channel.
    ///
    /// # Errors
    /// `UnexpectedEof` when the peer closed mid-stream; `InvalidData`
    /// on a framing violation, an unknown channel or a payload that
    /// does not decode; otherwise the underlying read error.
    pub fn recv(&mut self) -> io::Result<Incoming> {
        loop {
            if let Some(frame) = self.decoder.next_frame().map_err(bad_data)? {
                return decode(frame);
            }
            let mut buf = [0u8; 8192];
            let n = self.conn.read(&mut buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed the connection",
                ));
            }
            self.decoder.push(&buf[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgorder_protocols::ProtocolKind;
    use msgorder_simnet::{
        FaultModel, HostDriver, HostError, InProcessHost, LatencyModel, RealtimeKernel, Workload,
    };
    use msgorder_trace::Recorder;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::mem::discriminant;

    /// Records every event/action pair a live session exchanges, in the
    /// wire's own message types.
    struct Capture {
        inner: InProcessHost,
        seqs: Vec<u64>,
        events: Vec<EventMsg>,
        actions: Vec<ActionMsg>,
    }

    impl HostDriver for Capture {
        fn dispatch(
            &mut self,
            node: usize,
            ev: HostEvent,
            now: u64,
        ) -> Result<Vec<HostAction>, HostError> {
            let seq = self.seqs[node];
            self.seqs[node] += 1;
            self.events.push(EventMsg {
                seq,
                now,
                ev: ev.clone(),
            });
            let actions = self.inner.dispatch(node, ev, now)?;
            self.actions.push(ActionMsg {
                seq,
                actions: actions.clone(),
            });
            Ok(actions)
        }
    }

    /// One message per variant no fault-free session emits, at the
    /// extremes of every field.
    fn hand_built() -> (Vec<EventMsg>, Vec<ActionMsg>) {
        let (far, last) = (ProcessId(usize::MAX), MessageId(usize::MAX));
        let tag = vec![0x00, 0xff, b'"', b'\n', 0x80];
        let events = [
            HostEvent::Init,
            HostEvent::Request { msg: last },
            HostEvent::UserFrame {
                from: far,
                msg: last,
                tag: tag.clone(),
            },
            HostEvent::UserFrame {
                from: ProcessId(0),
                msg: MessageId(0),
                tag: Vec::new(),
            },
            HostEvent::ControlFrame {
                from: far,
                bytes: tag.clone(),
            },
            HostEvent::Timer { id: u64::MAX },
        ]
        .into_iter()
        .map(|ev| EventMsg {
            seq: u64::MAX,
            now: u64::MAX - 1,
            ev,
        })
        .collect();
        let mut every = vec![
            HostAction::SendUser {
                msg: last,
                tag: tag.clone(),
            },
            HostAction::ResendUser {
                msg: MessageId(1),
                tag: Vec::new(),
            },
            HostAction::Deliver { msg: last },
            HostAction::SendControl {
                to: far,
                bytes: Vec::new(),
            },
            HostAction::ResendControl {
                to: ProcessId(2),
                bytes: tag,
            },
            HostAction::SetTimer {
                delay: u64::MAX,
                id: 0,
            },
        ];
        every.extend(
            RejectReason::ALL
                .iter()
                .map(|&reason| HostAction::RejectFrame { from: far, reason }),
        );
        let actions = vec![
            ActionMsg {
                seq: u64::MAX,
                actions: every,
            },
            ActionMsg {
                seq: 0,
                actions: Vec::new(),
            },
        ];
        (events, actions)
    }

    /// What every registry protocol (plain and `reliable`) says across
    /// the host boundary in a 60-message session, plus [`hand_built`].
    fn corpus() -> (Vec<EventMsg>, Vec<ActionMsg>) {
        let (mut events, mut actions) = hand_built();
        let n = 3;
        let workload = Workload::uniform_random(n, 60, 0x5eed);
        let setup = Setup {
            processes: n,
            latency: LatencyModel::Fixed(1),
            seed: 0xbeef,
            faults: FaultModel::none(),
            workload: workload.clone(),
            protocol: String::new(),
            reliable: false,
            spec: None,
            step_limit: 1_000_000,
        };
        for kind in ProtocolKind::fixed() {
            for reliable in [false, true] {
                if reliable && !kind.supports_retransmission() {
                    continue;
                }
                let mut capture = Capture {
                    inner: InProcessHost::new(n, &workload, |node| {
                        kind.instantiate_with(n, node, reliable)
                    }),
                    seqs: vec![0; n],
                    events: Vec::new(),
                    actions: Vec::new(),
                };
                let out = RealtimeKernel::new(setup.config(), &workload)
                    .with_step_limit(setup.step_limit)
                    .run(&mut capture, &mut Recorder::default());
                let r = out.outcome.expect("no protocol bug");
                assert_eq!(r.stats.delivered, 60, "{} ran to the end", kind.name());
                events.append(&mut capture.events);
                actions.append(&mut capture.actions);
            }
        }
        (events, actions)
    }

    fn event_bytes(msg: &EventMsg) -> Vec<u8> {
        let mut out = Vec::new();
        encode_event(msg, &mut out).expect("encodes");
        out
    }

    fn action_bytes(msg: &ActionMsg) -> Vec<u8> {
        let mut out = Vec::new();
        encode_actions(msg, &mut out).expect("encodes");
        out
    }

    /// Every strict prefix and every one-byte extension of `bytes` must
    /// be refused.
    fn assert_exact<T: std::fmt::Debug>(bytes: &[u8], decode: fn(&[u8]) -> io::Result<T>) {
        for cut in 0..bytes.len() {
            let e = decode(&bytes[..cut]).expect_err("a strict prefix must not decode");
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        }
        for extra in [0x00, 0x02, 0xff] {
            let longer = [bytes, &[extra]].concat();
            let e = decode(&longer).expect_err("a trailing byte must not decode");
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        }
    }

    /// The codec against the derived JSON, which shares no code with it:
    /// both must reproduce every message of the corpus, and the binary
    /// form must be exact — no prefix and no extension of it decodes.
    #[test]
    fn codec_agrees_with_the_derived_json_on_every_registry_protocol() {
        let (events, actions) = corpus();
        assert!(
            events.len() > 2_000,
            "one event per dispatch of 11 sessions"
        );
        for m in &events {
            let bytes = event_bytes(m);
            assert_eq!(&decode_event(&bytes).expect("decodes"), m);
            let json = serde_json::to_vec(m).expect("serializes");
            assert_eq!(
                &serde_json::from_slice::<EventMsg>(&json).expect("parses"),
                m
            );
            assert_exact(&bytes, decode_event);
        }
        for m in &actions {
            let bytes = action_bytes(m);
            assert_eq!(&decode_actions(&bytes).expect("decodes"), m);
            let json = serde_json::to_vec(m).expect("serializes");
            assert_eq!(
                &serde_json::from_slice::<ActionMsg>(&json).expect("parses"),
                m
            );
            assert_exact(&bytes, decode_actions);
        }
        // The corpus exercises every arm of both matches.
        let kinds: HashSet<_> = events.iter().map(|m| discriminant(&m.ev)).collect();
        assert_eq!(kinds.len(), 5, "every HostEvent variant occurs");
        let all = || actions.iter().flat_map(|m| &m.actions);
        let kinds: HashSet<_> = all().map(discriminant).collect();
        assert_eq!(kinds.len(), 7, "every HostAction variant occurs");
        for reason in RejectReason::ALL {
            assert!(
                all().any(
                    |a| matches!(a, HostAction::RejectFrame { reason: r, .. } if *r == reason)
                ),
                "{reason:?} occurs"
            );
        }
    }

    /// A count or length the remaining bytes cannot hold is refused
    /// before anything is reserved for it: reserving for `u32::MAX`
    /// actions first would ask the allocator for hundreds of gigabytes
    /// and abort this test.
    #[test]
    fn hostile_counts_and_lengths_are_refused_before_reserving() {
        let mut batch = 7u64.to_le_bytes().to_vec();
        batch.extend_from_slice(&u32::MAX.to_le_bytes());
        batch.extend_from_slice(&[2; 64]);
        assert!(decode_actions(&batch).is_err(), "action count");

        // One `Deliver` announced, nine bytes present: the count check
        // itself passes at the boundary.
        let mut one = 7u64.to_le_bytes().to_vec();
        one.extend_from_slice(&1u32.to_le_bytes());
        one.push(2);
        one.extend_from_slice(&5u64.to_le_bytes());
        assert_eq!(decode_actions(&one).expect("decodes").actions.len(), 1);
        one[8] = 2; // two announced, room for one
        assert!(decode_actions(&one).is_err(), "count one past the bytes");

        let (events, actions) = hand_built();
        let mut tagged = event_bytes(&events[2]);
        let len_at = 8 + 8 + 1 + 8 + 8;
        tagged[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_event(&tagged).is_err(), "tag length");
        let mut send = action_bytes(&actions[0]);
        let len_at = 8 + 4 + 1 + 8;
        send[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_actions(&send).is_err(), "action tag length");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes never panic either decoder, and whatever one
        /// accepts is exactly what the encoder writes for it.
        #[test]
        fn decoders_never_panic_and_accept_only_canonical_bytes(
            junk in proptest::collection::vec(0u8..=255, 0..80),
        ) {
            if let Ok(m) = decode_event(&junk) {
                prop_assert_eq!(event_bytes(&m), junk.clone());
            }
            if let Ok(m) = decode_actions(&junk) {
                prop_assert_eq!(action_bytes(&m), junk);
            }
        }

        /// The same on near-misses: a valid payload with one byte
        /// overwritten, which — unlike noise — often still decodes.
        #[test]
        fn a_mutated_payload_decodes_canonically_or_not_at_all(
            pick in 0usize..8,
            at in 0usize..10_000,
            byte in 0u8..=255,
        ) {
            let (events, actions) = hand_built();
            if let Some(m) = events.get(pick) {
                let mut bytes = event_bytes(m);
                let at = at % bytes.len();
                bytes[at] = byte;
                if let Ok(m) = decode_event(&bytes) {
                    prop_assert_eq!(event_bytes(&m), bytes);
                }
            } else {
                let mut bytes = action_bytes(&actions[pick - events.len()]);
                let at = at % bytes.len();
                bytes[at] = byte;
                if let Ok(m) = decode_actions(&bytes) {
                    prop_assert_eq!(action_bytes(&m), bytes);
                }
            }
        }
    }
}
