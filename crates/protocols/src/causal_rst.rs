//! Causal ordering by the Raynal–Schiper–Toueg matrix algorithm.
//!
//! Each process `Pi` maintains `SENT[k][l]` — its knowledge of how many
//! messages `Pk` has sent to `Pl`. A message to `Pj` is tagged with the
//! sender's matrix (after counting the message itself); `Pj` delivers it
//! once, for every `k`, it has delivered at least `M[k][j]` messages
//! from `Pk` (one fewer for the sender, whose count includes the message
//! in flight). This is the tagged protocol cited in Theorem 1.2: it
//! implements exactly `X_co`.
//!
//! Every matrix lives in a flat row-major slab of `n·n` words — `SENT`
//! in one, the matrices of buffered arrivals back to back in another —
//! and the tag is written from, and parsed onto, those slabs directly
//! (DESIGN.md §14). The only allocation per message is the tag buffer
//! the host takes ownership of.

use crate::reliable::ReliableLink;
use msgorder_poset::words;
use msgorder_runs::{MessageId, ProcessId};
use msgorder_simnet::{Ctx, Protocol, RejectReason};

/// The RST causal-ordering protocol (one instance per process).
#[derive(Debug, Clone, Hash)]
pub struct CausalRst {
    n: usize,
    /// `SENT`, row-major: `SENT[k][l]` is `sent[k * n + l]`.
    sent: Vec<u64>,
    /// Messages delivered here, per sender.
    delivered_from: Vec<u64>,
    /// Buffered arrivals, in arrival order: (sender, message).
    pending: Vec<(usize, MessageId)>,
    /// The matrices of `pending`, back to back: entry `i`'s occupies
    /// `parked[i * n * n..][..n * n]`. Never holds anything else, so
    /// equal states hash equal.
    parked: Vec<u64>,
    /// Ack/retransmission layer for lossy networks, if enabled.
    link: Option<ReliableLink>,
}

impl CausalRst {
    /// A new instance for a system of `n` processes (assumes a lossless
    /// network).
    pub fn new(n: usize) -> Self {
        CausalRst {
            n,
            sent: vec![0; n * n],
            delivered_from: vec![0; n],
            pending: Vec::new(),
            parked: Vec::new(),
            link: None,
        }
    }

    /// An instance that retransmits lost frames until acknowledged —
    /// survives `FaultModel` loss and duplication.
    pub fn reliable(n: usize) -> Self {
        CausalRst {
            link: Some(ReliableLink::new()),
            ..CausalRst::new(n)
        }
    }

    fn deliverable(&self, me: usize, idx: usize) -> bool {
        let from = self.pending[idx].0;
        let stride = self.n * self.n;
        let m = &self.parked[idx * stride..][..stride];
        (0..self.n).all(|k| {
            let need = if k == from {
                m[k * self.n + me].saturating_sub(1)
            } else {
                m[k * self.n + me]
            };
            self.delivered_from[k] >= need
        })
    }

    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.node().0;
        let stride = self.n * self.n;
        while let Some(idx) = (0..self.pending.len()).find(|&idx| self.deliverable(me, idx)) {
            let (from, msg) = self.pending.remove(idx);
            ctx.deliver(msg);
            self.delivered_from[from] += 1;
            let at = idx * stride;
            words::merge_in_place(&mut self.sent, &self.parked[at..at + stride]);
            self.parked.copy_within(at + stride.., at);
            self.parked.truncate(self.parked.len() - stride);
        }
    }
}

impl Protocol for CausalRst {
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        let me = ctx.node().0;
        let dst = ctx.meta(msg).dst.0;
        // Through the row slice: an out-of-range `dst` must fail here,
        // not count into another row.
        self.sent[me * self.n..][..self.n][dst] += 1;
        let tag = encode_tag(&self.sent, self.n);
        match &mut self.link {
            Some(link) => link.send_user(ctx, msg, tag),
            None => ctx.send_user(msg, tag),
        }
    }

    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId, tag: Vec<u8>) {
        if let Some(link) = &mut self.link {
            link.ack_user(ctx, from, msg);
        }
        // Undecodable bytes or a matrix that is not n × n (the delivery
        // check reads `m[k][me]` for every k) are adversarial — reject
        // them structurally instead of panicking. The matrix is parsed
        // onto the end of the arena, where it stays if it has to wait.
        let mark = self.parked.len();
        if decode_tag(&tag, self.n, &mut self.parked).is_none() {
            self.parked.truncate(mark);
            ctx.reject_frame(from, RejectReason::Malformed);
            return;
        }
        self.pending.push((from.0, msg));
        self.drain(ctx);
    }

    fn on_control_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, bytes: Vec<u8>) {
        // RST sends no control traffic of its own: everything arriving
        // here is link bookkeeping (user-frame acks).
        if let Some(link) = &mut self.link {
            link.on_control(ctx, from, bytes);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        if let Some(link) = &mut self.link {
            link.on_timer(ctx, id);
        }
    }
}

// ---------------------------------------------------------------------
// tag codec
// ---------------------------------------------------------------------
//
// The tag is the JSON object `{"sent":[[…],…]}`. Wire records carry tag
// lengths, so run fingerprints, golden traces and `Stats::tag_bytes`
// depend on every byte: the format stays JSON until wire v2 replaces it
// everywhere at once. The codec below reads and writes only that one
// shape; `tests` holds it to a general JSON serializer on everything the
// system can put in a tag — every encoding, with at most one bit flipped.

/// Decimal digits of `v`.
fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[at..]);
}

/// Renders the row-major `n × n` matrix `sent` as `{"sent":[[…],…]}`
/// into a buffer of exactly the right size.
fn encode_tag(sent: &[u64], n: usize) -> Vec<u8> {
    // `{"sent":[` and `}` are 10 bytes; every row opens with `[`, and
    // every row and every counter is followed by exactly one byte (a
    // comma or the bracket closing its list).
    let digits: usize = sent.iter().map(|&v| decimal_len(v)).sum();
    let mut out = Vec::with_capacity(10 + 2 * n + n * n + digits);
    out.extend_from_slice(br#"{"sent":["#);
    for k in 0..n {
        if k > 0 {
            out.push(b',');
        }
        out.push(b'[');
        for l in 0..n {
            if l > 0 {
                out.push(b',');
            }
            push_decimal(&mut out, sent[k * n + l]);
        }
        out.push(b']');
    }
    out.extend_from_slice(b"]}");
    out
}

/// A cursor over borrowed tag bytes. Between tokens it skips the four
/// JSON whitespace bytes, as the general parser it replaces did.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// Consumes `token`, after any whitespace.
    fn eat(&mut self, token: &[u8]) -> Option<()> {
        self.skip_ws();
        if !self.bytes[self.pos..].starts_with(token) {
            return None;
        }
        self.pos += token.len();
        Some(())
    }

    /// Consumes a non-empty digit run, after any whitespace; leading
    /// zeros are fine, a value beyond `u64` is not.
    fn number(&mut self) -> Option<u64> {
        self.skip_ws();
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.bytes.get(self.pos) {
            v = v.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            self.pos += 1;
        }
        (self.pos > start).then_some(v)
    }
}

/// Parses a tag holding exactly an `n × n` matrix and appends it,
/// row-major, to `out`. `None` for anything else — wrong shape, wrong
/// key, negative or fractional counters, trailing bytes — in which case
/// `out` may have grown by a partial matrix the caller truncates away.
fn decode_tag(bytes: &[u8], n: usize, out: &mut Vec<u64>) -> Option<()> {
    let mut c = Cursor { bytes, pos: 0 };
    c.eat(b"{")?;
    c.eat(br#""sent""#)?;
    c.eat(b":")?;
    c.eat(b"[")?;
    for k in 0..n {
        if k > 0 {
            c.eat(b",")?;
        }
        c.eat(b"[")?;
        for l in 0..n {
            if l > 0 {
                c.eat(b",")?;
            }
            out.push(c.number()?);
        }
        c.eat(b"]")?;
    }
    c.eat(b"]")?;
    c.eat(b"}")?;
    c.skip_ws();
    (c.pos == bytes.len()).then_some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgorder_predicate::{catalog, eval};
    use msgorder_runs::limit_sets;
    use msgorder_simnet::{
        HostAction, HostEnv, HostEvent, LatencyModel, ProtocolHost, SimConfig, Simulation,
        StreamResult, Workload,
    };
    use proptest::prelude::*;
    use serde::{Deserialize, Serialize};

    /// The derived serializer the direct codec replaced, kept as its
    /// oracle.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Tag {
        sent: Vec<Vec<u64>>,
    }

    /// What `on_user_frame` used to accept: a parseable `Tag` whose
    /// matrix is `n × n`.
    fn oracle_decode(bytes: &[u8], n: usize) -> Option<Vec<u64>> {
        let tag = serde_json::from_slice::<Tag>(bytes).ok()?;
        (tag.sent.len() == n && tag.sent.iter().all(|row| row.len() == n))
            .then(|| tag.sent.concat())
    }

    /// The decoder the way `on_user_frame` drives it: onto the end of an
    /// arena that already holds something, rolled back on failure.
    fn decode(bytes: &[u8], n: usize) -> Option<Vec<u64>> {
        let mut arena = vec![7, 7, 7];
        let ok = decode_tag(bytes, n, &mut arena).is_some();
        assert_eq!(arena[..3], [7, 7, 7], "earlier matrices untouched");
        ok.then(|| arena.split_off(3))
    }

    /// Counters at every digit-count boundary the encoder has; with the
    /// `2`, every decimal digit occurs (and gets each of its bits
    /// flipped).
    const COUNTERS: [u64; 8] = [0, 2, 9, 10, 99, 100, 10_000_000_000_000_000_000, u64::MAX];

    /// Row-major `n × n` matrices over [`COUNTERS`], `n ∈ 1..=5`: every
    /// counter in every cell at least once, at several mixes.
    fn matrices() -> Vec<(usize, Vec<u64>)> {
        let mut out = Vec::new();
        for n in 1..=5 {
            for stride in [0, 1, 3] {
                for offset in 0..COUNTERS.len() {
                    let m = (0..n * n)
                        .map(|i| COUNTERS[(i * stride + offset) % COUNTERS.len()])
                        .collect();
                    out.push((n, m));
                }
            }
        }
        out
    }

    #[test]
    fn encoder_matches_the_derived_serializer_byte_for_byte() {
        for (n, m) in matrices() {
            let tag = encode_tag(&m, n);
            let oracle = serde_json::to_vec(&Tag {
                sent: m.chunks(n).map(<[u64]>::to_vec).collect(),
            })
            .expect("matrix serializes");
            assert_eq!(tag, oracle, "n = {n}, matrix {m:?}");
            assert_eq!(tag.len(), tag.capacity(), "pre-sized exactly, n = {n}");
            assert_eq!(decode(&tag, n), Some(m), "round trip, n = {n}");
        }
    }

    #[test]
    fn decoder_matches_the_derived_parser_on_every_single_bit_flip() {
        // All `kernel::flip_bit` can do to a tag. Most flips are
        // rejected; digit → digit (also into a leading zero or past
        // `u64::MAX`) and `0` → space are the ones that parse.
        let (mut flips, mut accepted) = (0, 0);
        for (n, m) in matrices() {
            let clean = encode_tag(&m, n);
            for bit in 0..clean.len() * 8 {
                let mut dirty = clean.clone();
                dirty[bit / 8] ^= 1 << (bit % 8);
                let got = decode(&dirty, n);
                assert_eq!(
                    got,
                    oracle_decode(&dirty, n),
                    "n = {n}, bit {bit}: {:?}",
                    String::from_utf8_lossy(&dirty)
                );
                // The neighbouring sizes too: a flip must not turn an
                // n × n tag into one another instance would accept.
                for other in [n - 1, n + 1] {
                    assert_eq!(decode(&dirty, other), oracle_decode(&dirty, other));
                }
                flips += 1;
                accepted += usize::from(got.is_some());
            }
        }
        assert!(
            0 < accepted && accepted < flips,
            "{accepted} of {flips} flips parse: both verdicts exercised"
        );
    }

    #[test]
    fn decoder_skips_whitespace_wherever_the_parser_did() {
        let spaced = b" {\t\"sent\" :\n[ [ 1 , 02 ] ,\r[ 3,4 ] ] } \n";
        assert_eq!(decode(spaced, 2), Some(vec![1, 2, 3, 4]));
        assert_eq!(oracle_decode(spaced, 2), Some(vec![1, 2, 3, 4]));
        for bad in [
            &b"{\"sent\":[[1 0]]}"[..],
            b"{\"sent\":[[1,]]}",
            b"{\"sent\":[[ ]]}",
            b"{\"sent\":[[1]],}",
            b"{\"sent\":[[1]]}x",
            b"{\"sent\":[[18446744073709551616]]}",
            b"{\"sent\":[[1.0]]}",
            b"{\"sent\":[[1e0]]}",
            b"{\"sent\":[1]}",
            b"{\"sent\":[[1],[2]]}",
            b"{\"sent\":[[1,2]]}",
            b"{\"sen\":[[1]]}",
            b"[[1]]",
            b"",
        ] {
            assert_eq!(decode(bad, 1), None, "{:?}", String::from_utf8_lossy(bad));
            assert_eq!(oracle_decode(bad, 1), None);
        }
    }

    #[test]
    fn decoder_is_stricter_than_the_parser_only_beyond_one_flip() {
        // General JSON the derived parser took and nothing in the
        // system emits, not even through a flipped bit: these are now
        // `Malformed` like any other foreign bytes.
        for foreign in [
            &b"{\"sent\":[[-0]]}"[..],
            b"{\"other\":null,\"sent\":[[0]]}",
            b"{\"sent\":[[5]],\"sent\":[[0]]}",
            b"{\"\\u0073ent\":[[0]]}",
        ] {
            assert_eq!(oracle_decode(foreign, 1), Some(vec![0]));
            assert_eq!(decode(foreign, 1), None);
        }
    }

    /// Bytes that look like a tag: an encoding with a few positions
    /// overwritten from the alphabet tags are made of.
    fn near_tags() -> impl Strategy<Value = (usize, Vec<u8>)> {
        const ALPHABET: &[u8] = b"0123456789 \t\n\r[]{},:\"sent-+.eE\\";
        (
            1usize..=3,
            collection::vec(0usize..COUNTERS.len(), 9),
            collection::vec((0usize..10_000, 0usize..ALPHABET.len()), 0..4),
        )
            .prop_map(|(n, cells, edits)| {
                let m: Vec<u64> = cells[..n * n].iter().map(|&c| COUNTERS[c]).collect();
                let mut tag = encode_tag(&m, n);
                for (at, with) in edits {
                    let at = at % tag.len();
                    tag[at] = ALPHABET[with];
                }
                (n, tag)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the bytes, the decoder returns: it never panics and
        /// never accepts what the derived parser refused (or reads a
        /// different matrix out of it).
        #[test]
        fn decoder_never_panics_on_arbitrary_bytes(
            junk in collection::vec(0u8..=255, 0..200),
            n in 0usize..6,
        ) {
            if let Some(m) = decode(&junk, n) {
                prop_assert_eq!(oracle_decode(&junk, n), Some(m));
            }
        }

        #[test]
        fn decoder_never_accepts_more_than_the_parser_near_a_tag((n, bytes) in near_tags()) {
            if let Some(m) = decode(&bytes, n) {
                prop_assert_eq!(oracle_decode(&bytes, n), Some(m));
            }
        }
    }

    #[test]
    fn malformed_tag_is_rejected_and_leaves_no_state_behind() {
        // P0 -> P1 twice; P1 gets a tag that dies after three of its
        // four counters, then the real frames.
        let w = Workload::relay_chain(2, 2);
        let mut env = HostEnv::new(1, 2, &w);
        let mut p = CausalRst::new(2);
        let frame = |msg: usize, tag: &[u8]| HostEvent::UserFrame {
            from: ProcessId(0),
            msg: MessageId(msg),
            tag: tag.to_vec(),
        };
        p.process_event(&mut env, frame(0, b"{\"sent\":[[0,1],[0,x]]}"));
        assert_eq!(
            env.take_actions(),
            vec![HostAction::RejectFrame {
                from: ProcessId(0),
                reason: RejectReason::Malformed,
            }]
        );
        assert_eq!(format!("{p:?}"), format!("{:?}", CausalRst::new(2)));
        // The second message overtakes the first: parked, then released.
        p.process_event(&mut env, frame(1, &encode_tag(&[0, 2, 0, 0], 2)));
        assert_eq!(env.take_actions(), vec![]);
        p.process_event(&mut env, frame(0, &encode_tag(&[0, 1, 0, 0], 2)));
        let deliver = |msg| HostAction::Deliver {
            msg: MessageId(msg),
        };
        assert_eq!(env.take_actions(), vec![deliver(0), deliver(1)]);
        assert!(p.pending.is_empty() && p.parked.is_empty());
        assert_eq!(p.sent, [0, 2, 0, 0]);
    }

    fn sim(processes: usize, seed: u64, w: Workload) -> StreamResult {
        Simulation::run_uniform(
            SimConfig::new(processes, LatencyModel::Uniform { lo: 1, hi: 900 }, seed),
            w,
            |_| CausalRst::new(processes),
        )
        .expect("no protocol bug")
    }

    #[test]
    fn enforces_causal_ordering_across_seeds() {
        let spec = catalog::causal();
        for seed in 0..25 {
            let w = Workload::uniform_random(4, 20, seed);
            let r = sim(4, seed, w);
            assert!(r.completed && r.run.is_quiescent(), "liveness, seed {seed}");
            let user = r.run.users_view();
            assert!(limit_sets::in_x_co(&user), "X_co violated at seed {seed}");
            assert!(eval::satisfies_spec(&spec, &user));
        }
    }

    #[test]
    fn handles_cross_channel_relay() {
        // The classic triangle: P0 -> P2 slow, P0 -> P1 fast, P1 -> P2
        // relayed — P2 must hold the relay until P0's direct message.
        for seed in 0..25 {
            let w = Workload::relay_chain(3, 4);
            let r = sim(3, seed, w);
            assert!(r.run.is_quiescent());
            assert!(limit_sets::in_x_co(&r.run.users_view()), "seed {seed}");
        }
    }

    #[test]
    fn inhibits_more_than_fifo_on_bursty_traffic() {
        // Sanity that the matrix condition actually delays deliveries.
        let inhibited = (0..20).any(|seed| {
            let w = Workload::client_server(4, 4, 4, seed);
            sim(4, seed, w).stats.total_inhibition > 0
        });
        assert!(inhibited);
    }

    #[test]
    fn straggler_latency_still_safe_and_live() {
        for seed in 0..10 {
            let w = Workload::uniform_random(4, 25, seed);
            let r = Simulation::run_uniform(
                SimConfig::new(
                    4,
                    LatencyModel::Straggler {
                        lo: 1,
                        hi: 100,
                        slow_every: 4,
                        slow_factor: 40,
                    },
                    seed,
                ),
                w,
                |_| CausalRst::new(4),
            )
            .expect("no protocol bug");
            assert!(r.completed && r.run.is_quiescent(), "seed {seed}");
            assert!(limit_sets::in_x_co(&r.run.users_view()), "seed {seed}");
        }
    }
}
