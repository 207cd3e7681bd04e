//! A uniform handle over every shipped protocol, for the experiment
//! harness and benches.

use crate::{
    AsyncProtocol, CausalRst, CausalSes, FifoProtocol, FlushChannels, SyncProtocol,
    SynthesizedTagged,
};
use msgorder_predicate::catalog::PaperClass;
use msgorder_predicate::ForbiddenPredicate;
use msgorder_simnet::Protocol;

/// Which protocol to instantiate.
#[derive(Debug, Clone)]
pub enum ProtocolKind {
    /// The tagless do-nothing protocol.
    Async,
    /// FIFO by sequence numbers.
    Fifo,
    /// Causal ordering, Raynal–Schiper–Toueg matrices.
    CausalRst,
    /// Causal ordering, Schiper–Eggli–Sandoz constraint sets.
    CausalSes,
    /// Flush channels (F-channels).
    Flush,
    /// Logically synchronous, lock-server rendezvous (per-message grants).
    Sync,
    /// Logically synchronous with batched lock windows (EXP-P3 ablation).
    SyncBatched,
    /// Synthesized tagged protocol for the given predicate.
    Synthesized(ForbiddenPredicate),
    /// Synthesized tagged protocol enforcing every predicate of a set
    /// (the intersection specification).
    SynthesizedSet(Vec<ForbiddenPredicate>),
}

impl ProtocolKind {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Async => "async",
            ProtocolKind::Fifo => "fifo",
            ProtocolKind::CausalRst => "causal-rst",
            ProtocolKind::CausalSes => "causal-ses",
            ProtocolKind::Flush => "flush",
            ProtocolKind::Sync => "sync",
            ProtocolKind::SyncBatched => "sync-batched",
            ProtocolKind::Synthesized(_) => "synthesized",
            ProtocolKind::SynthesizedSet(_) => "synthesized-set",
        }
    }

    /// The class of the paper's taxonomy (§4.3) this protocol belongs
    /// to — a bound on the machinery it may use: a tagless protocol
    /// adds nothing to the user's messages, a tagged one tags them but
    /// sends none of its own, a general one may send control messages.
    pub fn class(&self) -> PaperClass {
        match self {
            ProtocolKind::Async => PaperClass::Tagless,
            ProtocolKind::Fifo
            | ProtocolKind::CausalRst
            | ProtocolKind::CausalSes
            | ProtocolKind::Flush
            | ProtocolKind::Synthesized(_)
            | ProtocolKind::SynthesizedSet(_) => PaperClass::Tagged,
            ProtocolKind::Sync | ProtocolKind::SyncBatched => PaperClass::General,
        }
    }

    /// Resolves a display name back to its kind — the inverse of
    /// [`name`](ProtocolKind::name) for the fixed protocols, used by
    /// trace replay to re-instantiate the recorded protocol. The
    /// parameterized kinds (`synthesized`, `synthesized-set`) need their
    /// predicate: pass it via `spec`, which is ignored otherwise.
    pub fn by_name(name: &str, spec: Option<&ForbiddenPredicate>) -> Option<ProtocolKind> {
        match name {
            "async" => Some(ProtocolKind::Async),
            "fifo" => Some(ProtocolKind::Fifo),
            "causal-rst" => Some(ProtocolKind::CausalRst),
            "causal-ses" => Some(ProtocolKind::CausalSes),
            "flush" => Some(ProtocolKind::Flush),
            "sync" => Some(ProtocolKind::Sync),
            "sync-batched" => Some(ProtocolKind::SyncBatched),
            "synthesized" => spec.map(|p| ProtocolKind::Synthesized(p.clone())),
            _ => None,
        }
    }

    /// All fixed (non-parameterized) protocols.
    pub fn fixed() -> Vec<ProtocolKind> {
        vec![
            ProtocolKind::Async,
            ProtocolKind::Fifo,
            ProtocolKind::CausalRst,
            ProtocolKind::CausalSes,
            ProtocolKind::Flush,
            ProtocolKind::Sync,
            ProtocolKind::SyncBatched,
        ]
    }

    /// Instantiates the protocol for process `node` of an `n`-process
    /// system (no retransmission layer).
    pub fn instantiate(&self, n: usize, node: usize) -> Box<dyn Protocol> {
        self.instantiate_with(n, node, false)
    }

    /// Like [`instantiate`](ProtocolKind::instantiate), optionally with
    /// the ack/retransmission layer for lossy networks. Retransmission
    /// is available for the FIFO, RST-causal, and sync protocols; the
    /// other kinds ignore the flag (they have no reliable variant yet).
    pub fn instantiate_with(&self, n: usize, node: usize, reliable: bool) -> Box<dyn Protocol> {
        match self {
            ProtocolKind::Async => Box::new(AsyncProtocol::new()),
            ProtocolKind::Fifo if reliable => Box::new(FifoProtocol::reliable()),
            ProtocolKind::Fifo => Box::new(FifoProtocol::new()),
            ProtocolKind::CausalRst if reliable => Box::new(CausalRst::reliable(n)),
            ProtocolKind::CausalRst => Box::new(CausalRst::new(n)),
            ProtocolKind::CausalSes => Box::new(CausalSes::new(n, node)),
            ProtocolKind::Flush => Box::new(FlushChannels::new()),
            ProtocolKind::Sync if reliable => Box::new(SyncProtocol::new().with_retransmission()),
            ProtocolKind::Sync => Box::new(SyncProtocol::new()),
            ProtocolKind::SyncBatched if reliable => {
                Box::new(SyncProtocol::new_batched().with_retransmission())
            }
            ProtocolKind::SyncBatched => Box::new(SyncProtocol::new_batched()),
            ProtocolKind::Synthesized(pred) => Box::new(SynthesizedTagged::new(pred.clone())),
            ProtocolKind::SynthesizedSet(preds) => {
                Box::new(SynthesizedTagged::for_all(preds.clone()))
            }
        }
    }

    /// Whether [`instantiate_with`](ProtocolKind::instantiate_with)
    /// honors `reliable = true` for this kind.
    pub fn supports_retransmission(&self) -> bool {
        matches!(
            self,
            ProtocolKind::Fifo
                | ProtocolKind::CausalRst
                | ProtocolKind::Sync
                | ProtocolKind::SyncBatched
        )
    }

    /// Instantiates the protocol as a concrete [`ExplorableProtocol`]
    /// (`Clone + Hash + Send`, as the explorer requires), or `None` for
    /// kinds whose state cannot be canonically hashed (`flush` holds
    /// `HashMap` channel state; the synthesized kinds carry predicate
    /// automata).
    pub fn explorable(&self, n: usize, node: usize) -> Option<ExplorableProtocol> {
        match self {
            ProtocolKind::Async => Some(ExplorableProtocol::Async(AsyncProtocol::new())),
            ProtocolKind::Fifo => Some(ExplorableProtocol::Fifo(FifoProtocol::new())),
            ProtocolKind::CausalRst => Some(ExplorableProtocol::CausalRst(CausalRst::new(n))),
            ProtocolKind::CausalSes => Some(ExplorableProtocol::CausalSes(CausalSes::new(n, node))),
            ProtocolKind::Sync => Some(ExplorableProtocol::Sync(SyncProtocol::new())),
            ProtocolKind::SyncBatched => {
                Some(ExplorableProtocol::Sync(SyncProtocol::new_batched()))
            }
            ProtocolKind::Flush
            | ProtocolKind::Synthesized(_)
            | ProtocolKind::SynthesizedSet(_) => None,
        }
    }
}

/// A concrete (non-boxed) protocol instance for the schedule explorer:
/// unlike `Box<dyn Protocol>`, this is `Clone` (the explorer clones the
/// world where a state branches) and `Hash` (configuration deduplication keys
/// protocol state). Obtained via [`ProtocolKind::explorable`].
#[derive(Debug, Clone, Hash)]
pub enum ExplorableProtocol {
    /// [`AsyncProtocol`].
    Async(AsyncProtocol),
    /// [`FifoProtocol`].
    Fifo(FifoProtocol),
    /// [`CausalRst`].
    CausalRst(CausalRst),
    /// [`CausalSes`].
    CausalSes(CausalSes),
    /// [`SyncProtocol`] (per-message or batched).
    Sync(SyncProtocol),
}

impl Protocol for ExplorableProtocol {
    fn on_init(&mut self, ctx: &mut msgorder_simnet::Ctx<'_>) {
        match self {
            ExplorableProtocol::Async(p) => p.on_init(ctx),
            ExplorableProtocol::Fifo(p) => p.on_init(ctx),
            ExplorableProtocol::CausalRst(p) => p.on_init(ctx),
            ExplorableProtocol::CausalSes(p) => p.on_init(ctx),
            ExplorableProtocol::Sync(p) => p.on_init(ctx),
        }
    }
    fn on_send_request(
        &mut self,
        ctx: &mut msgorder_simnet::Ctx<'_>,
        msg: msgorder_runs::MessageId,
    ) {
        match self {
            ExplorableProtocol::Async(p) => p.on_send_request(ctx, msg),
            ExplorableProtocol::Fifo(p) => p.on_send_request(ctx, msg),
            ExplorableProtocol::CausalRst(p) => p.on_send_request(ctx, msg),
            ExplorableProtocol::CausalSes(p) => p.on_send_request(ctx, msg),
            ExplorableProtocol::Sync(p) => p.on_send_request(ctx, msg),
        }
    }
    fn on_user_frame(
        &mut self,
        ctx: &mut msgorder_simnet::Ctx<'_>,
        from: msgorder_runs::ProcessId,
        msg: msgorder_runs::MessageId,
        tag: Vec<u8>,
    ) {
        match self {
            ExplorableProtocol::Async(p) => p.on_user_frame(ctx, from, msg, tag),
            ExplorableProtocol::Fifo(p) => p.on_user_frame(ctx, from, msg, tag),
            ExplorableProtocol::CausalRst(p) => p.on_user_frame(ctx, from, msg, tag),
            ExplorableProtocol::CausalSes(p) => p.on_user_frame(ctx, from, msg, tag),
            ExplorableProtocol::Sync(p) => p.on_user_frame(ctx, from, msg, tag),
        }
    }
    fn on_control_frame(
        &mut self,
        ctx: &mut msgorder_simnet::Ctx<'_>,
        from: msgorder_runs::ProcessId,
        bytes: Vec<u8>,
    ) {
        match self {
            ExplorableProtocol::Async(p) => p.on_control_frame(ctx, from, bytes),
            ExplorableProtocol::Fifo(p) => p.on_control_frame(ctx, from, bytes),
            ExplorableProtocol::CausalRst(p) => p.on_control_frame(ctx, from, bytes),
            ExplorableProtocol::CausalSes(p) => p.on_control_frame(ctx, from, bytes),
            ExplorableProtocol::Sync(p) => p.on_control_frame(ctx, from, bytes),
        }
    }
    fn on_timer(&mut self, ctx: &mut msgorder_simnet::Ctx<'_>, id: u64) {
        match self {
            ExplorableProtocol::Async(p) => p.on_timer(ctx, id),
            ExplorableProtocol::Fifo(p) => p.on_timer(ctx, id),
            ExplorableProtocol::CausalRst(p) => p.on_timer(ctx, id),
            ExplorableProtocol::CausalSes(p) => p.on_timer(ctx, id),
            ExplorableProtocol::Sync(p) => p.on_timer(ctx, id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgorder_predicate::catalog;
    use msgorder_runs::limit_sets;
    use msgorder_simnet::{LatencyModel, SimConfig, Simulation, Workload};

    #[test]
    fn every_fixed_protocol_is_live_on_a_common_workload() {
        for kind in ProtocolKind::fixed() {
            let n = 3;
            let w = Workload::uniform_random(n, 12, 5);
            let r = Simulation::run_uniform(
                SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 400 }, 5),
                w,
                |node| kind.instantiate(n, node),
            )
            .expect("no protocol bug");
            assert!(
                r.completed && r.run.is_quiescent(),
                "{} not live",
                kind.name()
            );
        }
    }

    /// Class conformance, registry-wide: no protocol uses more
    /// machinery than its class allows, and the general ones are the
    /// only ones that need control messages.
    #[test]
    fn overhead_stays_within_the_class() {
        let n = 3;
        let run = |kind: &ProtocolKind, seed| {
            // Every third message a red marker, so `flush` runs barriers.
            let w = Workload::with_markers(n, 15, 3, "red", seed);
            Simulation::run_uniform(
                SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 400 }, seed),
                w,
                |node| kind.instantiate(n, node),
            )
            .expect("no protocol bug")
            .stats
        };
        let mut kinds = ProtocolKind::fixed();
        kinds.push(ProtocolKind::Synthesized(catalog::causal()));
        for kind in &kinds {
            for seed in 1..=3 {
                let s = run(kind, seed);
                let row = format!("{} (seed {seed})", kind.name());
                match kind.class() {
                    PaperClass::Tagless => {
                        assert_eq!((s.tag_bytes, s.control_messages), (0, 0), "{row}")
                    }
                    PaperClass::Tagged => assert_eq!(s.control_messages, 0, "{row}"),
                    PaperClass::General => assert!(s.control_messages > 0, "{row}"),
                    PaperClass::Unimplementable => panic!("{row}: nothing implements it"),
                }
            }
        }
        let (f, c) = (
            run(&ProtocolKind::Fifo, 1),
            run(&ProtocolKind::CausalRst, 1),
        );
        assert!(
            0 < f.tag_bytes && f.tag_bytes < c.tag_bytes,
            "matrix beats a seq number"
        );
    }

    #[test]
    fn sync_strictly_strongest_on_shared_workload() {
        let n = 3;
        let w = Workload::uniform_random(n, 15, 9);
        let r = Simulation::run_uniform(
            SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 400 }, 9),
            w,
            |node| ProtocolKind::Sync.instantiate(n, node),
        )
        .expect("no protocol bug");
        assert!(limit_sets::in_x_sync(&r.run.users_view()));
    }
}
