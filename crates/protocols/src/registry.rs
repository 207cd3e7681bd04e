//! Every shipped protocol by name. [`ProtocolKind::explorable`] is the
//! one place that decides how each kind is built, and what it builds is
//! one concrete type, [`ExplorableProtocol`]: `Clone + Hash + Send`, as
//! the schedule explorer requires. The simulator, the live hosts and
//! the experiment harness run the same value behind a box
//! ([`ProtocolKind::instantiate_with`]).

use crate::{
    synthesis, AsyncProtocol, CausalRst, CausalSes, FifoProtocol, FlushChannels, SyncProtocol,
    SynthesizedTagged,
};
use msgorder_predicate::catalog::PaperClass;
use msgorder_predicate::ForbiddenPredicate;
use msgorder_runs::{MessageId, ProcessId};
use msgorder_simnet::{Ctx, Protocol};

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
    /// Synthesized tagged protocol enforcing every predicate of the set:
    /// one predicate's `X_B`, or the intersection of several.
    Synthesized(Vec<ForbiddenPredicate>),
}

/// A concrete (non-boxed) protocol instance: unlike `Box<dyn Protocol>`,
/// this is `Clone` (the explorer copies the world where a state
/// branches) and `Hash` (configuration deduplication keys protocol
/// state). Obtained via [`ProtocolKind::explorable`].
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
    /// [`FlushChannels`].
    Flush(FlushChannels),
    /// [`SyncProtocol`] (per-message or batched).
    Sync(SyncProtocol),
    /// [`SynthesizedTagged`].
    Synthesized(SynthesizedTagged),
}

/// Evaluates `$body` with `$p` bound to the protocol inside whichever
/// variant `$value` is.
macro_rules! each_variant {
    ($value:expr, $p:ident => $body:expr) => {
        match $value {
            ExplorableProtocol::Async($p) => $body,
            ExplorableProtocol::Fifo($p) => $body,
            ExplorableProtocol::CausalRst($p) => $body,
            ExplorableProtocol::CausalSes($p) => $body,
            ExplorableProtocol::Flush($p) => $body,
            ExplorableProtocol::Sync($p) => $body,
            ExplorableProtocol::Synthesized($p) => $body,
        }
    };
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
            | ProtocolKind::Synthesized(_) => PaperClass::Tagged,
            ProtocolKind::Sync | ProtocolKind::SyncBatched => PaperClass::General,
        }
    }

    /// Resolves a display name back to its kind — the inverse of
    /// [`name`](ProtocolKind::name), used by trace replay to
    /// re-instantiate the recorded protocol. `synthesized` is built from
    /// `spec` (and is `None` without one); the fixed kinds ignore it.
    pub fn by_name(name: &str, spec: Option<&ForbiddenPredicate>) -> Option<ProtocolKind> {
        if name == "synthesized" {
            return spec.map(|p| ProtocolKind::Synthesized(vec![p.clone()]));
        }
        ProtocolKind::fixed().into_iter().find(|k| k.name() == name)
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

    /// The class of the first member of a `synthesized` kind's set that
    /// tagging cannot enforce (order ≥ 2, or not implementable):
    /// building such a kind would panic, so `Setup::validate` and the
    /// CLI refuse it first. `None` for every other kind.
    pub fn untaggable_spec(&self) -> Option<PaperClass> {
        match self {
            ProtocolKind::Synthesized(preds) => {
                synthesis::untaggable(preds).map(|(_, class)| class)
            }
            _ => None,
        }
    }

    /// Instantiates the protocol for process `node` of an `n`-process
    /// system (no retransmission layer).
    pub fn instantiate(&self, n: usize, node: usize) -> Box<dyn Protocol> {
        self.instantiate_with(n, node, false)
    }

    /// [`explorable`](ProtocolKind::explorable)'s protocol, boxed. The
    /// box holds the variant's own protocol, not the enum, so a callback
    /// is one virtual call with no match under it.
    pub fn instantiate_with(&self, n: usize, node: usize, reliable: bool) -> Box<dyn Protocol> {
        each_variant!(self.explorable(n, node, reliable), p => Box::new(p))
    }

    /// Whether [`explorable`](ProtocolKind::explorable) honors
    /// `reliable = true` for this kind.
    pub fn supports_retransmission(&self) -> bool {
        matches!(
            self,
            ProtocolKind::Fifo
                | ProtocolKind::CausalRst
                | ProtocolKind::Sync
                | ProtocolKind::SyncBatched
        )
    }

    /// Instantiates the protocol for process `node` of an `n`-process
    /// system, optionally with the ack/retransmission layer for lossy
    /// networks. Retransmission is available for the FIFO, RST-causal
    /// and sync protocols; the other kinds ignore the flag (they have no
    /// reliable variant).
    ///
    /// # Panics
    /// Panics if a `synthesized` kind holds a predicate tagging cannot
    /// enforce ([`untaggable_spec`](ProtocolKind::untaggable_spec)).
    pub fn explorable(&self, n: usize, node: usize, reliable: bool) -> ExplorableProtocol {
        use ExplorableProtocol as E;
        match self {
            ProtocolKind::Async => E::Async(AsyncProtocol::new()),
            ProtocolKind::Fifo if reliable => E::Fifo(FifoProtocol::reliable()),
            ProtocolKind::Fifo => E::Fifo(FifoProtocol::new()),
            ProtocolKind::CausalRst if reliable => E::CausalRst(CausalRst::reliable(n)),
            ProtocolKind::CausalRst => E::CausalRst(CausalRst::new(n)),
            ProtocolKind::CausalSes => E::CausalSes(CausalSes::new(n, node)),
            ProtocolKind::Flush => E::Flush(FlushChannels::new()),
            ProtocolKind::Sync if reliable => E::Sync(SyncProtocol::new().with_retransmission()),
            ProtocolKind::Sync => E::Sync(SyncProtocol::new()),
            ProtocolKind::SyncBatched if reliable => {
                E::Sync(SyncProtocol::new_batched().with_retransmission())
            }
            ProtocolKind::SyncBatched => E::Sync(SyncProtocol::new_batched()),
            ProtocolKind::Synthesized(preds) => {
                E::Synthesized(SynthesizedTagged::for_all(preds.clone()))
            }
        }
    }
}

impl Protocol for ExplorableProtocol {
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        each_variant!(self, p => p.on_init(ctx))
    }
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        each_variant!(self, p => p.on_send_request(ctx, msg))
    }
    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId, tag: Vec<u8>) {
        each_variant!(self, p => p.on_user_frame(ctx, from, msg, tag))
    }
    fn on_control_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, bytes: Vec<u8>) {
        each_variant!(self, p => p.on_control_frame(ctx, from, bytes))
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        each_variant!(self, p => p.on_timer(ctx, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgorder_predicate::catalog;
    use msgorder_runs::limit_sets;
    use msgorder_simnet::{LatencyModel, SimConfig, Simulation, Workload};

    #[test]
    fn every_kind_resolves_by_its_name() {
        let causal = catalog::causal();
        let mut kinds = ProtocolKind::fixed();
        kinds.push(ProtocolKind::Synthesized(vec![causal.clone()]));
        for kind in &kinds {
            let found = ProtocolKind::by_name(kind.name(), Some(&causal));
            assert_eq!(found.map(|k| k.name()), Some(kind.name()));
        }
        assert!(ProtocolKind::by_name("synthesized", None).is_none());
        assert!(ProtocolKind::by_name("nope", Some(&causal)).is_none());
    }

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
        kinds.push(ProtocolKind::Synthesized(vec![catalog::causal()]));
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
