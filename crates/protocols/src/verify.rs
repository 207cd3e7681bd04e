//! Protocol verification over the streaming run pipeline: simulate,
//! monitor the forbidden predicate *online* (delivery by delivery), and
//! check safety (spec membership) and liveness (quiescence).
//!
//! This is the executable form of the paper's definition of
//! "`P` implements `Y`": liveness (`P(H) ∩ (R ∪ C) ≠ ∅` whenever
//! something is pending — here: the run drains to quiescence) and safety
//! (`X_P ⊆ Y` — here: no prefix of the captured run satisfies the
//! forbidden predicate).
//!
//! [`run_and_verify`] is a thin adapter over the kernel's
//! [`Simulation::run_streaming`] and the predicate layer's
//! [`eval::Monitor`]: the unsafe path is a *single* incremental search
//! whose witness is the violation, found at the exact delivery that
//! completes it — no post-hoc transitive closure, no second search.
//! [`OnlineMonitor::halting`] under [`Simulation::run_streaming`]
//! additionally halts the simulation at that delivery.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use msgorder_predicate::{eval, ForbiddenPredicate};
use msgorder_runs::{EventKind, MessageId, StreamingRun, SystemEvent, UserRun};
use msgorder_simnet::{
    explore, explore_monitored, Exploration, ExploreOptions, LivenessVerdict, Protocol,
    RunObserver, SimConfig, SimError, Simulation, Stats, Workload,
};

/// Feeds kernel run events into the predicate layer's online
/// [`eval::Monitor`]: every delivery (`x.r`) completes its message, and
/// the monitor's delta search runs at exactly that event.
///
/// As a [`RunObserver`] it records *when* the first violation was
/// detected (global event index and simulated time) and — in halting
/// mode — stops the simulation there. Under [`explore_monitored`] the
/// same halt condemns the exploration prefix, pruning the whole
/// schedule sub-tree below the violation.
#[derive(Clone)]
pub struct OnlineMonitor<'p> {
    inner: eval::Monitor<'p>,
    /// Wall-clock time of each call that fed the monitor a message.
    timings: eval::MonitorTimings,
    halt_on_violation: bool,
    detection_event: Option<usize>,
    detection_time: Option<u64>,
}

impl<'p> OnlineMonitor<'p> {
    /// A monitor that keeps observing after a violation (the simulation
    /// runs to drain, so liveness is still decided exactly). It never
    /// halts, so under [`explore_monitored`] it prunes nothing.
    pub fn new(pred: &'p ForbiddenPredicate) -> Self {
        OnlineMonitor {
            inner: eval::Monitor::new(pred),
            timings: eval::MonitorTimings::default(),
            halt_on_violation: false,
            detection_event: None,
            detection_time: None,
        }
    }

    /// A monitor that halts the simulation at the violating delivery —
    /// and so condemns the prefix under [`explore_monitored`].
    pub fn halting(pred: &'p ForbiddenPredicate) -> Self {
        OnlineMonitor {
            halt_on_violation: true,
            ..OnlineMonitor::new(pred)
        }
    }

    /// Whether a satisfying instantiation has been found.
    pub fn violated(&self) -> bool {
        self.inner.violated()
    }

    /// The first satisfying instantiation, in the *simulation's*
    /// (workload-order) message numbering — remap through
    /// [`SystemRun::dense_id`](msgorder_runs::SystemRun::dense_id) before comparing against a
    /// [`UserRun`].
    pub fn witness(&self) -> Option<&[MessageId]> {
        self.inner.witness()
    }

    /// Global index of the run event at which the violation was
    /// detected (the delivery completing the witness).
    pub fn detection_event(&self) -> Option<usize> {
        self.detection_event
    }

    /// Simulated time of the detecting delivery.
    pub fn detection_time(&self) -> Option<u64> {
        self.detection_time
    }

    /// Current partial-match state size (see [`eval::Monitor::live_state`]).
    pub fn live_state(&self) -> usize {
        self.inner.live_state()
    }

    /// Wall-clock accounting of the delta searches run so far (see
    /// [`eval::MonitorTimings`]) — the source of the `--metrics`
    /// monitor-search histogram. Timed here, around each delivery that
    /// feeds the monitor, so a bare [`eval::Monitor`] reads no clock.
    pub fn search_timings(&self) -> eval::MonitorTimings {
        self.timings
    }
}

impl RunObserver for OnlineMonitor<'_> {
    fn on_event(&mut self, view: &StreamingRun, ev: SystemEvent, index: usize, time: u64) -> bool {
        if self.inner.violated() {
            return !self.halt_on_violation;
        }
        if ev.kind != EventKind::Deliver {
            return true;
        }
        let (fed, started) = (self.inner.completed_seen(), Instant::now());
        let violated = self.inner.on_complete(view, ev.msg).is_some();
        if self.inner.completed_seen() > fed {
            let nanos = started.elapsed().as_nanos();
            self.timings.record(nanos.min(u128::from(u64::MAX)) as u64);
        }
        if violated {
            self.detection_event = Some(index);
            self.detection_time = Some(time);
            if self.halt_on_violation {
                return false;
            }
        }
        true
    }
}

/// The verdict of one verified simulation.
#[derive(Debug)]
pub struct VerifyOutcome {
    /// Safety: the user's view belongs to `X_B`.
    pub safe: bool,
    /// Liveness: every requested message was sent and delivered, and the
    /// simulation completed within its step budget.
    pub live: bool,
    /// If unsafe, one satisfying instantiation of the forbidden
    /// predicate (the offending messages, in [`user_run`]'s numbering).
    ///
    /// [`user_run`]: VerifyOutcome::user_run
    pub violation: Option<Vec<MessageId>>,
    /// Global index of the run event at which the online monitor found
    /// the violation — the delivery completing it, strictly before the
    /// run drained whenever the violating messages are not the last to
    /// complete.
    pub detection_event: Option<usize>,
    /// Simulated time of the detecting delivery.
    pub detection_time: Option<u64>,
    /// Overhead counters.
    pub stats: Stats,
    /// If the protocol itself misbehaved (double delivery, send from a
    /// non-owner, …), the structured counterexample: the offending
    /// event, message, simulated time, and the trace up to the bug.
    pub counterexample: Option<SimError>,
    /// When the run ended non-quiescent (and was not halted early), the
    /// kernel's blame analysis of the pending frontier: which messages
    /// are stuck at which system event, and why.
    pub liveness: Option<LivenessVerdict>,
    captured: Captured,
}

/// What a verified simulation leaves behind to project the user's view
/// from.
#[derive(Debug)]
enum Captured {
    /// The run as the kernel handed it back.
    Run(StreamingRun),
    /// After a protocol bug the kernel keeps only its partial trace,
    /// already projected to re-decide safety on.
    PostMortem(UserRun),
}

impl VerifyOutcome {
    /// The captured user's view (§3.3), projected when asked for: the
    /// verdict never needs it, so a verified run does not pay for its
    /// transitive closure.
    pub fn user_run(&self) -> UserRun {
        match &self.captured {
            Captured::Run(run) => run.users_view(),
            Captured::PostMortem(user) => user.clone(),
        }
    }

    /// Safety and liveness both hold and the protocol never tripped a
    /// kernel invariant.
    pub fn ok(&self) -> bool {
        self.safe && self.live && self.counterexample.is_none()
    }
}

/// Runs `factory`'s protocol on `workload` and verifies it against
/// `spec`, monitoring the forbidden predicate online while the
/// simulation runs to drain (so liveness is decided exactly).
///
/// A protocol bug (an invalid kernel action) no longer aborts the
/// process: it is reported through
/// [`counterexample`](VerifyOutcome::counterexample), with safety
/// evaluated on the partial trace captured up to the bug.
pub fn run_and_verify<P: Protocol>(
    config: SimConfig,
    workload: Workload,
    factory: impl Fn(usize) -> P,
    spec: &ForbiddenPredicate,
) -> VerifyOutcome {
    let mut monitor = OnlineMonitor::new(spec);
    let processes = config.processes;
    match Simulation::new(config, workload, factory).run_streaming(&mut monitor) {
        Ok(result) => VerifyOutcome {
            safe: !monitor.violated(),
            live: result.completed && result.run.is_quiescent(),
            // Witness messages are complete, so each has a dense id.
            violation: monitor
                .witness()
                .and_then(|w| w.iter().map(|&m| result.run.dense_id(m)).collect()),
            detection_event: monitor.detection_event(),
            detection_time: monitor.detection_time(),
            stats: result.stats,
            counterexample: None,
            liveness: result.liveness,
            captured: Captured::Run(result.run),
        },
        Err(e) => {
            // Safety on the partial trace is re-decided post hoc, on the
            // projection `user_run` hands out — same verdict, per the
            // online/post-hoc equivalence.
            let user_run = match &e.trace {
                Some(trace) => trace.users_view(),
                None => StreamingRun::new(processes).users_view(),
            };
            let violation = eval::find_instantiation(spec, &user_run);
            let liveness = e.kind.liveness().cloned();
            VerifyOutcome {
                safe: violation.is_none(),
                live: false,
                violation,
                detection_event: monitor.detection_event(),
                detection_time: monitor.detection_time(),
                stats: e.stats.clone(),
                counterexample: Some(e),
                liveness,
                captured: Captured::PostMortem(user_run),
            }
        }
    }
}

/// The verdict of an exhaustive (model-checking) verification: the
/// spec was checked on *every* schedule the explorer reached, not one
/// sampled run.
#[derive(Debug)]
pub struct ExhaustiveOutcome {
    /// No reachable schedule violates the spec and the protocol never
    /// tripped a kernel invariant. Only meaningful when
    /// [`exploration`](ExhaustiveOutcome::exploration) was not
    /// truncated — a capped search that saw no violation proves
    /// nothing about the schedules beyond the cap.
    pub safe: bool,
    /// The explorer's counters: `pruned` is the number of condemned
    /// (violating) schedule prefixes, `sleep_skipped`/`states` expose
    /// the partial-order reduction at work.
    pub exploration: Exploration,
}

/// Model-checks `factory`'s protocol against `spec` over **all**
/// schedules of `workload`, riding the explorer configured by `opts`
/// (sleep-set reduction, deduplication, threads, caps).
///
/// The halting online monitor condemns every violating prefix, so the whole
/// sub-tree below a violation is pruned rather than enumerated;
/// `safe` holds iff nothing was condemned and no schedule tripped a
/// kernel invariant. Sleep-set reduction and deduplication preserve
/// the verdict: a violation reachable by full search is reachable by
/// the reduced one (condemnation is insensitive to the order of
/// commuting deliveries).
pub fn verify_exhaustive<P>(
    processes: usize,
    workload: Workload,
    factory: impl Fn(usize) -> P,
    spec: &ForbiddenPredicate,
    opts: &ExploreOptions,
) -> ExhaustiveOutcome
where
    P: Protocol + Clone + Hash + Send,
{
    let exploration = explore_monitored(
        processes,
        workload,
        factory,
        OnlineMonitor::halting(spec),
        opts,
        &|_| true,
    );
    ExhaustiveOutcome {
        safe: exploration.pruned == 0 && exploration.error.is_none(),
        exploration,
    }
}

/// What an exhaustive search found outside the spec — the *set*
/// `X_P ∖ Y` on one workload, where [`verify_exhaustive`] stops at
/// "non-empty".
#[derive(Debug)]
pub struct Violations {
    /// The explorer's counters.
    pub exploration: Exploration,
    /// Complete schedules whose user's view violates the spec.
    pub schedules: usize,
    /// The distinct violating configurations (user-view partial orders),
    /// each by its [`UserRun::digest`]. Invariant under
    /// reduction, deduplication and threads, which only change how many
    /// schedules reach each configuration.
    pub configs: BTreeSet<u64>,
}

impl Violations {
    /// A commutative digest of the violating configuration set: equal
    /// digests across explorer settings witness that they found the
    /// same violations.
    pub fn digest(&self) -> u64 {
        self.configs
            .iter()
            .fold(0u64, |acc, d| acc.wrapping_add(*d))
    }
}

/// Explores **all** schedules of `workload` under `factory`'s protocol
/// and collects every terminal configuration that violates `spec` —
/// what `msgorder explore --spec` prints and the benchmark's `explore-*`
/// workloads time. Unlike [`verify_exhaustive`] nothing is pruned: each
/// complete schedule's run is checked against the predicate prepared
/// once for the whole search, on the vector clocks the kernel stamped
/// ([`eval::Prepared::find_with`] over the [`StreamingRun`]), and, if it
/// violates, digested from the same clocks
/// ([`StreamingRun::users_view_digest`]). No view is built: the search
/// buffers are kept per worker thread and refilled at every leaf, so a
/// leaf touches the allocator only to record a new violating
/// configuration.
pub fn explore_violations<P>(
    processes: usize,
    workload: Workload,
    factory: impl Fn(usize) -> P,
    spec: &ForbiddenPredicate,
    opts: &ExploreOptions,
) -> Violations
where
    P: Protocol + Clone + Hash + Send,
{
    let prepared = eval::Prepared::new(spec);
    let schedules = AtomicUsize::new(0);
    let configs: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());
    thread_local! {
        /// This worker's search buffers: the visitor is one `Fn` shared
        /// by every worker, so they cannot live in it.
        static SCRATCH: RefCell<eval::EvalScratch> = RefCell::default();
    }
    let exploration = explore(processes, workload, factory, opts, &|run| {
        let violates =
            SCRATCH.with(|scratch| prepared.find_with(run, &mut scratch.borrow_mut()).is_some());
        if violates {
            schedules.fetch_add(1, Ordering::Relaxed);
            configs
                .lock()
                .expect("no visitor panicked holding the digest set")
                .insert(run.users_view_digest());
        }
        true
    });
    Violations {
        exploration,
        schedules: schedules.into_inner(),
        configs: configs
            .into_inner()
            .expect("no visitor panicked holding the digest set"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsyncProtocol, CausalRst, FifoProtocol, ProtocolKind};
    use msgorder_predicate::catalog;
    use msgorder_simnet::{DedupMode, FaultModel, LatencyModel};

    fn config(processes: usize, seed: u64) -> SimConfig {
        SimConfig::new(processes, LatencyModel::Uniform { lo: 1, hi: 900 }, seed)
    }

    /// One timed search per delivery that feeds the monitor: none for a
    /// delivery the view has not completed, none after the witness.
    #[test]
    fn only_a_delivery_that_feeds_the_monitor_is_timed() {
        let spec = catalog::causal();
        let mut mon = OnlineMonitor::new(&spec);
        let mut s = StreamingRun::new(2);
        let x = s.message(0, 1);
        let y = s.message(0, 1);
        s.invoke(x).unwrap().send(x).unwrap();
        s.transmit(y).unwrap();
        let deliver = |m| SystemEvent::new(m, EventKind::Deliver);
        // `x` is sent but not delivered: the monitor is not fed.
        assert!(mon.on_event(&s, deliver(x), 0, 0));
        assert_eq!(mon.search_timings().searches, 0);
        assert!(mon.on_event(&s, deliver(y), 1, 0));
        assert_eq!(mon.search_timings().searches, 1);
        s.receive(x).unwrap().deliver(x).unwrap();
        assert!(mon.on_event(&s, deliver(x), 2, 0));
        assert_eq!(mon.witness(), Some(&[x, y][..]));
        assert!(mon.on_event(&s, deliver(x), 3, 0));
        let timings = mon.search_timings();
        assert_eq!(
            (timings.searches, timings.buckets.iter().sum::<u64>()),
            (2, 2)
        );
    }

    #[test]
    fn fifo_protocol_verified_against_fifo_spec() {
        let out = run_and_verify(
            config(3, 1),
            Workload::uniform_random(3, 20, 1),
            |_| FifoProtocol::new(),
            &catalog::fifo(),
        );
        assert!(out.ok());
        assert!(out.violation.is_none());
        assert!(out.detection_event.is_none());
    }

    #[test]
    fn async_protocol_fails_causal_spec_somewhere() {
        let spec = catalog::causal();
        let mut failed = None;
        for seed in 0..40 {
            let out = run_and_verify(
                config(3, seed),
                Workload::uniform_random(3, 10, seed),
                |_| AsyncProtocol::new(),
                &spec,
            );
            assert!(out.live, "async is always live");
            if !out.safe {
                failed = Some(out);
                break;
            }
        }
        let out = failed.expect("async never violated causal ordering");
        let inst = out.violation.unwrap();
        assert_eq!(inst.len(), 2, "causal violations involve two messages");
        assert!(out.detection_event.is_some(), "found online, not post hoc");
    }

    #[test]
    fn causal_protocol_verified_against_all_its_weaker_specs() {
        // X_P = X_co ⊆ X_B for each tagged-class B: the RST protocol
        // must pass FIFO, k-weaker and flush specs too.
        for spec in [
            catalog::causal(),
            catalog::fifo(),
            catalog::k_weaker_causal(2),
            catalog::global_forward_flush(),
        ] {
            for seed in 0..8 {
                let out = run_and_verify(
                    config(4, seed),
                    Workload::uniform_random(4, 15, seed),
                    |_| CausalRst::new(4),
                    &spec,
                );
                assert!(out.ok(), "RST failed {spec} at seed {seed}");
            }
        }
    }

    /// The acceptance property: the online monitor's verdict (and the
    /// existence of a witness) equals post-hoc evaluation of the drained
    /// run, across every registered protocol, quiet and faulty networks,
    /// and both spec polarities.
    #[test]
    fn online_verdict_matches_posthoc_across_protocols_and_faults() {
        let specs = [catalog::fifo(), catalog::causal()];
        let faults = [
            FaultModel::none(),
            FaultModel::none().with_drop(0.15).unwrap(),
            FaultModel::none().with_duplication(0.1).unwrap(),
        ];
        for kind in ProtocolKind::fixed() {
            for spec in &specs {
                for (fi, fault) in faults.iter().enumerate() {
                    // Bare protocols are built for reliable channels;
                    // on faulty networks use the retransmission layer
                    // where it exists (elsewhere, loss merely costs
                    // liveness and the verdicts must still agree).
                    let reliable = !fault.is_quiet() && kind.supports_retransmission();
                    if fi == 2 && !reliable {
                        // Duplicate frames need the dedup of the
                        // reliable layer; skip kinds without one.
                        continue;
                    }
                    for seed in 0..4 {
                        let n = 3;
                        let cfg = config(n, seed).with_faults(fault.clone());
                        let w = Workload::uniform_random(n, 12, seed);
                        let out = run_and_verify(
                            cfg,
                            w,
                            |node| kind.instantiate_with(n, node, reliable),
                            spec,
                        );
                        // Post-hoc ground truth on the same captured view.
                        let user_run = out.user_run();
                        let posthoc = eval::find_instantiation(spec, &user_run);
                        assert_eq!(
                            out.safe,
                            posthoc.is_none(),
                            "{} / {spec} / fault {fi} / seed {seed}: online and \
                             post-hoc verdicts disagree",
                            kind.name()
                        );
                        assert_eq!(out.safe, out.violation.is_none());
                        assert_eq!(out.safe, out.detection_event.is_none());
                        assert!(out.counterexample.is_none());
                        assert_eq!(
                            out.live,
                            out.liveness.is_none(),
                            "{} / fault {fi} / seed {seed}: a non-live run must \
                             carry a liveness verdict (and a live one must not)",
                            kind.name()
                        );
                        if let Some(v) = &out.liveness {
                            assert!(v.stuck_count() > 0);
                            assert!(!v.step_limited);
                        }
                        if let Some(w) = &out.violation {
                            assert!(
                                eval::check_instantiation(spec, &user_run, w),
                                "{} / {spec} / fault {fi} / seed {seed}: reported \
                                 witness does not satisfy the predicate",
                                kind.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// A permanent crash wedges the run and the verdict names the crash
    /// — not just "non-quiescent".
    #[test]
    fn crash_without_restart_is_blamed_in_liveness_verdict() {
        use msgorder_simnet::{Blame, StuckCause};
        let n = 3;
        let fault = FaultModel::none().with_crash(1, 1, None);
        let out = run_and_verify(
            config(n, 3).with_faults(fault),
            Workload::uniform_random(n, 12, 3),
            |node| ProtocolKind::Fifo.instantiate_with(n, node, true),
            &catalog::fifo(),
        );
        assert!(out.counterexample.is_none(), "no protocol bug");
        assert!(!out.live, "messages touching P1 can never finish");
        let v = out.liveness.expect("non-live run carries a verdict");
        assert!(v.stuck_count() > 0);
        let crashed = msgorder_runs::ProcessId(1);
        for s in &v.stuck {
            match s.cause {
                StuckCause::ArrivalAtCrashedProcess { node }
                | StuckCause::CrashedWithoutRestart { node } => assert_eq!(node, crashed),
                StuckCause::FrameLost { .. } => {
                    // A frame eaten mid-backoff by the crash window is
                    // accounted at the link; it must involve P1.
                    assert!(matches!(
                        s.blame,
                        Blame::Link { from, to } if from == crashed || to == crashed
                    ));
                }
                other => panic!("unexpected cause {other:?} for {s}"),
            }
        }
    }

    /// Online detection fires strictly before the simulation drains:
    /// the halting pipeline stops with messages still undelivered.
    #[test]
    fn seeded_fifo_violation_detected_strictly_before_drain() {
        let spec = catalog::fifo();
        let mut checked = false;
        for seed in 0..40 {
            let n = 3;
            let w = Workload::uniform_random(n, 12, seed);
            let full = run_and_verify(config(n, seed), w.clone(), |_| AsyncProtocol::new(), &spec);
            if full.safe {
                continue;
            }
            assert!(full.live, "async drains");
            let total_events = 4 * full.user_run().len();
            let at = full.detection_event.expect("violation found online");
            assert!(
                at < total_events - 1,
                "seed {seed}: detection at event {at} of {total_events} \
                 must precede the drain"
            );
            // Same seed, halting monitor (the `simulate --online` and
            // `soak` path): identical detection point, and the prefix
            // view is strictly smaller than the full run.
            let mut halting = OnlineMonitor::halting(&spec);
            let early = Simulation::new(config(n, seed), w, |_| AsyncProtocol::new())
                .run_streaming(&mut halting)
                .expect("no protocol bug");
            assert!(halting.violated());
            assert_eq!(halting.detection_event(), full.detection_event);
            assert_eq!(halting.detection_time(), full.detection_time);
            assert!(
                early.run.users_view().len() < full.user_run().len(),
                "seed {seed}: halting before drain must leave messages incomplete"
            );
            checked = true;
        }
        assert!(checked, "no seed produced a FIFO violation");
    }

    /// The real predicate monitor prunes condemned schedule prefixes in
    /// exhaustive exploration, and every surviving run satisfies the spec.
    #[test]
    fn exploration_with_online_monitor_prunes_violating_schedules() {
        let spec = catalog::fifo();
        // Two same-channel messages: async exploration reaches both
        // delivery orders; the monitor must condemn the reordered one.
        let send = |at| msgorder_simnet::SendSpec {
            at,
            src: 0,
            dst: 1,
            color: None,
        };
        let w = Workload {
            sends: vec![send(0), send(1)],
        };
        let opts = ExploreOptions::default();
        let plain = explore(2, w.clone(), |_| AsyncProtocol::new(), &opts, &|_| true);
        assert!(plain.error.is_none());
        let surviving = AtomicUsize::new(0);
        let monitored = explore_monitored(
            2,
            w,
            |_| AsyncProtocol::new(),
            OnlineMonitor::halting(&spec),
            &opts,
            &|run| {
                assert!(
                    eval::find_instantiation(&spec, &run.users_view()).is_none(),
                    "a surviving schedule violates FIFO"
                );
                surviving.fetch_add(1, Ordering::Relaxed);
                true
            },
        );
        let surviving = surviving.into_inner();
        assert!(monitored.error.is_none());
        assert!(monitored.pruned > 0, "reordered schedules must be pruned");
        assert_eq!(monitored.schedules, surviving);
        assert!(
            surviving < plain.schedules,
            "pruning must remove some of the {} schedules",
            plain.schedules
        );
    }

    fn cross_workload(n: usize, msgs: usize) -> Workload {
        // Every process sends `msgs` messages round-robin to the next —
        // plenty of commuting deliveries for the sleep sets to merge.
        let sends = (0..msgs)
            .map(|i| msgorder_simnet::SendSpec {
                at: i as u64,
                src: i % n,
                dst: (i + 1) % n,
                color: None,
            })
            .collect();
        Workload { sends }
    }

    /// FIFO protocol vs FIFO spec: exhaustively safe, and the reduced
    /// search actually skipped commuting interleavings.
    #[test]
    fn fifo_exhaustively_safe_under_reduction() {
        let spec = catalog::fifo();
        let opts = ExploreOptions {
            por: true,
            ..ExploreOptions::default()
        };
        let out = verify_exhaustive(
            3,
            cross_workload(3, 6),
            |_| FifoProtocol::new(),
            &spec,
            &opts,
        );
        assert!(out.safe, "FIFO protocol violates its own spec");
        assert_eq!(out.exploration.pruned, 0);
        assert!(out.exploration.error.is_none());
        assert!(!out.exploration.truncated);
        assert!(
            out.exploration.sleep_skipped > 0,
            "reduction never fired on a commuting workload"
        );
    }

    /// Async vs FIFO: some schedule reorders a channel, and the
    /// exhaustive verdict is identical with and without reduction and
    /// deduplication, on any number of threads.
    #[test]
    fn exhaustive_verdict_stable_across_reduction_and_dedup() {
        let spec = catalog::fifo();
        let send = |at| msgorder_simnet::SendSpec {
            at,
            src: 0,
            dst: 1,
            color: None,
        };
        let w = Workload {
            sends: vec![send(0), send(1), send(2)],
        };
        let variants = [
            ExploreOptions::default(),
            ExploreOptions {
                por: true,
                ..ExploreOptions::default()
            },
            ExploreOptions {
                por: true,
                dedup: DedupMode::Exact,
                ..ExploreOptions::default()
            },
        ];
        for variant in &variants {
            for threads in [1, 2, 4] {
                let opts = &ExploreOptions {
                    threads,
                    ..variant.clone()
                };
                let out = verify_exhaustive(2, w.clone(), |_| AsyncProtocol::new(), &spec, opts);
                assert!(!out.safe, "async must violate FIFO under {opts:?}");
                assert!(out.exploration.pruned > 0);
                let fifo = verify_exhaustive(2, w.clone(), |_| FifoProtocol::new(), &spec, opts);
                assert!(fifo.safe, "FIFO must stay safe under {opts:?}");
            }
        }
    }

    /// A tag's id is handed out by whichever worker first sees the tag,
    /// so the tagged kinds' searches must not depend on the thread
    /// count. Every complete run violates the spec, so equal digests
    /// mean equal sets of views.
    #[test]
    fn tagged_kinds_agree_across_threads() {
        let spec = msgorder_predicate::parse::parse("forbid x: x.s < x.r").expect("parses");
        for kind in [ProtocolKind::Fifo, ProtocolKind::CausalRst] {
            for dedup in [DedupMode::Off, DedupMode::Exact] {
                let search = |threads| {
                    let opts = ExploreOptions {
                        por: true,
                        dedup: dedup.clone(),
                        threads,
                        ..ExploreOptions::default()
                    };
                    let w = Workload::uniform_random(3, 7, 3);
                    let found = explore_violations(
                        3,
                        w,
                        |node| kind.explorable(3, node, false),
                        &spec,
                        &opts,
                    );
                    let e = &found.exploration;
                    let counts = (e.schedules, e.states, e.error.is_none());
                    (counts, found.schedules, found.configs.len(), found.digest())
                };
                let one = search(1);
                assert_eq!(one.1, one.0 .0, "every schedule violates");
                assert!(one.2 > 1, "{} reaches one view", kind.name());
                assert_eq!(search(4), one, "{} under {dedup:?}", kind.name());
            }
        }
    }

    /// The single-thread search is the reference for every other mode,
    /// so its traversal is pinned: `(schedules, pruned, states,
    /// sleep_skipped, truncated)` as captured at the commit before the
    /// sequential and threaded sinks were merged, over reduction ×
    /// seen-set mode × monitoring, plus the cap gate.
    #[test]
    fn single_thread_counters_are_pinned() {
        let spec = catalog::fifo();
        type Counters = (usize, usize, usize, usize, bool);
        let (off, exact, max) = (&DedupMode::Off, &DedupMode::Exact, usize::MAX);
        #[rustfmt::skip]
        let table: [(usize, bool, &DedupMode, bool, Counters); 9] = [
            // cap, por, dedup, monitored, (schedules, pruned, states, sleep_skipped, truncated)
            (max, false, off,      false, (28350, 0,    0,    0,   false)),
            (max, false, off,      true,  (18900, 7544, 0,    0,   false)),
            (max, false, exact,    false, (165,   0,    1359, 0,   false)),
            (max, false, exact,    true,  (91,    186,  1053, 0,   false)),
            (max, true,  off,      false, (165,   0,    0,    240, false)),
            (max, true,  off,      true,  (91,    128,  0,    173, false)),
            (max, true,  exact,    false, (165,   0,    1359, 240, false)),
            (max, true,  exact,    true,  (91,    128,  1053, 173, false)),
            (40,  true,  exact,    true,  (40,    80,   521,  71,  true)),
        ];
        for (cap, por, dedup, monitored, want) in table {
            let opts = ExploreOptions {
                cap,
                por,
                dedup: dedup.clone(),
                ..ExploreOptions::default()
            };
            let w = Workload::uniform_random(3, 5, 3);
            let e = if monitored {
                let monitor = OnlineMonitor::halting(&spec);
                explore_monitored(3, w, |_| AsyncProtocol::new(), monitor, &opts, &|_| true)
            } else {
                explore(3, w, |_| AsyncProtocol::new(), &opts, &|_| true)
            };
            let got = (
                e.schedules,
                e.pruned,
                e.states,
                e.sleep_skipped,
                e.truncated,
            );
            assert_eq!(
                got, want,
                "cap {cap}, por {por}, {dedup:?}, monitored {monitored}"
            );
        }
    }
}
