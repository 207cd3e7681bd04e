//! The realtime kernel: the simulator's own event loop paced against
//! the wall clock, driving protocol instances that live behind a
//! [`HostDriver`] (in-process, or real OS processes on real sockets).
//!
//! # Why live runs replay bit-exact
//!
//! The kernel is a *sequencer*: it runs the one event loop of the
//! discrete-event simulator over the same `(time, seq)` order (the
//! sorted request cursor merged with the heap of frames and timers) and
//! dispatches one event at a time, blocking on the host's reply before
//! touching the next event.
//! Three invariants make the recorded trace indistinguishable from a
//! simulated one:
//!
//! 1. **Virtual time is authoritative.** Every event executes at its
//!    scheduled virtual time `ev.time`; the wall clock only *paces* the
//!    loop (sleep until `start + ev.time·tick`) and its lateness is
//!    accounted separately as [`DriftStats`] — it never leaks into the
//!    trace.
//! 2. **Arrival times are fixed at transmit time.** When a dispatch
//!    emits a frame, the kernel measures the wall clock *once*, converts
//!    it to ticks, and injects a [`TransmitDecision`] with
//!    `delay = max(wall+1 − now, 1)` into the same decision path replay
//!    uses. The frame's arrival is pushed into the heap at `now + delay`
//!    like any simulated frame — so the live execution order *is* the
//!    replay order by construction.
//! 3. **Dispatch is atomic.** The host call is a blocking round-trip;
//!    the returned action batch is applied at `ev.time` by the same
//!    function that applies a simulated protocol's
//!    [`Ctx`](crate::Ctx) calls (journal, stats, fault accounting).
//!
//! Replaying the recorded decisions through
//! [`Simulation::with_replay`](crate::Simulation::with_replay) therefore
//! reproduces the identical event sequence, fingerprint, and
//! verdict — a live-socket trace rides the verify/shrink pipeline
//! unchanged (the perp-sim pacing idea from SNIPPETS.md §1, grafted
//! onto the replayable kernel).

use crate::error::{SimError, SimErrorKind};
use crate::host::{HostAction, HostEnv, HostEvent, ProtocolHost};
use crate::kernel::{
    DecisionSource, Driver, Protocol, RunObserver, SimConfig, StreamResult, TransmitDecision, World,
};
use crate::workload::Workload;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A failure dispatching an event to a hosted protocol instance:
/// poisons the run with [`SimErrorKind::HostFailure`].
#[derive(Debug, Clone)]
pub struct HostError {
    /// The process whose host failed.
    pub node: usize,
    /// What the transport reported.
    pub detail: String,
}

impl HostError {
    /// A host error at `node`.
    pub fn new(node: usize, detail: impl Into<String>) -> HostError {
        HostError {
            node,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host failure at process {}: {}", self.node, self.detail)
    }
}

impl std::error::Error for HostError {}

/// Where the realtime kernel sends each event for processing: one
/// protocol instance per process, living wherever the driver keeps them
/// (in this process, or across sockets in real OS processes).
///
/// `dispatch` must be a *blocking* round-trip: the kernel will not move
/// to the next event until the action batch for this one is back — that
/// atomicity is what keeps live runs bit-exact under replay.
pub trait HostDriver {
    /// Processes `ev` at virtual time `now` on the protocol instance for
    /// `node`, returning the emitted actions in emission order.
    fn dispatch(
        &mut self,
        node: usize,
        ev: HostEvent,
        now: u64,
    ) -> Result<Vec<HostAction>, HostError>;
}

/// The realtime kernel's wall-clock source: nanoseconds since an
/// arbitrary epoch fixed no later than the kernel's construction.
///
/// The default is [`MonotonicClock`]; tests inject scripted clocks to
/// exercise drift accounting, including clocks that step backwards
/// (NTP slew, VM pause) — which real deployments do see and which the
/// kernel must *surface*, not clamp away.
pub trait WallClock: Send {
    /// The current reading, in nanoseconds. Readings are compared
    /// against earlier ones; a smaller value is counted as a backwards
    /// clock step, never silently discarded.
    fn now_nanos(&mut self) -> u64;
}

/// The default [`WallClock`]: `Instant::elapsed` since construction,
/// monotone by the standard library's contract.
#[derive(Debug)]
pub struct MonotonicClock(Instant);

impl MonotonicClock {
    /// Starts the clock now.
    pub fn new() -> MonotonicClock {
        MonotonicClock(Instant::now())
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl WallClock for MonotonicClock {
    fn now_nanos(&mut self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Wall-clock drift accounting for one realtime run.
///
/// *Lag* is measured in virtual ticks: how far past its scheduled wall
/// deadline an event actually dispatched (0 when the pacer woke on
/// time). *Drift* is the signed version of the same quantity: negative
/// drift means the wall clock read **earlier** than the virtual
/// schedule — which on a monotone clock only happens transiently, but
/// on a stepping clock (NTP, VM pause) is a real signal. Backwards
/// raw readings are counted separately in `clock_went_backwards`.
/// Free-running mode (`tick == 0`) reports zero lag by definition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriftStats {
    /// Events dispatched.
    pub dispatches: u64,
    /// Events that dispatched at least one tick late.
    pub late: u64,
    /// Worst lag observed, in ticks.
    pub max_lag: u64,
    /// Sum of all lags, in ticks.
    pub total_lag: u64,
    /// Most negative drift observed, in ticks (0 if drift never went
    /// negative). Negative drift was silently clamped to zero before
    /// signed tracking existed — a backwards wall clock looked like a
    /// perfectly punctual run.
    pub min_drift: i64,
    /// Most positive drift observed, in ticks (0 if never late).
    pub max_drift: i64,
    /// Raw clock readings that were smaller than the reading before
    /// them — each one is a wall clock stepping backwards mid-run.
    pub clock_went_backwards: u64,
}

impl DriftStats {
    fn observe(&mut self, drift: i64) {
        self.dispatches += 1;
        if drift > 0 {
            self.late += 1;
            let lag = drift as u64;
            self.max_lag = self.max_lag.max(lag);
            self.total_lag += lag;
        }
        self.min_drift = self.min_drift.min(drift);
        self.max_drift = self.max_drift.max(drift);
    }

    /// Mean lag per dispatch, in ticks.
    pub fn mean_lag(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.total_lag as f64 / self.dispatches as f64
        }
    }
}

/// The outcome of a realtime run: the usual streaming result (or
/// counterexample) plus the wall-clock drift accounting.
#[derive(Debug)]
pub struct RealtimeOutcome {
    /// Exactly what [`Simulation::run_streaming`] would return — a live
    /// trace recorded through an observer replays against the simulator
    /// unchanged.
    ///
    /// [`Simulation::run_streaming`]: crate::Simulation::run_streaming
    pub outcome: Result<StreamResult, SimError>,
    /// Wall-clock pacing accounting.
    pub drift: DriftStats,
}

/// The wall-clock-paced kernel. Construction mirrors
/// [`Simulation::new`](crate::Simulation::new) — same message
/// numbering, same sorted request cursor, same `(time, seq)`
/// tie-breaking — and the event loop is the simulator's own; events are
/// answered by a [`HostDriver`] instead of in-process protocol
/// instances, and the loop sleeps until each event's wall deadline
/// (`ev.time × tick`) before dispatching it.
pub struct RealtimeKernel {
    world: World,
    step_limit: usize,
    pacer: Pacer,
}

/// The wall-clock side of a realtime run: the clock, the tick length,
/// and the drift accounting.
struct Pacer {
    tick: Duration,
    clock: Box<dyn WallClock>,
    /// Epoch reading taken when the run starts; elapsed time is every
    /// later reading minus this, *signed* — a backwards-stepping clock
    /// produces negative elapsed time rather than a silent clamp.
    epoch: u64,
    last_reading: u64,
    drift: DriftStats,
}

impl RealtimeKernel {
    /// Builds a realtime kernel for `config` and `workload`. A workload
    /// request naming a process out of range comes back from
    /// [`run`](RealtimeKernel::run) as a `SimErrorKind::InvalidRequest`
    /// counterexample.
    pub fn new(config: SimConfig, workload: &Workload) -> RealtimeKernel {
        RealtimeKernel {
            world: World::build(config, workload),
            step_limit: 1_000_000,
            pacer: Pacer {
                tick: Duration::ZERO,
                clock: Box::new(MonotonicClock::new()),
                epoch: 0,
                last_reading: 0,
                drift: DriftStats::default(),
            },
        }
    }

    /// Overrides the livelock step limit.
    pub fn with_step_limit(mut self, limit: usize) -> Self {
        self.step_limit = limit;
        self
    }

    /// Sets the wall-clock duration of one virtual tick. `ZERO` (the
    /// default) free-runs: no sleeping, every frame takes one virtual
    /// tick in flight.
    pub fn with_tick(mut self, tick: Duration) -> Self {
        self.pacer.tick = tick;
        self
    }

    /// Replaces the wall-clock source (tests inject scripted clocks;
    /// deployments keep the default [`MonotonicClock`]).
    pub fn with_clock(mut self, clock: impl WallClock + 'static) -> Self {
        self.pacer.clock = Box::new(clock);
        self
    }

    /// Runs the workload through `host`, feeding every run/wire/fault
    /// event to `obs` exactly as [`Simulation::run_streaming`] does.
    ///
    /// [`Simulation::run_streaming`]: crate::Simulation::run_streaming
    pub fn run(mut self, host: &mut dyn HostDriver, obs: &mut dyn RunObserver) -> RealtimeOutcome {
        // All network decisions are injected just-in-time from wall
        // measurements; the sampling RNGs are never consulted.
        self.world.decisions = DecisionSource::Replay(VecDeque::new());
        self.pacer.epoch = self.pacer.clock.now_nanos();
        self.pacer.last_reading = self.pacer.epoch;
        let mut live = Live {
            host,
            pacer: self.pacer,
        };
        let outcome = self.world.run(self.step_limit, &mut live, Some(obs));
        RealtimeOutcome {
            outcome,
            drift: live.pacer.drift,
        }
    }
}

impl Pacer {
    /// Reads the clock, counting backwards steps against the previous
    /// raw reading, and returns signed nanoseconds since the epoch.
    fn elapsed_nanos(&mut self) -> i128 {
        let reading = self.clock.now_nanos();
        if reading < self.last_reading {
            self.drift.clock_went_backwards += 1;
        }
        self.last_reading = reading;
        i128::from(reading) - i128::from(self.epoch)
    }

    /// Wall time since the epoch, in whole virtual ticks (signed —
    /// negative when the clock stepped back past the epoch).
    /// Free-running mode pins the wall clock to the virtual clock.
    fn wall_ticks(&mut self, now: u64) -> i64 {
        if self.tick.is_zero() {
            return i64::try_from(now).unwrap_or(i64::MAX);
        }
        let ticks = self.elapsed_nanos() / self.tick.as_nanos() as i128;
        i64::try_from(ticks).unwrap_or(if ticks > 0 { i64::MAX } else { i64::MIN })
    }
}

/// The realtime [`Driver`]: paces against the wall clock and answers
/// events with a blocking round trip through the host.
struct Live<'a> {
    host: &'a mut dyn HostDriver,
    pacer: Pacer,
}

impl Driver for Live<'_> {
    /// Sleeps until `time`'s wall deadline (no-op when free-running or
    /// already past it).
    fn pace(&mut self, time: u64) {
        let pacer = &mut self.pacer;
        if pacer.tick.is_zero() {
            return;
        }
        let Some(deadline) = pacer.tick.as_nanos().checked_mul(u128::from(time)) else {
            return; // virtual time too large to pace — run as fast as possible
        };
        let elapsed = pacer.elapsed_nanos();
        let remaining = i128::try_from(deadline).unwrap_or(i128::MAX) - elapsed;
        if let (Ok(remaining), true) = (u64::try_from(remaining), remaining > 0) {
            std::thread::sleep(Duration::from_nanos(remaining));
        }
    }

    /// Dispatches one admitted event through the host and applies the
    /// returned batch: measures the wall clock once, injects one
    /// [`TransmitDecision`] per transmit-type action (arrival at
    /// `max(wall+1, now+1)`), then applies the actions at `now`.
    fn react(&mut self, world: &mut World, node: usize, ev: HostEvent) {
        let now = world.now;
        let mut actions = match self.host.dispatch(node, ev, now) {
            Ok(actions) => actions,
            Err(e) => {
                world.fail(e.node, None, SimErrorKind::HostFailure { detail: e.detail });
                return;
            }
        };
        let wall = self.pacer.wall_ticks(now);
        self.pacer.drift.observe(wall.saturating_sub_unsigned(now));
        let transmits = actions.iter().filter(|a| a.is_transmit()).count();
        if transmits > 0 {
            // Arrival stays in the future even when the wall clock reads
            // behind (or has stepped backwards past) the virtual clock.
            let delay = (wall.saturating_add(1).saturating_sub_unsigned(now)).max(1);
            let decision = TransmitDecision {
                delay: u64::try_from(delay).unwrap_or(1).max(1),
                ..TransmitDecision::default()
            };
            if let DecisionSource::Replay(log) = &mut world.decisions {
                log.extend(std::iter::repeat_n(decision, transmits));
            }
        }
        world.apply(node, &mut actions);
    }
}

/// A [`HostDriver`] keeping every protocol instance in this process —
/// the degenerate transport. Useful for tests and as the reference a
/// socket transport must be observationally equivalent to: a protocol
/// behaves identically under [`Simulation`](crate::Simulation), under
/// `InProcessHost`, and across real sockets, because all three hand the
/// same [`Protocol`] objects the same [`Ctx`](crate::Ctx).
pub struct InProcessHost {
    protocols: Vec<Box<dyn Protocol>>,
    envs: Vec<HostEnv>,
}

impl InProcessHost {
    /// One boxed protocol instance per process, from `factory`.
    pub fn new(
        processes: usize,
        workload: &Workload,
        factory: impl Fn(usize) -> Box<dyn Protocol>,
    ) -> InProcessHost {
        InProcessHost {
            protocols: (0..processes).map(&factory).collect(),
            envs: (0..processes)
                .map(|node| HostEnv::new(node, processes, workload))
                .collect(),
        }
    }
}

impl HostDriver for InProcessHost {
    fn dispatch(
        &mut self,
        node: usize,
        ev: HostEvent,
        now: u64,
    ) -> Result<Vec<HostAction>, HostError> {
        let env = self
            .envs
            .get_mut(node)
            .ok_or_else(|| HostError::new(node, "process id out of range"))?;
        env.set_now(now);
        self.protocols[node].process_event(env, ev);
        Ok(env.take_actions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Ctx;
    use crate::latency::LatencyModel;
    use msgorder_runs::{MessageId, ProcessId};

    /// Send and deliver immediately.
    struct Immediate;
    impl Protocol for Immediate {
        fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
            ctx.send_user(msg, Vec::new());
        }
        fn on_user_frame(
            &mut self,
            ctx: &mut Ctx<'_>,
            _from: ProcessId,
            msg: MessageId,
            _tag: Vec<u8>,
        ) {
            ctx.deliver(msg);
        }
    }

    struct Sink;
    impl RunObserver for Sink {
        fn on_event(
            &mut self,
            _view: &msgorder_runs::StreamingRun,
            _ev: msgorder_runs::SystemEvent,
            _index: usize,
            _time: u64,
        ) -> bool {
            true
        }
    }

    fn config(n: usize) -> SimConfig {
        SimConfig::new(n, LatencyModel::Fixed(1), 0)
    }

    #[test]
    fn free_running_realtime_run_completes_quiescent() {
        let w = Workload::uniform_random(3, 20, 7);
        let mut host = InProcessHost::new(3, &w, |_| Box::new(Immediate));
        let out = RealtimeKernel::new(config(3), &w).run(&mut host, &mut Sink);
        let r = out.outcome.expect("no protocol bug");
        assert!(r.completed && !r.halted);
        assert!(r.run.is_quiescent() && r.run.is_complete());
        assert_eq!(r.stats.delivered, 20);
        assert_eq!(
            out.drift.dispatches,
            r.stats.dispatched_events as u64 + 3,
            "+init"
        );
        assert_eq!(out.drift.late, 0, "free-run never lags");
    }

    #[test]
    fn out_of_range_workload_process_is_a_counterexample_not_a_panic() {
        let mut w = Workload::uniform_random(2, 3, 7);
        w.sends[0].dst = 7;
        let mut host = InProcessHost::new(2, &w, |_| Box::new(Immediate));
        let out = RealtimeKernel::new(config(2), &w).run(&mut host, &mut Sink);
        let e = out.outcome.unwrap_err();
        assert_eq!(e.kind.discriminant_name(), "invalid-request");
        assert_eq!(out.drift.dispatches, 0, "nothing reaches the host");
    }

    #[test]
    fn paced_run_tracks_wall_clock() {
        let w = Workload::uniform_random(2, 3, 1);
        let mut host = InProcessHost::new(2, &w, |_| Box::new(Immediate));
        let start = Instant::now();
        let out = RealtimeKernel::new(config(2), &w)
            .with_tick(Duration::from_micros(200))
            .run(&mut host, &mut Sink);
        let r = out.outcome.expect("no protocol bug");
        assert!(r.completed);
        // The last event's wall deadline must have been awaited.
        let min = Duration::from_micros(200) * u32::try_from(r.stats.end_time).expect("small");
        assert!(
            start.elapsed() >= min,
            "paced run finished before its last deadline"
        );
    }

    /// A wall clock that steps backwards by a fixed amount on every
    /// reading after the first — the NTP-slew/VM-pause shape the drift
    /// accounting must surface instead of clamping to zero.
    struct BackwardsClock {
        reading: u64,
        step: u64,
        reads: u64,
    }

    impl WallClock for BackwardsClock {
        fn now_nanos(&mut self) -> u64 {
            self.reads += 1;
            if self.reads > 1 {
                self.reading = self.reading.saturating_sub(self.step);
            }
            self.reading
        }
    }

    #[test]
    fn backwards_clock_is_surfaced_not_clamped() {
        let w = Workload::uniform_random(2, 4, 3);
        let mut host = InProcessHost::new(2, &w, |_| Box::new(Immediate));
        let out = RealtimeKernel::new(config(2), &w)
            .with_tick(Duration::from_nanos(1))
            .with_clock(BackwardsClock {
                reading: 1_000_000,
                step: 50,
                reads: 0,
            })
            .run(&mut host, &mut Sink);
        let r = out.outcome.expect("no protocol bug");
        assert!(r.completed && !r.halted);
        assert!(
            out.drift.clock_went_backwards > 0,
            "every post-epoch reading steps back: {:?}",
            out.drift
        );
        assert!(
            out.drift.min_drift < 0,
            "negative drift must be recorded, not clamped: {:?}",
            out.drift
        );
        assert_eq!(out.drift.late, 0, "a clock running early is never late");
        assert_eq!(out.drift.total_lag, 0, "lag accounting stays positive-only");
    }

    #[test]
    fn monotonic_free_run_reports_no_backwards_steps() {
        let w = Workload::uniform_random(3, 10, 9);
        let mut host = InProcessHost::new(3, &w, |_| Box::new(Immediate));
        let out = RealtimeKernel::new(config(3), &w).run(&mut host, &mut Sink);
        assert!(out.outcome.is_ok());
        assert_eq!(out.drift.clock_went_backwards, 0);
        assert_eq!(out.drift.min_drift, 0);
    }

    #[test]
    fn host_failure_poisons_with_structured_error() {
        struct Broken;
        impl HostDriver for Broken {
            fn dispatch(
                &mut self,
                node: usize,
                _ev: HostEvent,
                _now: u64,
            ) -> Result<Vec<HostAction>, HostError> {
                Err(HostError::new(node, "wire gone"))
            }
        }
        let w = Workload::uniform_random(2, 1, 0);
        let out = RealtimeKernel::new(config(2), &w).run(&mut Broken, &mut Sink);
        let e = out.outcome.expect_err("host failure is an error");
        assert!(
            matches!(&e.kind, SimErrorKind::HostFailure { detail } if detail == "wire gone"),
            "{e}"
        );
        assert_eq!(e.kind.discriminant_name(), "host-failure");
    }

    #[test]
    fn out_of_range_actions_poison_instead_of_indexing() {
        /// Answers every request with one fixed action, as a hostile or
        /// buggy peer on the far side of a socket could.
        struct Hostile(HostAction);
        impl HostDriver for Hostile {
            fn dispatch(
                &mut self,
                _node: usize,
                ev: HostEvent,
                _now: u64,
            ) -> Result<Vec<HostAction>, HostError> {
                Ok(match ev {
                    HostEvent::Request { .. } => vec![self.0.clone()],
                    _ => Vec::new(),
                })
            }
        }
        let far = ProcessId(1_000_000);
        for bad in [
            HostAction::Deliver {
                msg: MessageId(1_000_000),
            },
            HostAction::SendUser {
                msg: MessageId(3),
                tag: Vec::new(),
            },
            HostAction::SendControl {
                to: far,
                bytes: vec![1],
            },
            HostAction::RejectFrame {
                from: far,
                reason: crate::RejectReason::Malformed,
            },
        ] {
            let w = Workload::uniform_random(2, 3, 0);
            let out = RealtimeKernel::new(config(2), &w).run(&mut Hostile(bad.clone()), &mut Sink);
            let e = out.outcome.expect_err("out-of-range action is an error");
            assert!(
                matches!(&e.kind, SimErrorKind::HostFailure { .. }),
                "{bad:?}: {e}"
            );
        }
    }

    #[test]
    fn live_behavior_matches_the_simulator_on_the_same_protocol() {
        // Same protocol, same workload: the realtime kernel (free-run)
        // and the simulator agree on the logical run shape.
        let w = Workload::uniform_random(3, 12, 5);
        let mut host = InProcessHost::new(3, &w, |_| Box::new(Immediate));
        let live = RealtimeKernel::new(config(3), &w)
            .run(&mut host, &mut Sink)
            .outcome
            .expect("ok");
        let sim = crate::Simulation::run_uniform(config(3), w, |_| Immediate).expect("ok");
        assert_eq!(live.stats.user_messages, sim.stats.user_messages);
        assert_eq!(live.stats.delivered, sim.stats.delivered);
        assert!(live.run.is_quiescent());
    }
}
