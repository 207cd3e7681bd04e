//! The traced unit runners: the same episodes, sessions and
//! explorations as `units.rs`, rebuilt from the same public pieces with
//! timing decorators around every public trait the stack exposes
//! ([`Protocol`], [`HostDriver`], [`RunObserver`]) and a span around
//! every public call. Nothing under `crates/` is touched; spans inside
//! the program are a later change.
//!
//! Span tree per unit (layer in brackets):
//!
//! ```text
//! unit [harness]
//! ├─ simnet.run_streaming | simnet.run | simnet.realtime_run | simnet.explore  [simnet]
//! │   ├─ host.dispatch            [simnet in-process · transport over a socket]
//! │   │   └─ protocol.on_*        [protocols]   (in-process hosts only)
//! │   ├─ protocol.on_*            [protocols]   (simulated episodes)
//! │   ├─ observer.on_event/on_wire [trace recorder · predicate monitor]
//! │   └─ runs.users_view, predicate.find_instantiation, runs.run_digest  (explorer visitor)
//! ├─ transport.handshake, transport.farewell   [transport]
//! ├─ trace.assemble                            [trace]
//! └─ runs.users_view, runs.limit_sets, predicate.find_instantiation  (post-hoc episode)
//! ```

use crate::span::{self, Layer};
use crate::units::{explore_options, unix_endpoint, with_peers, Context};
use crate::workloads::{self, Kind};
use msgorder_bench::snapshot::run_digest;
use msgorder_predicate::eval;
use msgorder_protocols::OnlineMonitor;
use msgorder_runs::{limit_sets, EventKind, MessageId, ProcessId, StreamingRun, SystemEvent};
use msgorder_simnet::{
    explore_parallel_with, Ctx, FaultRecord, HostAction, HostDriver, HostError, HostEvent,
    InProcessHost, Protocol, RealtimeKernel, RunObserver, SimError, Simulation, Stats,
    StreamResult, WireRecord,
};
use msgorder_trace::{assemble_trace, Recorder, Setup};
use msgorder_transport::{Endpoint, ServeOptions, SocketHost};
use std::time::Instant;

/// Times every callback of the wrapped protocol.
pub struct TimedProtocol<P>(pub P);

impl<P: Protocol> Protocol for TimedProtocol<P> {
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        let _span = span::enter("protocol.on_init", Layer::Protocols);
        self.0.on_init(ctx);
    }
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        let _span = span::enter("protocol.on_send_request", Layer::Protocols);
        self.0.on_send_request(ctx, msg);
    }
    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId, tag: Vec<u8>) {
        let _span = span::enter("protocol.on_user_frame", Layer::Protocols);
        self.0.on_user_frame(ctx, from, msg, tag);
    }
    fn on_control_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, bytes: Vec<u8>) {
        let _span = span::enter("protocol.on_control_frame", Layer::Protocols);
        self.0.on_control_frame(ctx, from, bytes);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let _span = span::enter("protocol.on_timer", Layer::Protocols);
        self.0.on_timer(ctx, id);
    }
}

/// Times every dispatch through the wrapped host, charged to `layer`:
/// the in-process host is simnet's own glue, the socket host is the
/// wire round trip.
pub struct TimedHost<H> {
    /// The real host.
    pub inner: H,
    /// The layer a dispatch's self time belongs to.
    pub layer: Layer,
}

impl<H: HostDriver> HostDriver for TimedHost<H> {
    fn dispatch(
        &mut self,
        node: usize,
        ev: HostEvent,
        now: u64,
    ) -> Result<Vec<HostAction>, HostError> {
        let _span = span::enter("host.dispatch", self.layer);
        self.inner.dispatch(node, ev, now)
    }
}

/// Times every notification the kernel hands the wrapped observer.
pub struct TimedObserver<O> {
    /// The real observer.
    pub inner: O,
    /// The layer the observer belongs to (recorder: trace, monitor:
    /// predicate).
    pub layer: Layer,
}

impl<O: RunObserver> RunObserver for TimedObserver<O> {
    fn on_event(&mut self, view: &StreamingRun, ev: SystemEvent, index: usize, time: u64) -> bool {
        let name = if ev.kind == EventKind::Deliver {
            "observer.on_deliver"
        } else {
            "observer.on_event"
        };
        let _span = span::enter(name, self.layer);
        self.inner.on_event(view, ev, index, time)
    }
    fn on_wire(&mut self, wire: &WireRecord) {
        let _span = span::enter("observer.on_wire", self.layer);
        self.inner.on_wire(wire);
    }
    fn on_fault(&mut self, fault: &FaultRecord) {
        let _span = span::enter("observer.on_fault", self.layer);
        self.inner.on_fault(fault);
    }
    fn wants_wire(&self) -> bool {
        self.inner.wants_wire()
    }
}

/// An observer that keeps nothing but opts into wire records like the
/// recorder does — the "no observer" side of recorder-cost comparisons.
pub struct Sink;

impl RunObserver for Sink {
    fn on_event(&mut self, _: &StreamingRun, _: SystemEvent, _: usize, _: u64) -> bool {
        true
    }
    fn wants_wire(&self) -> bool {
        true
    }
}

/// Stamps wall time on every message's `x.s*` and `x.r` as the kernel
/// reports them: the invoke-to-deliver latency a user of a live session
/// sees.
pub struct Stamper {
    invoked: Vec<Option<Instant>>,
    /// Invoke-to-deliver latencies, in nanoseconds, in delivery order.
    pub latencies_ns: Vec<u64>,
}

impl Stamper {
    /// A stamper for a session of `messages` messages.
    pub fn new(messages: usize) -> Stamper {
        Stamper {
            invoked: vec![None; messages],
            latencies_ns: Vec::with_capacity(messages),
        }
    }
}

impl RunObserver for Stamper {
    fn on_event(&mut self, _: &StreamingRun, ev: SystemEvent, _: usize, _: u64) -> bool {
        match ev.kind {
            EventKind::Invoke => self.invoked[ev.msg.0] = Some(Instant::now()),
            EventKind::Deliver => {
                if let Some(at) = self.invoked[ev.msg.0] {
                    self.latencies_ns.push(at.elapsed().as_nanos() as u64);
                }
            }
            _ => {}
        }
        true
    }
}

/// What a traced unit hands back besides its spans.
#[derive(Debug, Default)]
pub struct TracedUnit {
    /// Kernel counters of the run (zeroed for explorations).
    pub stats: Stats,
    /// Kernel dispatches, including the per-process `Init`.
    pub dispatches: u64,
    /// Invoke-to-deliver wall latencies (live sessions only).
    pub latencies_ns: Vec<u64>,
    /// Schedules visited (explorations only).
    pub schedules: u64,
    /// Why the unit's output was wrong, if it was.
    pub defects: Vec<String>,
}

impl Context {
    /// Runs unit `unit` with every decorator on, under a `unit` root
    /// span stamped with `run_id`. Span recording must be armed.
    pub fn run_unit_traced(&mut self, unit: u64, run_id: u32) -> TracedUnit {
        span::set_run(run_id);
        let _root = span::enter("unit", Layer::Harness);
        match self.kind {
            Kind::SimBare => self.sim_bare_traced(unit),
            Kind::SimVerify => self.sim_verify_traced(unit),
            Kind::SimPosthoc => self.sim_posthoc_traced(unit),
            Kind::LiveInproc => self.live_inproc_traced(unit),
            Kind::LiveUnix | Kind::LiveUnixCtl => {
                let setup = workloads::setup(self.kind, self.seed, unit);
                live_socket_traced(&setup, unix_endpoint(unit))
            }
            Kind::ExplorePor | Kind::ExploreDedup => self.explore_traced(unit),
        }
    }

    /// A simulated episode of `setup` with `observer` attached — what
    /// `trace::record` does, rebuilt from its public pieces; hands back
    /// the observer and the finished run. Also the layer profile's way
    /// to run an episode under any observer.
    pub fn sim_setup_traced<O: RunObserver>(
        &self,
        setup: &Setup,
        observer: O,
        layer: Layer,
    ) -> (TracedUnit, O, Result<StreamResult, SimError>) {
        let n = setup.processes;
        let kind = self.protocol().clone();
        let sim = Simulation::new(setup.config(), setup.workload.clone(), |node| {
            TimedProtocol(kind.instantiate_with(n, node, false))
        })
        .with_step_limit(setup.step_limit);
        let mut observer = TimedObserver {
            inner: observer,
            layer,
        };
        let outcome = {
            let _span = span::enter("simnet.run_streaming", Layer::Simnet);
            sim.run_streaming(&mut observer)
        };
        let mut out = TracedUnit::default();
        match &outcome {
            Ok(r) => {
                out.stats = r.stats.clone();
                out.dispatches = (r.stats.dispatched_events + n) as u64;
                if !(r.completed
                    && r.run.is_quiescent()
                    && r.stats.delivered == setup.workload.len())
                {
                    out.defects.push("traced episode not quiescent".into());
                }
            }
            Err(e) => out.defects.push(format!("traced episode: {e}")),
        }
        (out, observer.inner, outcome)
    }

    fn sim_bare_traced(&self, unit: u64) -> TracedUnit {
        let setup = workloads::setup(self.kind, self.seed, unit);
        let recorder = Recorder::with_capacity(setup.workload.len() * 8);
        let (mut out, recorder, outcome) = self.sim_setup_traced(&setup, recorder, Layer::Trace);
        let _span = span::enter("trace.assemble", Layer::Trace);
        if let Err(e) = assemble_trace(&setup, recorder.events, &outcome, None) {
            out.defects.push(format!("traced episode trace: {e}"));
        }
        out
    }

    fn sim_verify_traced(&self, unit: u64) -> TracedUnit {
        let setup = workloads::setup(self.kind, self.seed, unit);
        let monitor = OnlineMonitor::new(self.spec());
        // `run_and_verify` = run_streaming under the online monitor, then
        // the user's view of the result.
        let (mut out, monitor, result) = self.sim_setup_traced(&setup, monitor, Layer::Predicate);
        if let Ok(r) = result {
            let _span = span::enter("runs.users_view", Layer::Runs);
            std::hint::black_box(r.run.users_view());
        }
        if monitor.violated() {
            out.defects
                .push("causal-rst violated causal ordering".into());
        }
        out
    }

    fn sim_posthoc_traced(&self, unit: u64) -> TracedUnit {
        let setup = workloads::setup(self.kind, self.seed, unit);
        let n = setup.processes;
        let kind = self.protocol().clone();
        let sim = Simulation::new(setup.config(), setup.workload.clone(), |node| {
            TimedProtocol(kind.instantiate_with(n, node, false))
        })
        .with_step_limit(setup.step_limit);
        let result = {
            let _span = span::enter("simnet.run", Layer::Simnet);
            sim.run()
        };
        let mut out = TracedUnit::default();
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                out.defects.push(format!("traced episode: {e}"));
                return out;
            }
        };
        let user = {
            let _span = span::enter("runs.users_view", Layer::Runs);
            r.run.users_view()
        };
        let in_co = {
            let _span = span::enter("runs.limit_sets", Layer::Runs);
            let co = limit_sets::in_x_co(&user);
            std::hint::black_box(limit_sets::in_x_sync(&user));
            co
        };
        let witness = {
            let _span = span::enter("predicate.find_instantiation", Layer::Predicate);
            eval::find_instantiation(self.spec(), &user)
        };
        if !in_co || witness.is_some() {
            out.defects.push("post-hoc verdict wrong".into());
        }
        out.dispatches = (r.stats.dispatched_events + n) as u64;
        out.stats = r.stats;
        out
    }

    fn live_inproc_traced(&self, unit: u64) -> TracedUnit {
        let setup = workloads::setup(self.kind, self.seed, unit);
        let n = setup.processes;
        let kind = self.protocol().clone();
        let host = InProcessHost::new(n, &setup.workload, |node| {
            Box::new(TimedProtocol(kind.instantiate_with(n, node, false)))
        });
        live_traced(
            &setup,
            &mut TimedHost {
                inner: host,
                layer: Layer::Simnet,
            },
        )
    }

    fn explore_traced(&self, unit: u64) -> TracedUnit {
        let mut out = TracedUnit::default();
        let spec = self.spec();
        for shape in 0..workloads::EXPLORE_POOL.len() {
            let workload = workloads::explore_workload(self.seed, unit, shape);
            let opts = explore_options(self.kind == Kind::ExploreDedup);
            let violating = std::sync::Mutex::new(std::collections::BTreeSet::new());
            // The CLI's visitor, one span per step. `threads: 1` keeps
            // the visitor on this thread, where the spans are recorded.
            let visitor = |run: &msgorder_runs::SystemRun| {
                let user = {
                    let _span = span::enter("runs.users_view", Layer::Runs);
                    run.users_view()
                };
                let witness = {
                    let _span = span::enter("predicate.find_instantiation", Layer::Predicate);
                    eval::find_instantiation(spec, &user)
                };
                if witness.is_some() {
                    let _span = span::enter("runs.run_digest", Layer::Runs);
                    violating
                        .lock()
                        .expect("the visitor does not panic")
                        .insert(run_digest(run));
                }
                true
            };
            let exploration = {
                let _span = span::enter("simnet.explore", Layer::Simnet);
                explore_parallel_with(
                    workloads::EXPLORE_PROCESSES,
                    workload,
                    |_| msgorder_protocols::AsyncProtocol::new(),
                    &opts,
                    &visitor,
                )
            };
            out.schedules += exploration.schedules as u64;
            let pinned = &workloads::PINNED[shape];
            if exploration.schedules != pinned.schedules
                || violating.lock().expect("the visitor does not panic").len() != pinned.violating
            {
                out.defects
                    .push(format!("traced exploration of shape {shape} drifted"));
            }
        }
        out
    }
}

/// A live session through `host`, recorded — `serve_on_observed`'s
/// kernel half, rebuilt from its public pieces.
fn live_traced(setup: &Setup, host: &mut dyn HostDriver) -> TracedUnit {
    let kernel =
        RealtimeKernel::new(setup.config(), &setup.workload).with_step_limit(setup.step_limit);
    let mut recorder = TimedObserver {
        inner: Recorder::with_capacity(setup.workload.len() * 8),
        layer: Layer::Trace,
    };
    let mut stamper = Stamper::new(setup.workload.len());
    let run = {
        let _span = span::enter("simnet.realtime_run", Layer::Simnet);
        let mut fan = msgorder_trace::Fanout(vec![&mut recorder, &mut stamper]);
        kernel.run(host, &mut fan)
    };
    let mut out = TracedUnit {
        dispatches: run.drift.dispatches,
        latencies_ns: stamper.latencies_ns,
        ..TracedUnit::default()
    };
    let trace = {
        let _span = span::enter("trace.assemble", Layer::Trace);
        assemble_trace(setup, recorder.inner.events, &run.outcome, None)
    };
    match (&run.outcome, trace) {
        (Ok(r), Ok(_)) if r.completed && r.stats.delivered == setup.workload.len() => {
            out.stats = r.stats.clone();
        }
        (Ok(_), Ok(_)) => out
            .defects
            .push("traced session did not deliver everything".into()),
        (Err(e), _) => out.defects.push(format!("traced session: {e}")),
        (_, Err(e)) => out.defects.push(format!("traced session trace: {e}")),
    }
    out
}

/// A live session over a real socket at `endpoint` (Unix or TCP
/// loopback) with both peers on threads of this process —
/// `serve_on_observed` rebuilt so the socket host can be decorated.
pub fn live_socket_traced(setup: &Setup, endpoint: Endpoint) -> TracedUnit {
    let listener = match endpoint.listen() {
        Ok(l) => l,
        Err(e) => {
            return TracedUnit {
                defects: vec![format!("bind {endpoint}: {e}")],
                ..TracedUnit::default()
            }
        }
    };
    // Port 0 resolves at bind time; peers dial the real address.
    let endpoint = listener.local_endpoint().unwrap_or(endpoint);
    let opts = ServeOptions::new(endpoint.clone(), setup.clone());
    let (mut out, peer_defects) = with_peers(setup.processes, &endpoint, || {
        let host = {
            let _span = span::enter("transport.handshake", Layer::Transport);
            SocketHost::new(listener, &opts)
                .map_err(|e| e.to_string())
                .and_then(|mut h| h.await_peers().map(|()| h).map_err(|e| e.to_string()))
        };
        match host {
            Ok(host) => {
                let mut host = TimedHost {
                    inner: host,
                    layer: Layer::Transport,
                };
                let out = live_traced(setup, &mut host);
                let _span = span::enter("transport.farewell", Layer::Transport);
                host.inner.farewell();
                out
            }
            Err(e) => TracedUnit {
                defects: vec![format!("handshake: {e}")],
                ..TracedUnit::default()
            },
        }
    });
    out.defects.extend(peer_defects);
    out
}
