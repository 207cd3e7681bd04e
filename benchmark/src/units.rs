//! The untraced unit runners: one simulated episode, one live session,
//! or one exploration, called exactly the way a user of the library (or
//! the `msgorder` CLI) calls it, timed from outside, and checked.
//!
//! Nothing here wraps or decorates the code under test — that is the
//! traced run's job (`traced.rs`). The only benchmark-side object on a
//! measured path is [`Window`], the observer that bounds a live
//! session's timed window with two clock reads.

use crate::workloads::{self, Kind, Pinned, PINNED};
use msgorder_bench::snapshot::{timed_explore, ExploreRow};
use msgorder_predicate::{eval, ForbiddenPredicate};
use msgorder_protocols::{run_and_verify, ProtocolKind};
use msgorder_runs::{limit_sets, StreamingRun, SystemEvent};
use msgorder_simnet::{
    DedupMode, ExploreOptions, InProcessHost, RealtimeKernel, RunObserver, SimError, Simulation,
    Stats, StreamResult, Workload,
};
use msgorder_trace::{assemble_trace, parse_spec, Fanout, Recorder, Setup, Trace};
use msgorder_transport::{run_client, serve_on_observed, ClientOptions, Endpoint, ServeOptions};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// What one unit of work measured and whether its output was correct.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Unit {
    /// The timed window, in nanoseconds: the whole call for episodes
    /// and explorations, first-to-last kernel event for live sessions
    /// (bind, handshake and trace assembly are set-up and tear-down).
    pub wall_ns: u64,
    /// User messages delivered inside the window; for explorations,
    /// messages delivered in the explored schedules
    /// (`schedules × messages`).
    pub messages: u64,
    /// Operations attempted: messages, or explorations.
    pub attempted: u64,
    /// Operations that failed a check (see `README.md`).
    pub failed: u64,
    /// Trace fingerprint (episodes, sessions), stats digest (episodes
    /// run without a recorder) or violation digest (explorations): must
    /// repeat exactly across repetitions.
    pub fingerprint: u64,
    /// Why `failed > 0`, for the human reading the log.
    pub notes: Vec<String>,
    /// Complete schedules visited (explorations only).
    pub schedules: u64,
    /// Seen-set states (exact-dedup explorations only).
    pub states: u64,
    /// Duration of the calibration loop next to this unit, in
    /// nanoseconds (see `calib.rs`); filled in by the child's main loop,
    /// `0` where nothing is timed (the memory child).
    pub cal_ns: u64,
}

impl Unit {
    /// Fails the whole unit: a run that is not quiescent, a wrong
    /// verdict or a trace that does not replay taints every operation
    /// in it, not just one.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed = self.attempted;
        self.notes.push(why.into());
    }
}

/// Everything a child parses or resolves once, before the first timed
/// unit.
pub struct Context {
    /// The workload this child runs.
    pub kind: Kind,
    /// The run seed.
    pub seed: u64,
    /// The spec, parsed (`causal` for the verified episodes, `fifo`
    /// for explorations).
    spec: Option<ForbiddenPredicate>,
    /// The registry protocol of episodes and in-process sessions.
    protocol: Option<ProtocolKind>,
    /// First `sim-bare` trace of this child, kept for the replay check
    /// that runs once, after the last timed unit.
    first_trace: Option<Trace>,
}

impl Context {
    /// Resolves `kind`'s spec and protocol.
    pub fn new(kind: Kind, seed: u64) -> Context {
        let spec = kind.spec().map(|s| parse_spec(s).expect("catalog spec"));
        let protocol = (!kind.is_explore()).then(|| {
            ProtocolKind::by_name(kind.protocol(), spec.as_ref()).expect("registry protocol")
        });
        Context {
            kind,
            seed,
            spec,
            protocol,
            first_trace: None,
        }
    }

    /// The parsed spec.
    ///
    /// # Panics
    /// Panics on the spec-less workloads.
    pub fn spec(&self) -> &ForbiddenPredicate {
        self.spec.as_ref().expect("workload has a spec")
    }

    /// The registry protocol.
    ///
    /// # Panics
    /// Panics on the exploration workloads.
    pub fn protocol(&self) -> &ProtocolKind {
        self.protocol.as_ref().expect("workload has a protocol")
    }

    /// Runs unit `unit`, untraced.
    pub fn run_unit(&mut self, unit: u64) -> Unit {
        match self.kind {
            Kind::SimBare => self.sim_bare(unit),
            Kind::SimVerify => self.sim_verify(unit),
            Kind::SimPosthoc => self.sim_posthoc(unit),
            Kind::LiveInproc => self.live_inproc(unit),
            Kind::LiveUnix | Kind::LiveUnixCtl => self.live_unix(unit),
            Kind::ExplorePor | Kind::ExploreDedup => self.explore(unit),
        }
    }

    fn sim_bare(&mut self, unit: u64) -> Unit {
        let setup = workloads::setup(self.kind, self.seed, unit);
        let start = Instant::now();
        let recorded = msgorder_trace::record(&setup).expect("registry protocol");
        let wall_ns = nanos(start);
        let mut u = check_stream(&setup, &recorded.outcome, wall_ns);
        u.fingerprint = recorded.trace.footer.fingerprint;
        if self.first_trace.is_none() {
            self.first_trace = Some(recorded.trace);
        }
        u
    }

    fn sim_verify(&mut self, unit: u64) -> Unit {
        let setup = workloads::setup(self.kind, self.seed, unit);
        let n = setup.processes;
        let kind = self.protocol().clone();
        let start = Instant::now();
        let out = run_and_verify(
            setup.config(),
            setup.workload.clone(),
            |node| kind.instantiate_with(n, node, false),
            self.spec(),
        );
        let wall_ns = nanos(start);
        let mut u = unit_from_stats(&setup, &out.stats, wall_ns);
        if !out.ok() {
            u.fail(format!(
                "verdict: safe={} live={} counterexample={}",
                out.safe,
                out.live,
                out.counterexample.is_some()
            ));
        }
        u
    }

    fn sim_posthoc(&mut self, unit: u64) -> Unit {
        let setup = workloads::setup(self.kind, self.seed, unit);
        let n = setup.processes;
        let kind = self.protocol().clone();
        let start = Instant::now();
        let result = Simulation::new(setup.config(), setup.workload.clone(), |node| {
            kind.instantiate_with(n, node, false)
        })
        .with_step_limit(setup.step_limit)
        .run();
        let verdict = result.as_ref().ok().map(|r| {
            let user = r.run.users_view();
            (
                limit_sets::in_x_co(&user),
                limit_sets::in_x_sync(&user),
                eval::find_instantiation(self.spec(), &user),
            )
        });
        let wall_ns = nanos(start);
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                let mut u = unit_from_stats(&setup, &e.stats, wall_ns);
                u.fail(format!("protocol bug: {e}"));
                return u;
            }
        };
        let mut u = unit_from_stats(&setup, &r.stats, wall_ns);
        if !(r.completed && r.run.is_quiescent()) {
            u.fail("run not quiescent");
        }
        // causal-rst implements causal ordering: the run must lie in
        // X_co and satisfy the spec, whatever the schedule.
        match verdict {
            Some((true, _, None)) => {}
            other => u.fail(format!("post-hoc verdict wrong: {other:?}")),
        }
        u
    }

    fn live_inproc(&mut self, unit: u64) -> Unit {
        let setup = workloads::setup(self.kind, self.seed, unit);
        let n = setup.processes;
        let kind = self.protocol().clone();
        let kernel =
            RealtimeKernel::new(setup.config(), &setup.workload).with_step_limit(setup.step_limit);
        let mut host = InProcessHost::new(n, &setup.workload, |node| {
            kind.instantiate_with(n, node, false)
        });
        let mut recorder = Recorder::with_capacity(setup.workload.len() * 8);
        let mut window = Window::new(setup.workload.len());
        let out = {
            let mut fan = Fanout(vec![&mut recorder, &mut window]);
            kernel.run(&mut host, &mut fan)
        };
        let trace = assemble_trace(&setup, recorder.events, &out.outcome, None)
            .expect("spec-less trace assembles");
        finish_live(&setup, &trace, &out.outcome, &window)
    }

    fn live_unix(&mut self, unit: u64) -> Unit {
        let setup = workloads::setup(self.kind, self.seed, unit);
        let endpoint = unix_endpoint(unit);
        let listener = endpoint.listen().expect("bind unix socket in out/");
        let opts = ServeOptions::new(endpoint.clone(), setup.clone());
        let mut window = Window::new(setup.workload.len());
        let (served, peer_defects) = with_peers(setup.processes, &endpoint, || {
            serve_on_observed(listener, &opts, None, Some(&mut window))
        });
        let served = match served {
            Ok(served) => served,
            Err(e) => {
                let mut u = unit_from_stats(&setup, &Stats::default(), 0);
                u.fail(format!("serve failed: {e}"));
                return u;
            }
        };
        let mut u = finish_live(&setup, &served.trace, &served.outcome, &window);
        if served.crc_rejected != 0 {
            u.fail(format!("server rejected {} frames", served.crc_rejected));
        }
        for defect in peer_defects {
            u.fail(defect);
        }
        u
    }

    /// One pass over the exploration pool, relabelled for `unit`. The
    /// timed window is the sum of the explorations' own wall times; the
    /// POR reference runs that cross-check unit 0's seen-set are outside
    /// it.
    fn explore(&mut self, unit: u64) -> Unit {
        let mut u = Unit {
            attempted: workloads::EXPLORE_POOL.len() as u64,
            fingerprint: FNV_OFFSET,
            ..Unit::default()
        };
        for (shape, pinned) in PINNED.iter().enumerate() {
            let workload = workloads::explore_workload(self.seed, unit, shape);
            let row = self.explore_one(&workload, self.kind == Kind::ExploreDedup);
            let x = &row.exploration;
            u.wall_ns += (row.wall_s * 1e9) as u64;
            u.messages += (x.schedules * workloads::EXPLORE_MESSAGES) as u64;
            u.schedules += x.schedules as u64;
            u.states += x.states as u64;
            u.fingerprint = fnv(u.fingerprint, row.digest);
            let mut why = explore_defects(&row);
            if x.schedules != pinned.schedules || row.violating_configs != pinned.violating {
                why.push(format!(
                    "shape {shape}: {} schedules, {} violating; pinned {pinned:?}",
                    x.schedules, row.violating_configs
                ));
            }
            if self.kind == Kind::ExploreDedup && unit == 0 {
                // The seen-set may prune schedules but never a violating
                // configuration: POR alone must find the same set. One
                // cross-check per repetition, on the seed's own
                // relabelling; later units are held to the pinned counts
                // and to their digest in the other repetitions.
                let reference = self.explore_one(&workload, false);
                if (reference.digest, reference.violating_configs)
                    != (row.digest, row.violating_configs)
                {
                    why.push(format!(
                        "shape {shape}: dedup digest {:#018x} != por digest {:#018x}",
                        row.digest, reference.digest
                    ));
                }
            }
            if !why.is_empty() {
                u.failed += 1;
                u.notes.extend(why);
            }
        }
        u
    }

    fn explore_one(&self, workload: &Workload, dedup: bool) -> ExploreRow {
        timed_explore(
            workloads::EXPLORE_PROCESSES,
            workload,
            self.spec(),
            &explore_options(dedup),
        )
    }

    /// Explores pool shape 0 *unrelabelled* — the exploration
    /// `msgorder explore --messages 7 --seed 3` makes — and holds it to
    /// every pinned number, digest included. Doubles as the exploration
    /// workloads' warm-up.
    pub fn explore_pinned(&self) -> Result<(), String> {
        let dedup = self.kind == Kind::ExploreDedup;
        let row = self.explore_one(&workloads::explore_shape(0), dedup);
        let x = &row.exploration;
        let got = Pinned {
            schedules: x.schedules,
            states: if dedup { x.states } else { PINNED[0].states },
            violating: row.violating_configs,
            digest: row.digest,
        };
        let mut why = explore_defects(&row);
        if got != PINNED[0] {
            why.push(format!(
                "pinned exploration drifted: {got:?} != {:?}",
                PINNED[0]
            ));
        }
        if why.is_empty() {
            Ok(())
        } else {
            Err(why.join("; "))
        }
    }

    /// The once-per-child check outside every timed window: why the
    /// first recorded `sim-bare` episode does not replay bit-exact, if it
    /// does not. Live traces are replayed per unit already.
    pub fn replay_first_trace(&self) -> Option<String> {
        self.first_trace.as_ref().and_then(replay_defect)
    }
}

/// How every exploration in this benchmark is configured: POR on, one
/// thread, exhaustive; exact dedup or none.
pub fn explore_options(dedup: bool) -> ExploreOptions {
    ExploreOptions {
        por: true,
        dedup: if dedup {
            DedupMode::Exact
        } else {
            DedupMode::Off
        },
        ..ExploreOptions::default()
    }
}

/// Runs `serve` while one `run_client` peer per process dials
/// `endpoint` from a thread of this process; returns `serve`'s result
/// and what was wrong with the peers' reports (a reconnect, a CRC
/// reject, a failure), if anything.
pub fn with_peers<R>(
    processes: usize,
    endpoint: &Endpoint,
    serve: impl FnOnce() -> R,
) -> (R, Vec<String>) {
    std::thread::scope(|s| {
        let peers: Vec<_> = (0..processes)
            .map(|node| {
                let client = ClientOptions::new(endpoint.clone(), node);
                s.spawn(move || run_client(&client))
            })
            .collect();
        let served = serve();
        let defects = peers
            .into_iter()
            .enumerate()
            .filter_map(
                |(node, peer)| match peer.join().expect("peer thread does not panic") {
                    Ok(r) if r.connects == 1 && r.crc_rejected == 0 => None,
                    other => Some(format!("peer {node}: {other:?}")),
                },
            )
            .collect();
        (served, defects)
    })
}

/// Why `trace` does not replay bit-exact in the discrete-event
/// simulator, if it does not.
fn replay_defect(trace: &Trace) -> Option<String> {
    match msgorder_trace::replay(trace) {
        Ok(report) if report.ok() => None,
        Ok(report) => Some(format!("trace does not replay: {report:?}")),
        Err(e) => Some(format!("trace does not replay: {e}")),
    }
}

/// The checks every live session gets, whatever host ran it. The replay
/// runs outside the timed window.
fn finish_live(
    setup: &Setup,
    trace: &Trace,
    outcome: &Result<StreamResult, SimError>,
    window: &Window,
) -> Unit {
    let mut u = check_stream(setup, outcome, window.wall_ns());
    u.fingerprint = trace.footer.fingerprint;
    if window.wall_ns() == 0 {
        u.fail("timed window never closed: fewer run events than 4 per message");
    }
    if let Some(defect) = replay_defect(trace) {
        u.fail(defect);
    }
    u
}

fn nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

fn explore_defects(row: &ExploreRow) -> Vec<String> {
    let x = &row.exploration;
    if x.truncated || x.error.is_some() || x.non_live != 0 {
        vec![format!(
            "exploration truncated={} error={} non_live={}",
            x.truncated,
            x.error.is_some(),
            x.non_live
        )]
    } else {
        Vec::new()
    }
}

/// FNV-1a over the counters a schedule change would move — the
/// fingerprint of an episode run without a recorder.
fn stats_digest(stats: &Stats) -> u64 {
    [
        stats.user_messages as u64,
        stats.control_messages as u64,
        stats.tag_bytes as u64,
        stats.total_inhibition,
        stats.total_latency,
        stats.delivered as u64,
        stats.end_time,
        stats.dispatched_events as u64,
        stats.max_queue_depth as u64,
    ]
    .into_iter()
    .fold(FNV_OFFSET, fnv)
}

fn unit_from_stats(setup: &Setup, stats: &Stats, wall_ns: u64) -> Unit {
    let attempted = setup.workload.len() as u64;
    let delivered = stats.delivered as u64;
    let mut u = Unit {
        wall_ns,
        messages: delivered,
        attempted,
        failed: attempted.saturating_sub(delivered),
        fingerprint: stats_digest(stats),
        ..Unit::default()
    };
    if delivered != attempted {
        u.notes
            .push(format!("delivered {delivered} of {attempted}"));
    }
    u
}

fn check_stream(setup: &Setup, outcome: &Result<StreamResult, SimError>, wall_ns: u64) -> Unit {
    match outcome {
        Ok(r) => {
            let mut u = unit_from_stats(setup, &r.stats, wall_ns);
            if !(r.completed && r.run.is_quiescent() && r.run.is_complete()) {
                u.fail("run not quiescent and complete");
            }
            u
        }
        Err(e) => {
            let mut u = unit_from_stats(setup, &e.stats, wall_ns);
            u.fail(format!("protocol bug: {e}"));
            u
        }
    }
}

/// Sockets live under `benchmark/out/`, named by a *relative* path: a
/// checkout can sit arbitrarily deep and `sun_path` holds 108 bytes.
/// The child's working directory is `out/` (see `harness::child_main`).
pub fn unix_endpoint(unit: u64) -> Endpoint {
    Endpoint::Unix(format!("s{}-{unit}.sock", std::process::id()).into())
}

/// Bounds a live session's timed window without touching the clock per
/// event: it counts run events and reads the clock at the first and at
/// the `4 × messages`-th (every message executes `s*`, `s`, `r*`, `r`
/// exactly once on a fault-free run).
pub struct Window {
    expected: usize,
    seen: usize,
    first: Option<Instant>,
    wall_ns: u64,
}

impl Window {
    /// A window over a session of `messages` messages.
    pub fn new(messages: usize) -> Window {
        Window {
            expected: messages * 4,
            seen: 0,
            first: None,
            wall_ns: 0,
        }
    }

    /// The window's length; `0` until the last expected event arrived.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }
}

impl RunObserver for Window {
    fn on_event(
        &mut self,
        _view: &StreamingRun,
        _ev: SystemEvent,
        _index: usize,
        _time: u64,
    ) -> bool {
        if self.seen == 0 {
            self.first = Some(Instant::now());
        }
        self.seen += 1;
        if self.seen == self.expected {
            self.wall_ns = self.first.map_or(0, nanos);
        }
        true
    }
}
