//! The traced run's two halves.
//!
//! [`rerun`] repeats the named workload with every decorator on, keeps
//! the spans in memory, turns them into per-layer self-time shares and
//! writes `out/trace-<workload>.json`.
//!
//! [`layer_profile`] prices each layer in isolation, the same way
//! whatever workload was named: pure functions are timed in a loop,
//! everything else is read off the spans of a few traced units. Inputs
//! come from the run seed, so the program under test still only ever
//! sees generated episodes.
//!
//! Loop timings report the *fastest* of a few repetitions: noise on a
//! shared VM only ever adds time, so the minimum is the estimate least
//! disturbed by it. `*_allocs` are exact counts from the counting
//! allocator and must repeat run to run.

use crate::span::{self, Layer, Span};
use crate::stats::{highest_supported_tail, median, percentile_sorted};
use crate::traced::{live_socket_traced, Sink, TracedUnit};
use crate::units::{explore_options, Context};
use crate::workloads::{self, Kind};
use msgorder_bench::snapshot::timed_explore;
use msgorder_poset::words;
use msgorder_predicate::eval::Prepared;
use msgorder_protocols::AsyncProtocol;
use msgorder_runs::{limit_sets, MessageId, UserEvent};
use msgorder_simnet::{
    explore_parallel_with, ExploreOptions, HostAction, HostDriver, HostError, HostEvent,
    InProcessHost, RealtimeKernel, RunObserver, Simulation,
};
use msgorder_testkit::counting;
use msgorder_trace::{assemble_trace, LiveMetrics, Recorder, SharedRegistry, Trace};
use msgorder_transport::wire::{ActionMsg, EventMsg, CH_ACTION, CH_EVENT};
use msgorder_transport::{crc32, frame, Decoder, Endpoint};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// Fastest of `reps` timings of `f`, in nanoseconds.
fn best_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn sum(spans: &[Span], name: &str) -> f64 {
    span::durations(spans, name).iter().sum::<u64>() as f64
}

/// Sum of `values` (one per span, e.g. self times) over the spans
/// called `name`.
fn sum_where(spans: &[Span], values: &[u64], name: &str) -> f64 {
    spans
        .iter()
        .zip(values)
        .filter(|(s, _)| s.name == name)
        .map(|(_, v)| *v as f64)
        .sum()
}

/// The protocol callbacks among `spans`, `on_init` aside (it runs once
/// per process, not per dispatch).
fn callbacks(spans: &[Span]) -> impl Iterator<Item = &Span> {
    spans
        .iter()
        .filter(|s| s.layer == Layer::Protocols && s.name != "protocol.on_init")
}

fn mean(values: &[u64]) -> f64 {
    values.iter().sum::<u64>() as f64 / values.len().max(1) as f64
}

/// Inserts percentile `p` of `sorted` under `name`; a tail with fewer
/// than ten samples beyond it is a defect, not a number.
fn insert_percentile(
    m: &mut Metrics,
    defects: &mut Vec<String>,
    name: &str,
    sorted: &[f64],
    p: f64,
) {
    if p > 50.0 && highest_supported_tail(sorted.len()).is_none_or(|top| top < p) {
        defects.push(format!(
            "{name}: {} samples do not support p{p}",
            sorted.len()
        ));
    }
    m.insert(name.to_owned(), percentile_sorted(sorted, p));
}

fn sorted_us(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Traced units per rerun: enough spans for stable shares, few enough
/// that the trace file stays a few MiB.
fn rerun_units(kind: Kind) -> u64 {
    match kind {
        Kind::SimBare => 8,
        Kind::SimVerify => 3,
        Kind::SimPosthoc => 2,
        Kind::LiveInproc => 4,
        Kind::LiveUnix | Kind::LiveUnixCtl => 2,
        Kind::ExplorePor | Kind::ExploreDedup => 2,
    }
}

/// The part of a traced unit that corresponds to the untraced unit's
/// timed window.
fn traced_window_ns(kind: Kind, spans: &[Span]) -> f64 {
    if kind.is_live() {
        sum(spans, "simnet.realtime_run")
    } else if kind.is_explore() {
        sum(spans, "simnet.explore")
    } else {
        span::root_ns(spans) as f64
    }
}

/// Reruns `kind` traced: alternates untraced and traced executions of
/// the same units, writes the span file, and reports self-time shares,
/// span coverage and tracing overhead.
pub fn rerun(kind: Kind, seed: u64, m: &mut Metrics, defects: &mut Vec<String>) {
    let mut ctx = Context::new(kind, seed);
    let warm = ctx.run_unit(0);
    defects.extend(warm.notes);
    let units = rerun_units(kind);
    let mut plain_ns = 0.0;
    let mut traced_wall_ns = 0.0;
    span::arm();
    for unit in 0..units {
        let plain = ctx.run_unit(unit);
        plain_ns += plain.wall_ns as f64;
        defects.extend(plain.notes);
        let start = Instant::now();
        let traced = ctx.run_unit_traced(unit, unit as u32);
        traced_wall_ns += start.elapsed().as_nanos() as f64;
        defects.extend(traced.defects);
    }
    let spans = span::take();
    let root = span::root_ns(&spans) as f64;
    for (layer, own) in span::self_by_layer(&spans) {
        m.insert(
            format!("self_share.{}", layer.name()),
            own as f64 / root * 100.0,
        );
    }
    m.insert("span_coverage".into(), root / traced_wall_ns * 100.0);
    m.insert(
        "tracing_overhead_pct".into(),
        (traced_window_ns(kind, &spans) / plain_ns - 1.0) * 100.0,
    );
    let path = crate::env::out_dir().join(format!("trace-{}.json", kind.name()));
    if let Err(e) = span::write_json(&path, kind.name(), traced_wall_ns as u64, &spans) {
        defects.push(format!("writing {}: {e}", path.display()));
    }
}

/// Runs `body` with span recording armed and hands back its spans.
fn with_spans<R>(body: impl FnOnce() -> R) -> (R, Vec<Span>) {
    span::arm();
    let out = body();
    (out, span::take())
}

fn poset(seed: u64, m: &mut Metrics) {
    for processes in [4usize, 64] {
        // 256 clocks of `processes` words with small random entries.
        let mut state = seed;
        let mut clocks: Vec<Vec<u64>> = (0..256)
            .map(|_| {
                (0..processes)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        state >> 58
                    })
                    .collect()
            })
            .collect();
        let pairs = 255 * 64;
        let before = best_ns(5, || {
            let mut hits = 0u32;
            for _ in 0..64 {
                for i in 0..255 {
                    hits += u32::from(words::happened_before(&clocks[i], &clocks[i + 1]));
                }
            }
            hits
        });
        m.insert(
            format!("poset.words_before_ns.p{processes}"),
            before / pairs as f64,
        );
        let merge = best_ns(5, || {
            for _ in 0..64 {
                for i in 0..255 {
                    let (dst, src) = clocks.split_at_mut(i + 1);
                    words::merge_in_place(&mut dst[i], &src[0]);
                }
            }
        });
        m.insert(
            format!("poset.words_merge_ns.p{processes}"),
            merge / pairs as f64,
        );
    }
}

/// `runs` and `trace` rows, all measured on one recorded `sim-bare`
/// episode; also the `predicate`/`runs` post-hoc rows on one
/// `sim-posthoc` episode.
fn runs_trace_predicate(seed: u64, m: &mut Metrics, defects: &mut Vec<String>) {
    let setup = workloads::setup(Kind::SimBare, seed, 0);
    let recorded = msgorder_trace::record(&setup).expect("registry protocol");
    let trace: Trace = recorded.trace;
    let events = trace.events.len() as f64;
    let run_events = trace.run_events().count() as f64;

    // runs: the arena, fed the recorded event sequence.
    let append = best_ns(5, || {
        msgorder_trace::reconstruct(&trace).expect("valid trace")
    });
    m.insert("runs.arena_append_ns".into(), append / run_events);
    let (run, allocs) = counting(|| msgorder_trace::reconstruct(&trace).expect("valid trace"));
    m.insert("runs.arena_append_allocs".into(), allocs as f64);
    let probes = 256.min(setup.workload.len());
    let before = best_ns(5, || {
        let mut hits = 0u32;
        for a in 0..probes {
            for b in 0..probes {
                let (a, b) = (
                    UserEvent::send(MessageId(a)),
                    UserEvent::deliver(MessageId(b)),
                );
                hits += u32::from(run.before(a, b));
            }
        }
        hits
    });
    m.insert("runs.before_ns".into(), before / (probes * probes) as f64);

    // trace: recorder against a no-op observer, then the file pipeline.
    let n = setup.processes;
    let kind = Context::new(Kind::SimBare, seed).protocol().clone();
    let episode = |obs: &mut dyn RunObserver| {
        Simulation::new(setup.config(), setup.workload.clone(), |node| {
            kind.instantiate_with(n, node, false)
        })
        .run_streaming(obs)
        .expect("no protocol bug")
    };
    let with_sink = best_ns(7, || episode(&mut Sink));
    let with_recorder = best_ns(7, || {
        let mut recorder = Recorder::with_capacity(setup.workload.len() * 8);
        episode(&mut recorder);
        recorder
    });
    m.insert(
        "trace.recorder_event_ns".into(),
        (with_recorder - with_sink) / events,
    );
    let with_live = best_ns(7, || {
        let mut live = LiveMetrics::new(SharedRegistry::new());
        episode(&mut live);
        live.finish();
    });
    m.insert(
        "trace.live_metrics_overhead_pct".into(),
        (with_live / with_sink - 1.0) * 100.0,
    );

    let mut copies: Vec<_> = (0..3).map(|_| trace.events.clone()).collect();
    let assemble = best_ns(3, || {
        let events = copies.pop().expect("one copy per repetition");
        assemble_trace(&setup, events, &recorded.outcome, None).expect("assembles")
    });
    m.insert("trace.assemble_ns_per_event".into(), assemble / events);
    let text = trace.to_jsonl().expect("serializes");
    m.insert("trace.bytes_per_event".into(), text.len() as f64 / events);
    let to_jsonl = best_ns(3, || trace.to_jsonl().expect("serializes"));
    m.insert("trace.to_jsonl_ns_per_event".into(), to_jsonl / events);
    let from_jsonl = best_ns(3, || Trace::from_jsonl(&text).expect("parses"));
    m.insert("trace.from_jsonl_ns_per_event".into(), from_jsonl / events);
    let mut replay_ok = true;
    let replay = best_ns(3, || {
        replay_ok &= msgorder_trace::replay(&trace).is_ok_and(|r| r.ok());
    });
    m.insert("trace.replay_ns_per_event".into(), replay / events);
    if !replay_ok {
        defects.push("profile episode does not replay".into());
    }

    // The post-hoc path on one episode: closure-based run, limit sets,
    // prepared evaluation.
    let ctx = Context::new(Kind::SimPosthoc, seed);
    let setup = workloads::setup(Kind::SimPosthoc, seed, 0);
    let result = Simulation::new(setup.config(), setup.workload.clone(), |node| {
        kind.instantiate_with(n, node, false)
    })
    .run()
    .expect("no protocol bug");
    let users_view = best_ns(2, || result.run.users_view());
    m.insert("runs.users_view_ms".into(), users_view / 1e6);
    let user = result.run.users_view();
    let limit = best_ns(2, || {
        (limit_sets::in_x_co(&user), limit_sets::in_x_sync(&user))
    });
    m.insert("runs.limit_sets_ms".into(), limit / 1e6);
    let prepared = Prepared::new(ctx.spec());
    let eval = best_ns(2, || prepared.find_instantiation(&user));
    m.insert("predicate.prepared_eval_ms".into(), eval / 1e6);
}

/// `protocols`, `simnet` kernel and `predicate` monitor rows, read off
/// the spans of traced episodes.
fn simulated(seed: u64, m: &mut Metrics, defects: &mut Vec<String>) {
    // causal-rst under a no-op observer: kernel self time and protocol
    // callbacks with nothing else in the loop.
    let ctx = Context::new(Kind::SimBare, seed);
    let (units, spans) = with_spans(|| {
        (0..4)
            .map(|unit| {
                let setup = workloads::setup(Kind::SimBare, seed, unit);
                let _root = span::enter("unit", Layer::Harness);
                ctx.sim_setup_traced(&setup, Sink, Layer::Harness).0
            })
            .collect::<Vec<TracedUnit>>()
    });
    let dispatches: u64 = units.iter().map(|u| u.dispatches).sum();
    let messages: usize = units.iter().map(|u| u.stats.delivered).sum();
    let own = span::self_times(&spans);
    let own_allocs = span::self_allocs(&spans);
    let kernel = "simnet.run_streaming";
    m.insert(
        "simnet.kernel_self_ns".into(),
        sum_where(&spans, &own, kernel) / dispatches as f64,
    );
    m.insert(
        "simnet.kernel_allocs_per_msg".into(),
        sum_where(&spans, &own_allocs, kernel) / messages as f64,
    );
    let callback_ns: Vec<u64> = callbacks(&spans).map(Span::duration_ns).collect();
    let callback_allocs: Vec<u64> = callbacks(&spans).map(|s| s.allocs).collect();
    m.insert(
        "protocols.dispatch_ns.causal-rst".into(),
        mean(&callback_ns),
    );
    m.insert("protocols.dispatch_allocs".into(), mean(&callback_allocs));
    let stats = &units[0].stats;
    m.insert(
        "protocols.tag_bytes_per_msg".into(),
        stats.tag_bytes_per_user(),
    );
    defects.extend(units.into_iter().flat_map(|u| u.defects));

    // sync: the same episodes under the general (control-frame) protocol.
    let sync = Context::new(Kind::LiveUnixCtl, seed);
    let mut setup = workloads::setup(Kind::SimBare, seed, 0);
    setup.protocol = Kind::LiveUnixCtl.protocol().to_owned();
    let ((unit, _, _), spans) = with_spans(|| sync.sim_setup_traced(&setup, Sink, Layer::Harness));
    let callback_ns: Vec<u64> = callbacks(&spans).map(Span::duration_ns).collect();
    m.insert("protocols.dispatch_ns.sync".into(), mean(&callback_ns));
    m.insert(
        "protocols.control_frames_per_msg".into(),
        unit.stats.control_per_user(),
    );
    defects.extend(unit.defects);

    // The online monitor on verified episodes.
    let mut verify = Context::new(Kind::SimVerify, seed);
    let (units, spans) = with_spans(|| {
        (0..2)
            .map(|unit| verify.run_unit_traced(unit, unit as u32))
            .collect::<Vec<TracedUnit>>()
    });
    let messages: usize = units.iter().map(|u| u.stats.delivered).sum();
    let monitor: Vec<&Span> = spans
        .iter()
        .filter(|s| s.layer == Layer::Predicate)
        .collect();
    let on_complete = span::durations(&spans, "observer.on_deliver");
    m.insert(
        "predicate.monitor_on_complete_ns".into(),
        mean(&on_complete),
    );
    m.insert(
        "predicate.monitor_allocs_per_msg".into(),
        monitor.iter().map(|s| s.allocs).sum::<u64>() as f64 / messages as f64,
    );
    m.insert(
        "predicate.monitor_share".into(),
        monitor.iter().map(|s| s.duration_ns()).sum::<u64>() as f64 / span::root_ns(&spans) as f64
            * 100.0,
    );
    defects.extend(units.into_iter().flat_map(|u| u.defects));
}

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

/// `transport` rows that need no socket: JSON, framing and CRC on the
/// messages a `live-inproc` session actually exchanges.
fn wire_functions(seed: u64, m: &mut Metrics) {
    let setup = workloads::setup(Kind::LiveInproc, seed, 0);
    let n = setup.processes;
    let kind = Context::new(Kind::LiveInproc, seed).protocol().clone();
    let mut capture = Capture {
        inner: InProcessHost::new(n, &setup.workload, |node| {
            kind.instantiate_with(n, node, false)
        }),
        seqs: vec![0; n],
        events: Vec::new(),
        actions: Vec::new(),
    };
    RealtimeKernel::new(setup.config(), &setup.workload)
        .with_step_limit(setup.step_limit)
        .run(&mut capture, &mut Sink);
    let messages = (capture.events.len() + capture.actions.len()) as f64;

    let encode = best_ns(3, || {
        for ev in &capture.events {
            black_box(serde_json::to_vec(ev).expect("serializes"));
        }
        for a in &capture.actions {
            black_box(serde_json::to_vec(a).expect("serializes"));
        }
    });
    m.insert("transport.json_encode_ns".into(), encode / messages);
    let event_payloads: Vec<Vec<u8>> = capture
        .events
        .iter()
        .map(|ev| serde_json::to_vec(ev).expect("serializes"))
        .collect();
    let action_payloads: Vec<Vec<u8>> = capture
        .actions
        .iter()
        .map(|a| serde_json::to_vec(a).expect("serializes"))
        .collect();
    let decode = best_ns(3, || {
        for p in &event_payloads {
            black_box(serde_json::from_slice::<EventMsg>(p).expect("parses"));
        }
        for p in &action_payloads {
            black_box(serde_json::from_slice::<ActionMsg>(p).expect("parses"));
        }
    });
    m.insert("transport.json_decode_ns".into(), decode / messages);

    let payloads = || {
        let events = event_payloads.iter().map(|p| (CH_EVENT, p));
        events.chain(action_payloads.iter().map(|p| (CH_ACTION, p)))
    };
    let frame_encode = best_ns(3, || {
        for (channel, p) in payloads() {
            black_box(frame::encode_crc(channel, p).expect("fits"));
        }
    });
    m.insert("transport.frame_encode_ns".into(), frame_encode / messages);
    let frames: Vec<Vec<u8>> = payloads()
        .map(|(channel, p)| frame::encode_crc(channel, p).expect("fits"))
        .collect();
    let frame_decode = best_ns(3, || {
        let mut decoder = Decoder::new();
        decoder.enable_crc();
        for f in &frames {
            decoder.push(f);
            black_box(decoder.try_next().expect("well-framed"));
        }
    });
    m.insert("transport.frame_decode_ns".into(), frame_decode / messages);
    // One typical frame, after the decoder's buffer has grown: exact
    // allocator calls to encode it and to decode it.
    let mut decoder = Decoder::new();
    decoder.enable_crc();
    decoder.push(&frames[0]);
    decoder.try_next().expect("well-framed");
    let typical = &event_payloads[event_payloads.len() / 2];
    let ((), allocs) = counting(|| {
        let f = frame::encode_crc(CH_EVENT, typical).expect("fits");
        decoder.push(&f);
        black_box(decoder.try_next().expect("well-framed"));
    });
    m.insert("transport.frame_allocs".into(), allocs as f64);

    let block = vec![0xa5u8; 64 * 1024];
    let crc = best_ns(5, || crc32(black_box(&block)));
    m.insert("transport.crc32_ns_per_kib".into(), crc / 64.0);
}

/// `simnet.realtime_self_ns` and the socket rows, read off traced live
/// sessions: in-process, Unix socket, TCP loopback.
fn live_sessions(seed: u64, m: &mut Metrics, defects: &mut Vec<String>) {
    let mut inproc = Context::new(Kind::LiveInproc, seed);
    let (units, spans) = with_spans(|| {
        (0..3)
            .map(|unit| inproc.run_unit_traced(unit, unit as u32))
            .collect::<Vec<TracedUnit>>()
    });
    let dispatches: u64 = units.iter().map(|u| u.dispatches).sum();
    let own = span::self_times(&spans);
    let realtime_self = sum_where(&spans, &own, "simnet.realtime_run");
    m.insert(
        "simnet.realtime_self_ns".into(),
        realtime_self / dispatches as f64,
    );
    defects.extend(units.into_iter().flat_map(|u| u.defects));

    let mut unix = Context::new(Kind::LiveUnix, seed);
    let cpu_before = crate::env::cpu_seconds();
    let (units, spans) = with_spans(|| {
        (0..3)
            .map(|unit| unix.run_unit_traced(unit, unit as u32))
            .collect::<Vec<TracedUnit>>()
    });
    let cpu_after = crate::env::cpu_seconds();
    m.insert("transport.cpu_user_s".into(), cpu_after.0 - cpu_before.0);
    m.insert("transport.cpu_sys_s".into(), cpu_after.1 - cpu_before.1);
    let dispatches: u64 = units.iter().map(|u| u.dispatches).sum();
    let messages: usize = units.iter().map(|u| u.stats.delivered).sum();
    let rtt = sorted_us(&span::durations(&spans, "host.dispatch"));
    insert_percentile(m, defects, "transport.dispatch_rtt_us_p50", &rtt, 50.0);
    insert_percentile(m, defects, "transport.dispatch_rtt_us_p99", &rtt, 99.0);
    m.insert(
        "transport.rtt_share".into(),
        sum(&spans, "host.dispatch") / sum(&spans, "simnet.realtime_run") * 100.0,
    );
    m.insert(
        "transport.dispatches_per_msg".into(),
        dispatches as f64 / messages as f64,
    );
    let handshakes: Vec<f64> = span::durations(&spans, "transport.handshake")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    m.insert("transport.handshake_ms".into(), median(&handshakes));
    let latencies: Vec<u64> = units
        .iter()
        .flat_map(|u| u.latencies_ns.iter().copied())
        .collect();
    let latencies = sorted_us(&latencies);
    for (name, p) in [("p50", 50.0), ("p99", 99.0), ("p999", 99.9)] {
        let name = format!("transport.deliver_latency_us_{name}");
        insert_percentile(m, defects, &name, &latencies, p);
    }
    defects.extend(units.into_iter().flat_map(|u| u.defects));

    let setup = workloads::setup(Kind::LiveUnix, seed, 0);
    let (unit, spans) = with_spans(|| {
        let _root = span::enter("unit", Layer::Harness);
        live_socket_traced(&setup, Endpoint::Tcp("127.0.0.1:0".into()))
    });
    let rtt = sorted_us(&span::durations(&spans, "host.dispatch"));
    insert_percentile(m, defects, "transport.tcp_rtt_us_p50", &rtt, 50.0);
    defects.extend(unit.defects);
}

/// The explorer rows, on pool shape 0 as `msgorder explore` builds it.
fn explorer(m: &mut Metrics, ctx: &Context) {
    let shape = workloads::explore_shape(0);
    let por = explore_options(false);
    let with_visitor = timed_explore(workloads::EXPLORE_PROCESSES, &shape, ctx.spec(), &por);
    let x = &with_visitor.exploration;
    m.insert(
        "simnet.explore_schedules_per_s".into(),
        with_visitor.schedules_per_sec(),
    );
    m.insert(
        "simnet.explore_sleep_skipped".into(),
        x.sleep_skipped as f64,
    );
    // The same search with a visitor that looks at nothing: what is
    // left is the engine (step, undo, sleep sets).
    let engine = best_ns(1, || {
        explore_parallel_with(
            workloads::EXPLORE_PROCESSES,
            shape.clone(),
            |_| AsyncProtocol::new(),
            &por,
            &|_| true,
        )
    });
    m.insert(
        "simnet.explore_engine_share".into(),
        engine / (with_visitor.wall_s * 1e9) * 100.0,
    );
    let dedup = explore_options(true);
    let seen = timed_explore(workloads::EXPLORE_PROCESSES, &shape, ctx.spec(), &dedup);
    m.insert(
        "simnet.explore_states_per_s".into(),
        seen.exploration.states as f64 / seen.wall_s,
    );
}

/// Wall-time ratio of exploring pool shape 0 on one thread and on two.
/// Run by the *unpinned* parent, so the two workers can land on two
/// cores; with `nproc = 1` it measures the threaded engine's overhead.
pub fn explore_speedup_2t() -> f64 {
    let ctx = Context::new(Kind::ExplorePor, 0);
    let shape = workloads::explore_shape(0);
    let wall = |threads| {
        let opts = ExploreOptions {
            threads,
            ..explore_options(false)
        };
        (0..3)
            .map(|_| timed_explore(workloads::EXPLORE_PROCESSES, &shape, ctx.spec(), &opts).wall_s)
            .fold(f64::INFINITY, f64::min)
    };
    wall(1) / wall(2)
}

/// Prices every layer in isolation (see the module docs). Everything
/// except `simnet.explore_speedup_2t`, which the parent adds.
pub fn layer_profile(seed: u64, m: &mut Metrics, defects: &mut Vec<String>) {
    poset(seed, m);
    runs_trace_predicate(seed, m, defects);
    simulated(seed, m, defects);
    wire_functions(seed, m);
    live_sessions(seed, m, defects);
    explorer(m, &Context::new(Kind::ExplorePor, seed));
}
