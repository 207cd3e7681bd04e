//! The cost table: every deterministic per-layer counter the test suite
//! bounds, one row per bound.
//!
//! A row is a layer of the stack (runs arena → predicate monitor →
//! simnet kernel and explorer → protocols → transport), an operation, a
//! bound, the regression the bound exists to catch, and a `measure`
//! that returns the reading. Readings are allocator calls or bytes
//! (through one counting global allocator), order queries and clock
//! reads (through one counting [`OrderView`]), or tag bytes; none is a
//! time, so a reading does not move with the machine's speed or load.
//! Structural facts a reading depends on (schedule and state counts,
//! quiescence, the error a cyclic order gets) are asserted inside the
//! row's `measure`.
//!
//! [`check`] measures the rows a test selects, in table order, and fails
//! with their whole table when any reading is over its bound.
//! `tests/costs.rs` checks every row and prints the table:
//!
//! ```text
//! cargo test --release --test costs -- --nocapture
//! ```
//!
//! `tests/alloc_guard.rs`, `tests/mem_guard.rs` and
//! `tests/monitor_cost.rs` check the rows of one guard each.

use msgorder::predicate::{
    catalog,
    eval::{self, EvalScratch, Monitor, Prepared},
    ForbiddenPredicate,
};
use msgorder::protocols::{explore_violations, AsyncProtocol, CausalRst, ProtocolKind};
use msgorder::runs::generator::{random_system_run, GenParams};
use msgorder::runs::{
    limit_sets, EventKind, MessageId, MessageMeta, OrderView, ProcessId, RunError, StreamingRun,
    SystemEvent, UserEvent, UserRun, UserRunSnapshot,
};
use msgorder::simnet::{
    explore, Ctx, DedupMode, ExploreOptions, FaultModel, KernelEvent, LatencyModel, Protocol,
    RunObserver, SendSpec, SimConfig, Simulation, SortedSlab, Workload,
};
use msgorder::trace::{Setup, Trace};
use msgorder::transport::{run_client, serve_on_observed, ClientOptions, Endpoint, ServeOptions};
use msgorder_testkit::{allocated_bytes, allocations, counting, largest_request, CountingAlloc};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

#[global_allocator]
static ALLOC: CountedThreads = CountedThreads;

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Hands the allocations of marked threads to [`CountingAlloc`] and all
/// others straight to [`System`]: the test harness and the other tests
/// of a binary allocate while a row counts, and must not add to it.
/// [`check`] marks its own thread; a row that starts threads marks them.
struct CountedThreads;

// SAFETY: both paths delegate unchanged to `System` (`CountingAlloc`
// only counts first); the flag is a const-initialised thread-local with
// no destructor, readable at any point of a thread's life.
unsafe impl GlobalAlloc for CountedThreads {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTED.get() {
            CountingAlloc.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTED.get() {
            CountingAlloc.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}

/// One bounded counter.
pub struct Cost {
    pub layer: &'static str,
    pub operation: &'static str,
    /// The largest reading that passes.
    bound: f64,
    /// The regression the bound exists for.
    catches: &'static str,
    measure: fn() -> f64,
}

#[rustfmt::skip]
const COSTS: &[Cost] = &[
    Cost { layer: "runs", operation: "append 16 declared messages, one at a time (calls)", bound: 0.0,
           catches: "a `Vec` pushed past its reserved capacity, or a clock built out of line", measure: append_in_order },
    Cost { layer: "runs", operation: "append 12 declared messages, stage by stage (calls)", bound: 0.0,
           catches: "interleaved appends outgrowing the arena's reservation", measure: append_stage_by_stage },
    Cost { layer: "runs", operation: "`users_view`, 7 messages (calls)", bound: 16.0,
           catches: "a closure built from per-node lists or per-row bitsets", measure: small_users_view },
    Cost { layer: "runs", operation: "`users_view`, 2 000 messages (calls)", bound: 16.0,
           catches: "allocator calls that grow with the run's size", measure: || posthoc(0) },
    Cost { layer: "runs", operation: "`users_view`, 2 000 messages (bytes)", bound: 370_072.0,
           catches: "a closure built by the projection (4 671 824 with its two matrices), or more than one clock per user event", measure: || posthoc(1) },
    Cost { layer: "runs", operation: "`in_x_sync`, 2 000 messages (calls)", bound: 6.0,
           catches: "a per-node `DiGraph` on the verdict path", measure: || posthoc(2) },
    Cost { layer: "runs", operation: "post-hoc `users_view` + `in_x_co` + `in_x_sync`, 2 000 messages (bytes)", bound: 450_080.0,
           catches: "a closure built to decide `X_co` (4 751 800 with one), or `X_sync` decided on the full message-precedence digraph", measure: || posthoc(3) },
    Cost { layer: "runs", operation: "largest allocation, post-hoc 2 000-message causal-rst episode (bytes)", bound: 500_000.0,
           catches: "a `Θ(m²)` closure matrix on the product path (one is 2 016 000 bytes)", measure: posthoc_largest_request },
    Cost { layer: "runs", operation: "reject a cyclic 2 000-message order (bytes)", bound: 2_015_999.0,
           catches: "a closure matrix allocated before the cycle is found", measure: reject_cyclic_order },
    Cost { layer: "predicate", operation: "`Monitor::on_complete`, late half of 2 000 deliveries (calls)", bound: 0.0,
           catches: "a per-delivery `Vec`, or the join's feed log left to grow by doubling", measure: || monitor_feed(catalog::causal()) },
    Cost { layer: "predicate", operation: "`Monitor::on_complete` against fifo, late half of 2 000 deliveries (calls)", bound: 0.0,
           catches: "a per-delivery `Vec` on the fifo join's path", measure: || monitor_feed(catalog::fifo()) },
    Cost { layer: "predicate", operation: "`Monitor::on_complete` against causal `B1`, late half of 2 000 deliveries (calls)", bound: 0.0,
           catches: "index inserts, candidate lists or the narrowing pool left to grow by doubling", measure: || monitor_feed(catalog::causal_b1()) },
    Cost { layer: "predicate", operation: "`before` per delivery, causal-rst, 2 000 messages", bound: 0.0,
           catches: "a clean `causal` delivery searched instead of decided by the join", measure: || monitor_queries(catalog::causal(), 2_000).0 },
    Cost { layer: "predicate", operation: "`before` per delivery, causal-rst, 8 000 messages", bound: 0.0,
           catches: "order queries on the join's steady state", measure: || monitor_queries(catalog::causal(), 8_000).0 },
    Cost { layer: "predicate", operation: "`event_clock` per delivery, causal-rst, 2 000 messages", bound: 2.0,
           catches: "clock reads beyond the fresh message's two, or the log indexed before the check fires", measure: || monitor_queries(catalog::causal(), 2_000).1 },
    Cost { layer: "predicate", operation: "`event_clock` per delivery, causal-rst, 8 000 messages", bound: 2.0,
           catches: "clock reads that grow with the run", measure: || monitor_queries(catalog::causal(), 8_000).1 },
    Cost { layer: "predicate", operation: "`before` per delivery, causal-rst against fifo, 2 000 messages", bound: 0.0,
           catches: "an order query on a clean `fifo` delivery", measure: || monitor_queries(catalog::fifo(), 2_000).0 },
    Cost { layer: "predicate", operation: "`before` per delivery, causal-rst against fifo, 8 000 messages", bound: 0.0,
           catches: "order queries on the fifo join's steady state", measure: || monitor_queries(catalog::fifo(), 8_000).0 },
    Cost { layer: "predicate", operation: "`event_clock` per delivery, causal-rst against fifo, 2 000 messages", bound: 2.0,
           catches: "a clean `fifo` delivery searched instead of decided by the join (10.45 through the index)", measure: || monitor_queries(catalog::fifo(), 2_000).1 },
    Cost { layer: "predicate", operation: "`event_clock` per delivery, causal-rst against fifo, 8 000 messages", bound: 2.0,
           catches: "clock reads that grow with the run", measure: || monitor_queries(catalog::fifo(), 8_000).1 },
    Cost { layer: "predicate", operation: "`before` per delivery, causal-rst against causal `B1`, 2 000 messages", bound: 8.0,
           catches: "a search over every earlier-completed message", measure: || monitor_queries(catalog::causal_b1(), 2_000).0 },
    Cost { layer: "predicate", operation: "`before` per delivery, causal-rst against causal `B1`, 8 000 messages", bound: 8.0,
           catches: "order queries that grow with the run", measure: || monitor_queries(catalog::causal_b1(), 8_000).0 },
    Cost { layer: "predicate", operation: "`event_clock` per delivery, causal-rst against causal `B1`, 2 000 messages", bound: 16.0,
           catches: "cut bounds binary-searched over whole lists, or the fresh message pinned", measure: || monitor_queries(catalog::causal_b1(), 2_000).1 },
    Cost { layer: "predicate", operation: "`event_clock` per delivery, causal-rst against causal `B1`, 8 000 messages", bound: 16.0,
           catches: "clock reads that grow with the run", measure: || monitor_queries(catalog::causal_b1(), 8_000).1 },
    Cost { layer: "simnet", operation: "dispatch, late half of a 24-message tagless run (calls)", bound: 0.0,
           catches: "an allocation per delivered message in the kernel", measure: || dispatch(|_| Immediate) },
    Cost { layer: "simnet", operation: "dispatch, `SortedSlab`-backed protocol state (calls)", bound: 0.0,
           catches: "slab-backed state that does not settle to zero allocations", measure: || dispatch(|_| PerPeer::default()) },
    Cost { layer: "simnet", operation: "explore, 15 schedules (calls)", bound: 112.0,
           catches: "a state cloned per branch, or a node's transitions in a fresh vector", measure: || explore_same_channel(3, 15) },
    Cost { layer: "simnet", operation: "explore, 15 → 945 schedules (added calls)", bound: 128.0,
           catches: "calls that grow with the schedule count, not the depth", measure: explore_growth },
    Cost { layer: "simnet", operation: "explore POR, pool shape 0, 6 070 schedules (calls)", bound: 400.0,
           catches: "reduced-search calls no longer bounded by depth", measure: explore_pool_por },
    Cost { layer: "simnet", operation: "explore exact, 24 states (calls)", bound: 168.0,
           catches: "a key or a sleep set boxed per state", measure: explore_exact },
    Cost { layer: "simnet", operation: "explore POR + exact, pool shape 0, 49 318 states (calls)", bound: 600.0,
           catches: "the seen-set allocating per state", measure: explore_pool_exact },
    Cost { layer: "protocols", operation: "causal-rst dispatch, late half (calls per send)", bound: 1.05,
           catches: "an allocation beyond the tag buffer the frame hands over", measure: causal_rst_dispatch },
    Cost { layer: "protocols", operation: "`explore_violations` leaf check beyond the search (calls per leaf)", bound: 0.0933,
           catches: "a view built or a snapshot digested per leaf", measure: checked_leaf },
    Cost { layer: "protocols", operation: "leaf check, `before` + `event_clock` per leaf, pool shape 0, fifo", bound: 10.75,
           catches: "order asked of candidates the process constraints rule out", measure: leaf_queries },
    Cost { layer: "protocols", operation: "tag bytes per user message, fifo, 400 messages", bound: 8.0,
           catches: "a wider sequence-number tag", measure: || tag_bytes(ProtocolKind::Fifo, 400) },
    Cost { layer: "protocols", operation: "tag bytes per user message, causal-rst, 400 messages", bound: 17.0,
           catches: "a wider or less sparse matrix tag", measure: || tag_bytes(ProtocolKind::CausalRst, 400) },
    Cost { layer: "protocols", operation: "tag bytes per user message, causal-ses, 400 messages", bound: 137.9875,
           catches: "constraint sets that are pruned less", measure: || tag_bytes(ProtocolKind::CausalSes, 400) },
    Cost { layer: "protocols", operation: "tag bytes per user message, flush, 400 messages", bound: 41.7,
           catches: "a wider flush tag", measure: || tag_bytes(ProtocolKind::Flush, 400) },
    Cost { layer: "protocols", operation: "tag bytes per user message, synthesized(causal), 100 messages", bound: 2_983.91,
           catches: "more knowledge piggybacked per tag", measure: || tag_bytes(ProtocolKind::Synthesized(vec![catalog::causal()]), 100) },
    Cost { layer: "protocols", operation: "control bytes per user message, sync, 400 messages", bound: 12.0,
           catches: "a wider control frame (25.0 as JSON)", measure: || control_bytes(ProtocolKind::Sync, false) },
    Cost { layer: "protocols", operation: "control bytes per user message, sync-batched, 400 messages", bound: 4.12,
           catches: "a wider control frame (5.25 as JSON)", measure: || control_bytes(ProtocolKind::SyncBatched, false) },
    Cost { layer: "protocols", operation: "control bytes per user message, fifo --reliable, 400 messages", bound: 3.68,
           catches: "a wider ack (10.0 with a magic byte, an opcode and an 8-byte id)", measure: || control_bytes(ProtocolKind::Fifo, true) },
    Cost { layer: "protocols", operation: "explore POR, pool shape 0, async (calls)", bound: 402.0,
           catches: "calls added to the tagless floor by the registry's enum", measure: || explore_kind(ProtocolKind::Async) },
    Cost { layer: "protocols", operation: "explore POR, pool shape 0, fifo (calls)", bound: 254_949.0,
           catches: "more calls per copied protocol state", measure: || explore_kind(ProtocolKind::Fifo) },
    Cost { layer: "protocols", operation: "explore POR, pool shape 0, causal-rst (calls)", bound: 218_316.0,
           catches: "more calls per copied protocol state", measure: || explore_kind(ProtocolKind::CausalRst) },
    Cost { layer: "trace", operation: "`record`, 2 000-message causal-rst episode (bytes)", bound: 2_241_598.0,
           catches: "a wire record inline in every event's slot", measure: record_bytes },
    Cost { layer: "trace", operation: "`replay` of that trace (bytes)", bound: 1_738_420.0,
           catches: "a second journal recorded to compare against", measure: replay_bytes },
    Cost { layer: "transport", operation: "causal-rst over a Unix socket, late half (calls per message)", bound: 8.0,
           catches: "a JSON value tree or a fresh `Vec` per frame (one of the 7.996 is the recorder's boxed wire record; 6.996 without it)", measure: socket_round_trip },
];

/// One row measures at a time, on a counted thread.
static SERIAL: Mutex<()> = Mutex::new(());

/// Measures the rows `select` picks, in table order, prints their table,
/// and fails with it when any reading is over its bound.
pub fn check(select: impl Fn(&Cost) -> bool) {
    let rows: Vec<&Cost> = COSTS.iter().filter(|row| select(row)).collect();
    assert!(!rows.is_empty(), "no row selected");
    let readings: Vec<f64> = {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        COUNTED.set(true);
        let readings = rows.iter().map(|row| (row.measure)()).collect();
        COUNTED.set(false);
        readings
    };
    let table = render(&rows, &readings);
    println!("{table}");
    let over = rows
        .iter()
        .zip(&readings)
        .filter(|(row, reading)| **reading > row.bound)
        .count();
    // A failing test shows its captured stdout: the whole table.
    assert_eq!(over, 0, "{over} row(s) over their bound, marked OVER");
}

/// The table as markdown, one line per row.
fn render(rows: &[&Cost], readings: &[f64]) -> String {
    let number = |v: f64| {
        let s = format!("{v:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_owned()
    };
    let mut out = String::from(
        "| layer | operation | reading | bound | status | catches |\n|---|---|---:|---:|---|---|\n",
    );
    for (row, &reading) in rows.iter().zip(readings) {
        let status = if reading > row.bound { "OVER" } else { "ok" };
        out += &format!(
            "| {} | {} | {} | {} | {status} | {} |\n",
            row.layer,
            row.operation,
            number(reading),
            number(row.bound),
            row.catches
        );
    }
    out
}

/// Records the allocation counter and the kind of each run event into a
/// buffer sized ahead of the run, so observing itself never allocates.
struct AllocProbe {
    at: Vec<(u64, EventKind)>,
}

impl AllocProbe {
    fn for_messages(messages: usize) -> AllocProbe {
        AllocProbe {
            at: Vec::with_capacity(4 * messages + 1),
        }
    }

    /// Allocator calls over the second half of the events, and how many
    /// of those events are of `kind`.
    fn late_half(&self, kind: EventKind) -> (u64, usize) {
        let half = &self.at[self.at.len() / 2..];
        let calls = half[half.len() - 1].0 - half[0].0;
        let events = half[1..].iter().filter(|(_, k)| *k == kind).count();
        (calls, events)
    }
}

impl RunObserver for AllocProbe {
    fn on_event(&mut self, _view: &StreamingRun, ev: SystemEvent, _index: usize, _t: u64) -> bool {
        assert!(self.at.len() < self.at.capacity(), "probe undersized");
        self.at.push((allocations(), ev.kind));
        true
    }
}

fn append_in_order() -> f64 {
    let (n, m) = (3, 16);
    let mut run = StreamingRun::new(n);
    // Declaring a message may allocate; appending its events may not.
    let ids: Vec<_> = (0..m).map(|i| run.message(i % n, (i + 1) % n)).collect();
    let (run, calls) = counting(move || {
        for &msg in &ids {
            run.invoke(msg).unwrap().send(msg).unwrap();
            run.receive(msg).unwrap().deliver(msg).unwrap();
        }
        run
    });
    assert_eq!(run.event_count(), 4 * m);
    assert!(run.is_quiescent());
    calls as f64
}

/// Stage k of every message before stage k + 1 of any: the most live
/// clock state at once.
fn append_stage_by_stage() -> f64 {
    let (n, m) = (4, 12);
    let mut run = StreamingRun::new(n);
    let ids: Vec<_> = (0..m).map(|i| run.message(i % n, (i + 2) % n)).collect();
    let (run, calls) = counting(move || {
        for &msg in &ids {
            run.invoke(msg).unwrap();
        }
        for &msg in &ids {
            run.send(msg).unwrap();
        }
        for &msg in &ids {
            run.receive(msg).unwrap();
        }
        for &msg in &ids {
            run.deliver(msg).unwrap();
        }
        run
    });
    assert!(run.is_quiescent());
    calls as f64
}

/// Allocator calls of `users_view()` on a random 7-message run, the
/// size of an explorer leaf.
fn small_users_view() -> f64 {
    let run = random_system_run(GenParams::new(3, 7, 7));
    let (user, calls) = counting(|| run.users_view());
    assert_eq!(user.len(), 7);
    calls as f64
}

/// Reading `i` of the post-hoc path on a random 2 000-message run:
/// `users_view()` calls and bytes, `in_x_sync` calls, and the bytes of
/// `users_view()` + `in_x_co` + `in_x_sync`. Measured once.
fn posthoc(i: usize) -> f64 {
    static READINGS: OnceLock<[f64; 4]> = OnceLock::new();
    READINGS.get_or_init(|| {
        let run = random_system_run(GenParams::new(4, 2_000, 7));
        let before = allocated_bytes();
        let (user, view_calls) = counting(|| run.users_view());
        let view_bytes = allocated_bytes() - before;
        let co = limit_sets::in_x_co(&user);
        let (sync, sync_calls) = counting(|| limit_sets::in_x_sync(&user));
        let bytes = allocated_bytes() - before;
        assert_eq!(user.len(), 2_000);
        // An unconstrained random schedule of this size overtakes somewhere.
        assert_eq!((co, sync), (false, false));
        [view_calls, view_bytes, sync_calls, bytes].map(|v| v as f64)
    })[i]
}

/// The largest single allocation of a 2 000-message `causal-rst`
/// episode over 4 processes checked the way `sim-posthoc` checks it:
/// `Simulation::run`, `users_view`, `in_x_co`, `in_x_sync` and
/// `find_instantiation(causal)`. The bound is `m²/8` bytes, a quarter
/// of one `2m × 2m`-bit closure matrix.
fn posthoc_largest_request() -> f64 {
    let (n, msgs) = (4, 2_000);
    let spec = catalog::causal();
    let config = SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 100 }, 3);
    let workload = Workload::uniform_random(n, msgs, 3);
    let (verdict, largest) = largest_request(|| {
        let r = Simulation::new(config, workload, |_| CausalRst::new(n))
            .run()
            .expect("no protocol bug");
        assert!(r.completed && r.run.is_quiescent(), "run must finish");
        let user = r.run.users_view();
        (
            limit_sets::in_x_co(&user),
            limit_sets::in_x_sync(&user),
            eval::find_instantiation(&spec, &user),
        )
    });
    assert!(matches!(verdict, (true, _, None)), "{verdict:?}");
    largest as f64
}

fn reject_cyclic_order() -> f64 {
    let m = 2_000;
    let messages: Vec<MessageMeta> = (0..m)
        .map(|i| MessageMeta::new(MessageId(i), ProcessId(i % 4), ProcessId((i + 1) % 4)))
        .collect();
    // A chain r0 ▷ s1, r1 ▷ s2, … and then r0 ▷ s0, which closes a
    // cycle with the automatic s0 ▷ r0.
    let mut covers: Vec<(usize, usize)> = (0..m - 1)
        .map(|i| {
            let r = UserEvent::deliver(MessageId(i)).node();
            (r, UserEvent::send(MessageId(i + 1)).node())
        })
        .collect();
    covers.push((
        UserEvent::deliver(MessageId(0)).node(),
        UserEvent::send(MessageId(0)).node(),
    ));
    let snap = UserRunSnapshot { messages, covers };
    let before = allocated_bytes();
    let err = UserRun::try_from(snap).unwrap_err();
    let bytes = allocated_bytes() - before;
    assert_eq!(err, RunError::CyclicOrder);
    bytes as f64
}

/// Allocator calls of `Monitor::on_complete` against `spec` over the
/// second half of 2 000 deliveries, six in flight and delivered in send
/// order: the join's path for `causal` and `fifo`, the clock index's
/// for a predicate the join does not take.
fn monitor_feed(spec: ForbiddenPredicate) -> f64 {
    let (n, m, window) = (4, 2_000, 6);
    let mut monitor = Monitor::new(&spec);
    let mut run = StreamingRun::new(n);
    let ids: Vec<_> = (0..m).map(|i| run.message(i % n, (i + 1) % n)).collect();
    let mut late_calls = 0;
    for i in 0..m + window {
        if let Some(&msg) = ids.get(i) {
            run.invoke(msg).unwrap().send(msg).unwrap();
        }
        if let Some(done) = i.checked_sub(window) {
            let msg = ids[done];
            run.receive(msg).unwrap().deliver(msg).unwrap();
            let (witness, calls) = counting(|| monitor.on_complete(&run, msg).is_some());
            assert!(!witness, "in-order deliveries are causally ordered");
            if done >= m / 2 {
                late_calls += calls;
            }
        }
    }
    assert_eq!(monitor.completed_seen(), m);
    late_calls as f64
}

/// The observed run, counting the order queries and clock reads made
/// through it.
struct CountingView<'a> {
    run: &'a StreamingRun,
    before: &'a Cell<u64>,
    event_clock: &'a Cell<u64>,
}

impl OrderView for CountingView<'_> {
    fn before(&self, a: UserEvent, b: UserEvent) -> bool {
        self.before.set(self.before.get() + 1);
        self.run.before(a, b)
    }

    fn meta(&self, m: MessageId) -> &MessageMeta {
        self.run.meta(m)
    }

    fn message_count(&self) -> usize {
        self.run.message_count()
    }

    fn src(&self, m: MessageId) -> ProcessId {
        self.run.src(m)
    }

    fn dst(&self, m: MessageId) -> ProcessId {
        self.run.dst(m)
    }

    fn event_clock(&self, e: UserEvent) -> Option<&[u64]> {
        self.event_clock.set(self.event_clock.get() + 1);
        self.run.event_clock(e)
    }

    /// The run's completion flags: no order query.
    fn is_message_complete(&self, m: MessageId) -> bool {
        self.run.is_message_complete(m)
    }
}

/// Feeds every delivery to the monitor through a [`CountingView`].
struct CountedMonitor<'p> {
    monitor: Monitor<'p>,
    before: Cell<u64>,
    event_clock: Cell<u64>,
}

impl RunObserver for CountedMonitor<'_> {
    fn on_event(&mut self, run: &StreamingRun, ev: SystemEvent, _index: usize, _t: u64) -> bool {
        if ev.kind == EventKind::Deliver {
            let view = CountingView {
                run,
                before: &self.before,
                event_clock: &self.event_clock,
            };
            self.monitor.on_complete(&view, ev.msg);
        }
        true
    }
}

/// `(before, event_clock)` calls per delivery while `causal-rst` runs
/// `messages` uniformly random messages over 4 processes against
/// `spec`, which it satisfies: the causal spec, decided by the
/// monitor's join, or one the join does not take, searched at every
/// delivery.
fn monitor_queries(spec: ForbiddenPredicate, messages: usize) -> (f64, f64) {
    let (n, seed) = (4, 3);
    let mut observer = CountedMonitor {
        monitor: Monitor::new(&spec),
        before: Cell::new(0),
        event_clock: Cell::new(0),
    };
    let config = SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 100 }, seed);
    let workload = Workload::uniform_random(n, messages, seed);
    let result = Simulation::new(config, workload, |_| CausalRst::new(n))
        .run_streaming(&mut observer)
        .expect("causal-rst has no protocol bug");
    assert!(result.completed && result.run.is_quiescent());
    assert!(!observer.monitor.violated(), "causal-rst satisfies {spec}");
    assert_eq!(observer.monitor.completed_seen(), messages);
    let per_delivery = |count: Cell<u64>| count.get() as f64 / messages as f64;
    (
        per_delivery(observer.before),
        per_delivery(observer.event_clock),
    )
}

/// Tagless: sends and delivers at once, the kernel's own per-message
/// cost.
#[derive(Clone, Hash)]
struct Immediate;

impl Protocol for Immediate {
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        ctx.send_user(msg, Vec::new());
    }

    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: MessageId, _: Vec<u8>) {
        ctx.deliver(msg);
    }
}

/// Tagless, with a per-peer counter in a [`SortedSlab`]: once the slab
/// has seen every peer, updates are in place.
#[derive(Default)]
struct PerPeer {
    seen: SortedSlab<usize, u64>,
}

impl Protocol for PerPeer {
    fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
        ctx.send_user(msg, Vec::new());
    }

    fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: MessageId, _: Vec<u8>) {
        *self.seen.get_or_insert_with(from.0, || 0) += 1;
        ctx.deliver(msg);
    }
}

/// Allocator calls over the second half of a 24-message, 3-process run.
fn dispatch<P: Protocol>(factory: fn(usize) -> P) -> f64 {
    let (n, msgs) = (3, 24);
    let mut probe = AllocProbe::for_messages(msgs);
    let config = SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 40 }, 7);
    let r = Simulation::new(config, Workload::uniform_random(n, msgs, 7), factory)
        .run_streaming(&mut probe)
        .expect("no protocol bug");
    assert!(r.completed && r.run.is_quiescent(), "run must finish");
    assert_eq!(probe.at.len(), 4 * msgs, "all events observed");
    probe.late_half(EventKind::Deliver).0 as f64
}

/// `messages` sends from P0 to P1, all at time 0.
fn same_channel(messages: usize) -> Workload {
    let send = SendSpec {
        at: 0,
        src: 0,
        dst: 1,
        color: None,
    };
    Workload {
        sends: vec![send; messages],
    }
}

/// The benchmark's pool shape 0.
fn pool_shape_0() -> Workload {
    Workload::uniform_random(3, 7, 3)
}

fn por(dedup: DedupMode) -> ExploreOptions {
    ExploreOptions {
        por: true,
        dedup,
        ..ExploreOptions::default()
    }
}

/// Allocator calls of a full search over `messages` same-channel sends,
/// which has `schedules` schedules.
fn explore_same_channel(messages: usize, schedules: usize) -> f64 {
    let opts = ExploreOptions::default();
    let (exp, calls) =
        counting(|| explore(2, same_channel(messages), |_| Immediate, &opts, &|_| true));
    assert_eq!(exp.schedules, schedules);
    calls as f64
}

/// Two more messages add four dispatches to every schedule and multiply
/// the schedules by 63; the calls may grow by at most 32 per extra
/// depth.
fn explore_growth() -> f64 {
    let fewer = explore_same_channel(3, 15);
    explore_same_channel(5, 945) - fewer
}

fn explore_pool_por() -> f64 {
    let opts = por(DedupMode::Off);
    let (exp, calls) = counting(|| explore(3, pool_shape_0(), |_| Immediate, &opts, &|_| true));
    assert_eq!(exp.schedules, 6_070);
    calls as f64
}

fn explore_exact() -> f64 {
    let opts = ExploreOptions {
        dedup: DedupMode::Exact,
        ..ExploreOptions::default()
    };
    let w = same_channel(3);
    let (exp, calls) = counting(|| explore(2, w, |_| Immediate, &opts, &|_| true));
    assert_eq!((exp.schedules, exp.states), (6, 24));
    calls as f64
}

fn explore_pool_exact() -> f64 {
    let opts = por(DedupMode::Exact);
    let (exp, calls) = counting(|| explore(3, pool_shape_0(), |_| Immediate, &opts, &|_| true));
    assert_eq!(exp.states, 49_318);
    calls as f64
}

/// Allocator calls per user send over the second half of a 400-message
/// `causal-rst` run whose latencies far exceed the send spacing, so the
/// pending arena is in real use.
fn causal_rst_dispatch() -> f64 {
    let (n, msgs) = (4, 400);
    let mut probe = AllocProbe::for_messages(msgs);
    let config = SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 900 }, 7);
    let r = Simulation::new(config, Workload::uniform_random(n, msgs, 7), |_| {
        CausalRst::new(n)
    })
    .run_streaming(&mut probe)
    .expect("no protocol bug");
    assert!(r.completed && r.run.is_quiescent(), "run must finish");
    assert!(r.stats.total_inhibition > 0, "some arrival had to wait");
    assert_eq!(probe.at.len(), 4 * msgs, "all events observed");
    let (calls, sends) = probe.late_half(EventKind::Send);
    assert!(
        sends >= msgs / 4,
        "window covers real traffic: {sends} sends"
    );
    calls as f64 / sends as f64
}

/// Allocator calls per leaf that `explore_violations` makes beyond the
/// bare search (`explore` with a visitor that looks at nothing) on pool
/// shape 0: a leaf may cost a call only when the violating-configuration
/// set grows.
fn checked_leaf() -> f64 {
    let (w, opts) = (pool_shape_0(), por(DedupMode::Off));
    let spec = catalog::fifo();
    let tagless = |_| AsyncProtocol::new();
    // Warm this thread's buffers, which live as long as it does.
    explore_violations(3, w.clone(), tagless, &spec, &opts);
    let (bare, engine) = counting(|| explore(3, w.clone(), tagless, &opts, &|_| true));
    let (found, checked) = counting(|| explore_violations(3, w, tagless, &spec, &opts));
    let leaves = found.exploration.schedules;
    assert_eq!((leaves, found.configs.len()), (6_070, 4_192));
    assert_eq!(bare.schedules, leaves);
    checked.saturating_sub(engine) as f64 / leaves as f64
}

/// `before` and `event_clock` calls per leaf when the explorer's leaf
/// check — `Prepared::find_with` on the kernel's run — searches pool
/// shape 0 for a `fifo` violation through a [`CountingView`].
fn leaf_queries() -> f64 {
    let spec = catalog::fifo();
    let prepared = Prepared::new(&spec);
    let counted = Mutex::new((EvalScratch::default(), 0u64, 0u64));
    let opts = por(DedupMode::Off);
    let exp = explore(3, pool_shape_0(), |_| AsyncProtocol::new(), &opts, &|run| {
        let (before, event_clock) = (Cell::new(0), Cell::new(0));
        let view = CountingView {
            run,
            before: &before,
            event_clock: &event_clock,
        };
        let mut counted = counted.lock().unwrap();
        let (scratch, violating, queries) = &mut *counted;
        *violating += u64::from(prepared.find_with(&view, scratch).is_some());
        *queries += before.get() + event_clock.get();
        true
    });
    let (_, violating, queries) = counted.into_inner().unwrap();
    assert_eq!((exp.schedules, violating), (6_070, 4_192));
    queries as f64 / exp.schedules as f64
}

/// `Stats::tag_bytes_per_user` of `kind` on `messages` uniformly random
/// messages over 4 processes.
fn tag_bytes(kind: ProtocolKind, messages: usize) -> f64 {
    let n = 4;
    let config = SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 100 }, 7);
    let workload = Workload::uniform_random(n, messages, 7);
    let out = Simulation::new(config, workload, |node| kind.explorable(n, node, false))
        .run()
        .expect("no protocol bug");
    assert!(out.completed && out.run.is_quiescent(), "{}", kind.name());
    out.stats.tag_bytes_per_user()
}

/// Control bytes per user message of `simulate --protocol <kind>
/// [--reliable] --processes 4 --messages 400 --seed 3`.
fn control_bytes(kind: ProtocolKind, reliable: bool) -> f64 {
    let n = 4;
    let config = SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 800 }, 3);
    let workload = Workload::uniform_random(n, 400, 3);
    let out = Simulation::new(config, workload, |node| kind.explorable(n, node, reliable))
        .run()
        .expect("no protocol bug");
    assert!(out.completed && out.run.is_quiescent(), "{}", kind.name());
    out.stats.control_bytes as f64 / out.stats.user_messages as f64
}

/// Allocator calls of the reduced search of pool shape 0 with `kind`.
fn explore_kind(kind: ProtocolKind) -> f64 {
    let opts = por(DedupMode::Off);
    let (exp, calls) = counting(|| {
        explore(
            3,
            pool_shape_0(),
            |node| kind.explorable(3, node, false),
            &opts,
            &|_| true,
        )
    });
    assert_eq!(exp.schedules, 6_070, "{}", kind.name());
    calls as f64
}

/// A 2 000-message `causal-rst` episode over 4 processes, spec-less as
/// `sim-bare`'s, recorded once: its trace, and the bytes `record`
/// requested.
fn traced_episode() -> &'static (Trace, f64) {
    static EPISODE: OnceLock<(Trace, f64)> = OnceLock::new();
    EPISODE.get_or_init(|| {
        let msgs = 2_000;
        let setup = Setup {
            processes: 4,
            latency: LatencyModel::Uniform { lo: 1, hi: 100 },
            seed: 3,
            faults: FaultModel::none(),
            workload: Workload::uniform_random(4, msgs, 3),
            protocol: "causal-rst".to_owned(),
            reliable: false,
            spec: None,
            step_limit: 1_000_000,
        };
        let before = allocated_bytes();
        let recorded = msgorder::trace::record(&setup).expect("registry protocol");
        let bytes = allocated_bytes() - before;
        let r = recorded.outcome.expect("no protocol bug");
        assert!(r.completed && r.stats.delivered == msgs, "run must finish");
        (recorded.trace, bytes as f64)
    })
}

fn record_bytes() -> f64 {
    // A run event, not the wire record, sets the journal's width.
    assert!(std::mem::size_of::<KernelEvent>() <= 32);
    traced_episode().1
}

fn replay_bytes() -> f64 {
    let trace = &traced_episode().0;
    let before = allocated_bytes();
    let report = msgorder::trace::replay(trace).expect("replays");
    let bytes = allocated_bytes() - before;
    assert!(report.ok(), "{report:?}");
    bytes as f64
}

/// Allocator calls per delivery over the second half of 2 000
/// `causal-rst` messages between a server and two client threads on a
/// Unix socket: what the `HostEvent`/`HostAction` types own by value.
fn socket_round_trip() -> f64 {
    let (n, msgs) = (2, 2_000);
    let setup = Setup {
        processes: n,
        latency: LatencyModel::Fixed(1),
        seed: 7,
        faults: FaultModel::none(),
        workload: Workload::uniform_random(n, msgs, 7),
        protocol: "causal-rst".to_owned(),
        reliable: false,
        spec: None,
        step_limit: 1_000_000,
    };
    let path = std::env::temp_dir().join(format!("msgorder-costs-{}.sock", std::process::id()));
    let opts = ServeOptions::new(Endpoint::Unix(path), setup);
    let listener = opts.endpoint.listen().expect("binds");
    let dial = listener.local_endpoint().expect("has an address");
    let clients: Vec<_> = (0..n)
        .map(|node| {
            let copts = ClientOptions::new(dial.clone(), node);
            std::thread::spawn(move || {
                COUNTED.set(true);
                run_client(&copts)
            })
        })
        .collect();
    let mut probe = AllocProbe::for_messages(msgs);
    let outcome =
        serve_on_observed(listener, &opts, None, Some(&mut probe)).expect("live session runs");
    for c in clients {
        c.join().expect("client thread").expect("client succeeds");
    }
    let r = outcome.outcome.expect("no protocol bug");
    assert!(r.completed && r.stats.delivered == msgs, "run must finish");
    assert_eq!(probe.at.len(), 4 * msgs, "all events observed");
    let (calls, delivered) = probe.late_half(EventKind::Deliver);
    assert!(
        delivered >= msgs / 4,
        "window covers real traffic: {delivered} deliveries"
    );
    calls as f64 / delivered as f64
}
