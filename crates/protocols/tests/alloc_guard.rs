//! Allocation guards for `causal-rst` dispatch and for the explorer's
//! per-leaf specification check.
//!
//! The matrix, the pending queue and the parked matrices live in flat
//! slabs that stop growing once they have seen their high-water mark,
//! and the tag is written from and parsed onto them directly — so the
//! one allocation a message costs is the tag buffer
//! `Protocol::on_user_frame` hands over by value. The guard snapshots
//! the global allocation counter at every observed run event (the
//! `AllocProbe` pattern of `simnet/tests/alloc_guard.rs`) and bounds
//! the allocator calls per user send over the second half of the event
//! stream. A matrix of nested `Vec`s behind a value-tree tag codec reads
//! 47 here.
//!
//! The counter is process-global, so every test holds [`SERIAL`]: a
//! test on a parallel harness thread would be counted too.

use msgorder_predicate::catalog;
use msgorder_protocols::{explore_violations, AsyncProtocol, CausalRst};
use msgorder_runs::{EventKind, StreamingRun, SystemEvent};
use msgorder_simnet::{
    explore, ExploreOptions, LatencyModel, RunObserver, SimConfig, Simulation, Workload,
};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: msgorder_testkit::CountingAlloc = msgorder_testkit::CountingAlloc;

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

/// Records the allocation counter and whether the event is a user send
/// at each run event, into a buffer sized ahead of the run, so observing
/// itself never allocates.
struct AllocProbe {
    at: Vec<(u64, bool)>,
}

impl RunObserver for AllocProbe {
    fn on_event(&mut self, _view: &StreamingRun, ev: SystemEvent, _index: usize, _t: u64) -> bool {
        assert!(self.at.len() < self.at.capacity(), "probe undersized");
        self.at
            .push((msgorder_testkit::allocations(), ev.kind == EventKind::Send));
        true
    }
}

#[test]
fn causal_rst_allocates_only_the_tag_buffer_at_steady_state() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (n, msgs) = (4, 400);
    let w = Workload::uniform_random(n, msgs, 7);
    let mut probe = AllocProbe {
        at: Vec::with_capacity(4 * msgs + 1),
    };
    // Latencies far beyond the send spacing: arrivals overtake each
    // other and the pending arena is in real use.
    let sim = Simulation::new(
        SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 900 }, 7),
        w,
        |_| CausalRst::new(n),
    );
    let r = sim.run_streaming(&mut probe).expect("no protocol bug");
    assert!(r.completed && r.run.is_quiescent(), "run must finish");
    assert!(r.stats.total_inhibition > 0, "some arrival had to wait");
    assert_eq!(probe.at.len(), 4 * msgs, "all events observed");

    let half = &probe.at[probe.at.len() / 2..];
    let allocs = half[half.len() - 1].0 - half[0].0;
    let sends = half[1..].iter().filter(|(_, send)| *send).count();
    assert!(
        sends >= msgs / 4,
        "window covers real traffic: {sends} sends"
    );
    let per_send = allocs as f64 / sends as f64;
    assert!(
        per_send <= 1.05,
        "{allocs} allocator calls over {sends} user sends = {per_send:.2} per send"
    );
}

/// `explore_violations` reads each leaf's user view off the run's
/// clocks into a per-worker view, and checks and digests it in
/// per-worker buffers: beyond the search itself (`explore` with a
/// visitor that looks at nothing), a leaf costs an allocator call only
/// when the violating-configuration set grows. Projecting a fresh view,
/// searching in fresh buffers and digesting a snapshot cost 26.1 per
/// leaf on this shape.
#[test]
fn a_checked_leaf_allocates_at_most_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The benchmark's pool shape 0, as `explore-por` explores it.
    let w = Workload::uniform_random(3, 7, 3);
    let opts = ExploreOptions {
        por: true,
        ..ExploreOptions::default()
    };
    let spec = catalog::fifo();
    // Warm this thread's buffers, which live as long as it does.
    explore_violations(3, w.clone(), |_| AsyncProtocol::new(), &spec, &opts);
    let (bare, engine) = msgorder_testkit::counting(|| {
        explore(3, w.clone(), |_| AsyncProtocol::new(), &opts, &|_| true)
    });
    let (found, checked) = msgorder_testkit::counting(|| {
        explore_violations(3, w, |_| AsyncProtocol::new(), &spec, &opts)
    });
    let leaves = found.exploration.schedules;
    assert_eq!((leaves, found.configs.len()), (6070, 4192));
    assert_eq!(bare.schedules, leaves);
    let per_leaf = checked.saturating_sub(engine) as f64 / leaves as f64;
    assert!(
        per_leaf <= 1.0,
        "{checked} allocator calls against the bare search's {engine} over {leaves} leaves \
         = {per_leaf:.2} per leaf: is a view built or a snapshot digested per leaf again?"
    );
}
