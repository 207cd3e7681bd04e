//! Zero-allocation guard for the online monitor.
//!
//! [`Monitor`] sizes its candidate lists, clock index, rank table and
//! search buffers when it first sees the view's declared messages, and
//! keeps the in-flight assignment between searches — so once a run is
//! under way, feeding a completed message touches no allocator. This
//! test pins that: a per-delivery `Vec`, or a list left to grow by
//! doubling, fails the exact count, not a benchmark.
//!
//! One `#[test]` for the whole file: the counters are process-global, so
//! a second test on a parallel harness thread would be counted too.

use msgorder_predicate::catalog;
use msgorder_predicate::eval::Monitor;
use msgorder_runs::StreamingRun;

#[global_allocator]
static ALLOC: msgorder_testkit::CountingAlloc = msgorder_testkit::CountingAlloc;

#[test]
fn feeding_a_declared_message_never_allocates_at_steady_state() {
    let (n, m, window) = (4, 2_000, 6);
    let spec = catalog::causal();
    let mut monitor = Monitor::new(&spec);
    let mut run = StreamingRun::new(n);
    let ids: Vec<_> = (0..m).map(|i| run.message(i % n, (i + 1) % n)).collect();
    // `window` messages in flight, delivered in the order they were
    // sent: causally ordered, so the monitor searches to the end.
    let mut late_allocs = 0;
    for i in 0..m + window {
        if let Some(&msg) = ids.get(i) {
            run.invoke(msg).unwrap().send(msg).unwrap();
        }
        if let Some(done) = i.checked_sub(window) {
            let msg = ids[done];
            run.receive(msg).unwrap().deliver(msg).unwrap();
            let (witness, allocs) =
                msgorder_testkit::counting(|| monitor.on_complete(&run, msg).is_some());
            assert!(!witness, "in-order deliveries are causally ordered");
            if done >= m / 2 {
                late_allocs += allocs;
            }
        }
    }
    assert_eq!(monitor.completed_seen(), m);
    assert_eq!(
        late_allocs, 0,
        "on_complete must stay allocation-free once the run is under way"
    );
}
