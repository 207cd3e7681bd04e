//! Zero-allocation guard for the event arena.
//!
//! [`StreamingRun::message`] reserves everything a message will ever
//! need — slab words for its clocks, sequence capacity at both
//! endpoints, a completion slot — so appending its four events touches
//! no allocator. This test pins that property: a regression (a stray
//! `Vec` push past capacity, a clock built out of line) fails the exact
//! count, not a benchmark.
//!
//! One `#[test]` for the whole file: the counters are process-global, so
//! a second test on a parallel harness thread would be counted too.

use msgorder_runs::StreamingRun;

#[global_allocator]
static ALLOC: msgorder_testkit::CountingAlloc = msgorder_testkit::CountingAlloc;

#[test]
fn appending_declared_messages_never_allocates() {
    one_message_at_a_time();
    stage_by_stage();
}

fn one_message_at_a_time() {
    let n = 3;
    let m = 16;
    let mut run = StreamingRun::new(n);
    // Declaration phase: allowed (and expected) to allocate.
    let ids: Vec<_> = (0..m).map(|i| run.message(i % n, (i + 1) % n)).collect();
    let (run, allocs) = msgorder_testkit::counting(move || {
        for &msg in &ids {
            run.invoke(msg).unwrap().send(msg).unwrap();
            run.receive(msg).unwrap().deliver(msg).unwrap();
        }
        run
    });
    assert_eq!(
        allocs, 0,
        "event append must stay allocation-free once the message is declared"
    );
    assert_eq!(run.event_count(), 4 * m);
    assert!(run.is_quiescent());
}

fn stage_by_stage() {
    // Same guarantee under an adversarial interleaving: stage k of every
    // message before stage k+1 of any, maximizing live clock state.
    let n = 4;
    let m = 12;
    let mut run = StreamingRun::new(n);
    let ids: Vec<_> = (0..m).map(|i| run.message(i % n, (i + 2) % n)).collect();
    let (run, allocs) = msgorder_testkit::counting(move || {
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
    assert_eq!(allocs, 0, "interleaved appends must not allocate");
    assert!(run.is_quiescent());
}
