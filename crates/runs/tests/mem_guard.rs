//! Memory guard for the post-hoc limit-set path.
//!
//! `users_view()` + `in_x_co` + `in_x_sync` on a benchmark-sized episode
//! (4 processes, 2 000 messages) must stay linear in the closure: two
//! 4 000 × 4 000-bit matrices (≈ 4 MiB) plus the edge lists, ~4.8 MB
//! requested in all. Deciding `X_sync` on the full message-precedence
//! digraph (up to m² edges) requested ~260 MB here; the byte budget pins
//! that graph staying gone without a timing assertion.
//!
//! `users_view()` alone must also stay a constant number of allocator
//! calls whatever the run's size: the closure is two flat matrices built
//! from an edge slice through a CSR of the edges, one of the reversed
//! edges and one Kahn order, so the explorer's per-leaf projection
//! (7 messages) and the episode's (2 000) make the same 13. Per-node
//! edge lists and one bitset per closure row made 104 and 20 202; the
//! Tarjan-built closure with a sorted skeleton made 17 and 29.
//! `in_x_sync` is one CSR and one Kahn pass over the skeleton's flat
//! edge list: 4 calls, where a per-node `DiGraph` made 4 029.
//!
//! A cyclic order is rejected before either matrix is allocated: ~0.3 MB
//! requested for a 2 000-message snapshot, under one matrix's 2 MB.

use msgorder_runs::generator::{random_system_run, GenParams};
use msgorder_runs::{limit_sets, MessageId, MessageMeta, ProcessId, RunError, UserEvent};
use msgorder_runs::{UserRun, UserRunSnapshot};
use msgorder_testkit::{allocated_bytes, counting};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: msgorder_testkit::CountingAlloc = msgorder_testkit::CountingAlloc;

/// The allocator counters are process-global; one guarded section at a
/// time.
static SERIAL: Mutex<()> = Mutex::new(());

/// One `2m`-row matrix of the closure for `m` = 2 000 messages:
/// 4 000 rows of ⌈4 000 / 64⌉ words.
const MATRIX_BYTES: u64 = 4_000 * 63 * 8;

#[test]
fn posthoc_limit_sets_request_under_16_mib() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let leaf = random_system_run(GenParams::new(3, 7, 7));
    let (user, calls) = counting(|| leaf.users_view());
    assert_eq!(user.len(), 7);
    // 13 measured; headroom of 3.
    assert!(
        calls <= 16,
        "7-message users_view made {calls} allocator calls"
    );

    let run = random_system_run(GenParams::new(4, 2_000, 7));
    let before = allocated_bytes();
    let (user, calls) = counting(|| run.users_view());
    let view_bytes = allocated_bytes() - before;
    // 13 measured; headroom of 3.
    assert!(
        calls <= 16 && view_bytes < 6_000_000,
        "2 000-message users_view made {calls} allocator calls for {view_bytes} bytes"
    );
    let (co, _) = counting(|| limit_sets::in_x_co(&user));
    let (sync, calls) = counting(|| limit_sets::in_x_sync(&user));
    // 4 measured; a per-node `DiGraph` on the verdict path makes ~4 000.
    assert!(
        calls <= 6,
        "2 000-message in_x_sync made {calls} allocator calls"
    );
    let requested = allocated_bytes() - before;
    assert_eq!(user.len(), 2_000);
    // An unconstrained random schedule of this size overtakes somewhere.
    assert_eq!((co, sync), (false, false));
    assert!(
        requested < 16 << 20,
        "post-hoc limit-set path requested {requested} bytes"
    );
}

#[test]
fn a_cyclic_order_is_rejected_before_the_matrices_exist() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = 2_000;
    let messages: Vec<MessageMeta> = (0..m)
        .map(|i| MessageMeta::new(MessageId(i), ProcessId(i % 4), ProcessId((i + 1) % 4)))
        .collect();
    // A chain r0 ▷ s1, r1 ▷ s2, … and then r0 ▷ s0, which closes a
    // cycle with the automatic s0 ▷ r0.
    let mut covers: Vec<(usize, usize)> = (0..m - 1)
        .map(|i| {
            (
                UserEvent::deliver(MessageId(i)).node(),
                UserEvent::send(MessageId(i + 1)).node(),
            )
        })
        .collect();
    covers.push((
        UserEvent::deliver(MessageId(0)).node(),
        UserEvent::send(MessageId(0)).node(),
    ));
    let snap = UserRunSnapshot { messages, covers };
    let before = allocated_bytes();
    let err = UserRun::try_from(snap).unwrap_err();
    let requested = allocated_bytes() - before;
    assert_eq!(err, RunError::CyclicOrder);
    assert!(
        requested < MATRIX_BYTES,
        "rejecting a cyclic order requested {requested} bytes"
    );
}
