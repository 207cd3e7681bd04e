//! Memory guard for the post-hoc limit-set path.
//!
//! `users_view()` + `in_x_co` + `in_x_sync` on a benchmark-sized episode
//! (4 processes, 2 000 messages) must stay linear in the closure: two
//! 4 000 × 4 000-bit matrices (≈ 4 MiB) plus the skeleton graph, ~5.1 MB
//! requested in all. Deciding `X_sync` on the full message-precedence
//! digraph (up to m² edges) requested ~260 MB here; the byte budget pins
//! that graph staying gone without a timing assertion.
//!
//! `users_view()` alone must also stay a constant number of allocator
//! calls whatever the run's size: the closure is two flat matrices built
//! from an edge slice, so the explorer's per-leaf projection (7 messages)
//! and the episode's (2 000) both make a few dozen calls. Per-node edge
//! lists and one bitset per closure row made 104 and 20 202.

use msgorder_runs::generator::{random_system_run, GenParams};
use msgorder_runs::limit_sets;
use msgorder_testkit::{allocated_bytes, counting};

#[global_allocator]
static ALLOC: msgorder_testkit::CountingAlloc = msgorder_testkit::CountingAlloc;

#[test]
fn posthoc_limit_sets_request_under_16_mib() {
    let leaf = random_system_run(GenParams::new(3, 7, 7));
    let (user, calls) = counting(|| leaf.users_view());
    assert_eq!(user.len(), 7);
    assert!(
        calls <= 32,
        "7-message users_view made {calls} allocator calls"
    );

    let run = random_system_run(GenParams::new(4, 2_000, 7));
    let before = allocated_bytes();
    let (user, calls) = counting(|| run.users_view());
    let view_bytes = allocated_bytes() - before;
    assert!(
        calls <= 64 && view_bytes < 6_000_000,
        "2 000-message users_view made {calls} allocator calls for {view_bytes} bytes"
    );
    let verdicts = (limit_sets::in_x_co(&user), limit_sets::in_x_sync(&user));
    let requested = allocated_bytes() - before;
    assert_eq!(user.len(), 2_000);
    // An unconstrained random schedule of this size overtakes somewhere.
    assert_eq!(verdicts, (false, false));
    assert!(
        requested < 16 << 20,
        "post-hoc limit-set path requested {requested} bytes"
    );
}
