//! Memory guard for the post-hoc limit-set path.
//!
//! `users_view()` + `in_x_co` + `in_x_sync` on a benchmark-sized episode
//! (4 processes, 2 000 messages) must stay linear in the closure: two
//! 4 000 × 4 000-bit matrices (≈ 4 MiB) plus the event graph, ~6.6 MB
//! requested in all. Deciding `X_sync` on the full message-precedence
//! digraph (up to m² edges) requested ~260 MB here; the byte budget pins
//! that graph staying gone without a timing assertion.

use msgorder_runs::generator::{random_system_run, GenParams};
use msgorder_runs::limit_sets;

#[global_allocator]
static ALLOC: msgorder_testkit::CountingAlloc = msgorder_testkit::CountingAlloc;

#[test]
fn posthoc_limit_sets_request_under_16_mib() {
    let run = random_system_run(GenParams::new(4, 2_000, 7));
    let before = msgorder_testkit::allocated_bytes();
    let user = run.users_view();
    let verdicts = (limit_sets::in_x_co(&user), limit_sets::in_x_sync(&user));
    let requested = msgorder_testkit::allocated_bytes() - before;
    assert_eq!(user.len(), 2_000);
    // An unconstrained random schedule of this size overtakes somewhere.
    assert_eq!(verdicts, (false, false));
    assert!(
        requested < 16 << 20,
        "post-hoc limit-set path requested {requested} bytes"
    );
}
