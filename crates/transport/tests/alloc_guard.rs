//! Allocation guard for one message over a real socket.
//!
//! Events and action batches are encoded in place into each
//! connection's one outgoing buffer and parsed where the frame decoder
//! holds them, so the transport itself allocates nothing per frame. What
//! a `causal-rst` message still costs across the server and both
//! clients is what the `HostEvent`/`HostAction` types and
//! `HostDriver::dispatch` own by value: on the client the action `Vec`
//! of each of its two dispatches, the tag it sends and the tag it is
//! handed; on the server the decoded copies of both action `Vec`s and
//! of the sent tag — 7 allocator calls, 478 bytes. Through a JSON value
//! tree and a fresh `Vec` per frame the same probe read 182 calls and
//! 17.5 KB.
//!
//! `sync` over the same wire reads 24.7 calls per message (from 368):
//! the remainder is `sync`'s own control-payload serializer, not the
//! transport, and is not guarded here.
//!
//! The guard snapshots the global allocation counter at every observed
//! run event (the `AllocProbe` pattern of
//! `protocols/tests/alloc_guard.rs`), so it counts all three threads,
//! and bounds the calls per delivery over the second half of the event
//! stream.
//!
//! One `#[test]` for the whole file: the counter is process-global, so a
//! second test on a parallel harness thread would be counted too.

use msgorder_runs::{EventKind, StreamingRun, SystemEvent};
use msgorder_simnet::{FaultModel, LatencyModel, RunObserver, Workload};
use msgorder_trace::Setup;
use msgorder_transport::{run_client, serve_on_observed, ClientOptions, Endpoint, ServeOptions};

#[global_allocator]
static ALLOC: msgorder_testkit::CountingAlloc = msgorder_testkit::CountingAlloc;

/// Records the allocation counter and whether the event is a delivery
/// at each run event, into a buffer sized ahead of the run, so observing
/// itself never allocates.
struct AllocProbe {
    at: Vec<(u64, bool)>,
}

impl RunObserver for AllocProbe {
    fn on_event(&mut self, _view: &StreamingRun, ev: SystemEvent, _index: usize, _t: u64) -> bool {
        assert!(self.at.len() < self.at.capacity(), "probe undersized");
        self.at.push((
            msgorder_testkit::allocations(),
            ev.kind == EventKind::Deliver,
        ));
        true
    }
}

#[test]
fn a_message_over_the_socket_allocates_only_what_the_host_types_own() {
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
    let path = std::env::temp_dir().join(format!("msgorder-alloc-{}.sock", std::process::id()));
    let opts = ServeOptions::new(Endpoint::Unix(path), setup);
    let listener = opts.endpoint.listen().expect("binds");
    let dial = listener.local_endpoint().expect("has an address");
    let clients: Vec<_> = (0..n)
        .map(|node| {
            let copts = ClientOptions::new(dial.clone(), node);
            std::thread::spawn(move || run_client(&copts))
        })
        .collect();
    let mut probe = AllocProbe {
        at: Vec::with_capacity(4 * msgs + 1),
    };
    let outcome =
        serve_on_observed(listener, &opts, None, Some(&mut probe)).expect("live session runs");
    for c in clients {
        c.join().expect("client thread").expect("client succeeds");
    }
    let r = outcome.outcome.expect("no protocol bug");
    assert!(r.completed && r.stats.delivered == msgs, "run must finish");
    assert_eq!(probe.at.len(), 4 * msgs, "all events observed");

    let half = &probe.at[probe.at.len() / 2..];
    let allocs = half[half.len() - 1].0 - half[0].0;
    let delivered = half[1..].iter().filter(|(_, deliver)| *deliver).count();
    assert!(
        delivered >= msgs / 4,
        "window covers real traffic: {delivered} deliveries"
    );
    let per_message = allocs as f64 / delivered as f64;
    assert!(
        per_message <= 8.0,
        "{allocs} allocator calls over {delivered} deliveries = {per_message:.2} per message"
    );
}
