//! Protocols on faulty networks: the retransmission layer restores the
//! reliable-channel assumption, and protocol bugs surface as structured
//! counterexamples through `run_and_verify`.

use msgorder_predicate::catalog;
use msgorder_protocols::{run_and_verify, CausalRst, FifoProtocol, ProtocolKind, SyncProtocol};
use msgorder_runs::{limit_sets, MessageId, ProcessId};
use msgorder_simnet::{
    Ctx, FaultModel, LatencyModel, Protocol, SimConfig, SimErrorKind, Simulation, Workload,
};

fn lossy(processes: usize, seed: u64, drop: f64) -> SimConfig {
    SimConfig::new(processes, LatencyModel::Uniform { lo: 1, hi: 500 }, seed)
        .with_faults(FaultModel::none().with_drop(drop).unwrap())
}

#[test]
fn reliable_fifo_delivers_everything_at_twenty_percent_loss() {
    for seed in 0..6 {
        let out = run_and_verify(
            lossy(3, seed, 0.2),
            Workload::uniform_random(3, 20, seed),
            |_| FifoProtocol::reliable(),
            &catalog::fifo(),
        );
        assert!(
            out.ok(),
            "seed {seed}: reliable FIFO must verify under loss"
        );
        assert_eq!(
            out.stats.delivered, 20,
            "seed {seed}: every message delivered"
        );
        assert!(out.counterexample.is_none());
    }
}

#[test]
fn reliable_causal_rst_delivers_everything_at_twenty_percent_loss() {
    for seed in 0..6 {
        let out = run_and_verify(
            lossy(3, seed, 0.2),
            Workload::uniform_random(3, 20, seed),
            |_| CausalRst::reliable(3),
            &catalog::causal(),
        );
        assert!(out.ok(), "seed {seed}: reliable RST must verify under loss");
        assert_eq!(
            out.stats.delivered, 20,
            "seed {seed}: every message delivered"
        );
        assert!(limit_sets::in_x_co(&out.user_run()));
    }
}

#[test]
fn bare_fifo_loses_liveness_under_loss_but_keeps_ordering() {
    // Without retransmission a dropped frame is gone: some seed must
    // fail liveness, but what *is* delivered stays FIFO.
    let mut lost_something = false;
    for seed in 0..6 {
        let out = run_and_verify(
            lossy(3, seed, 0.2),
            Workload::uniform_random(3, 20, seed),
            |_| FifoProtocol::new(),
            &catalog::fifo(),
        );
        assert!(out.safe, "seed {seed}: partial delivery must still be FIFO");
        lost_something |= !out.live;
    }
    assert!(
        lost_something,
        "20% loss over 6 seeds must cost at least one message"
    );
}

#[test]
fn reliable_sync_survives_control_frame_loss() {
    // The sync protocol deadlocks if a single Grant or Release is lost;
    // with the link it must still drain and stay logically synchronous.
    for seed in 0..4 {
        let out = run_and_verify(
            lossy(3, seed, 0.15),
            Workload::uniform_random(3, 10, seed),
            |_| SyncProtocol::new().with_retransmission(),
            &catalog::causal(),
        );
        assert!(
            out.ok(),
            "seed {seed}: reliable sync must verify under loss"
        );
        assert!(limit_sets::in_x_sync(&out.user_run()), "seed {seed}");
        assert!(out.stats.retransmitted_frames > 0 || out.stats.dropped_frames == 0);
    }
}

#[test]
fn registry_reliable_variants_deliver_under_loss() {
    for kind in ProtocolKind::fixed() {
        if !kind.supports_retransmission() {
            continue;
        }
        let n = 3;
        let r = Simulation::run_uniform(
            lossy(n, 11, 0.2),
            Workload::uniform_random(n, 15, 11),
            |node| kind.instantiate_with(n, node, true),
        )
        .expect("no protocol bug");
        assert_eq!(r.stats.delivered, 15, "{} under loss", kind.name());
        assert!(r.completed && r.run.is_quiescent(), "{}", kind.name());
    }
}

#[test]
fn protocol_bug_surfaces_as_counterexample_in_run_and_verify() {
    /// Delivers every frame twice: a protocol bug the kernel must catch.
    struct DoubleDeliver;
    impl Protocol for DoubleDeliver {
        fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
            ctx.send_user(msg, Vec::new());
        }
        fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, _f: ProcessId, msg: MessageId, _t: Vec<u8>) {
            ctx.deliver(msg);
            ctx.deliver(msg);
        }
    }
    let out = run_and_verify(
        SimConfig::new(2, LatencyModel::Fixed(5), 1),
        Workload::uniform_random(2, 3, 1),
        |_| DoubleDeliver,
        &catalog::fifo(),
    );
    assert!(!out.ok(), "a buggy protocol must not verify");
    assert!(!out.live);
    let e = out
        .counterexample
        .expect("the bug is reported, not swallowed");
    assert!(matches!(e.kind, SimErrorKind::InvalidDelivery(_)));
    assert!(e.msg.is_some(), "the offending message is named");
    assert!(e.trace.is_some(), "the partial trace is attached");
}
