//! Property tests: every protocol keeps its guarantee under arbitrary
//! seeds, workload shapes and latency spreads.

use msgorder_predicate::{catalog, eval};
use msgorder_protocols::{CausalBss, OnlineMonitor, ProtocolKind};
use msgorder_runs::{
    limit_sets, EventKind, MessageId, ProcessId, StreamingRun, SystemEvent, UserRun,
    UserRunSnapshot,
};
use msgorder_simnet::{
    FaultModel, HostAction, HostEnv, HostEvent, LatencyModel, Protocol, ProtocolHost, RunObserver,
    SimConfig, Simulation, Workload,
};
use proptest::prelude::*;

fn run(
    kind: &ProtocolKind,
    procs: usize,
    w: Workload,
    seed: u64,
    hi: u64,
) -> msgorder_simnet::StreamResult {
    Simulation::run_uniform(
        SimConfig::new(procs, LatencyModel::Uniform { lo: 1, hi }, seed),
        w,
        |node| kind.instantiate(procs, node),
    )
    .expect("no protocol bug")
}

/// Every tagged kind: the registry's, and `causal-bss` with the
/// broadcast workload it requires.
const TAGGED: [&str; 6] = [
    "fifo",
    "causal-rst",
    "causal-ses",
    "causal-bss",
    "flush",
    "synthesized",
];

fn tagged(name: &str, n: usize, node: usize) -> Box<dyn Protocol> {
    if name == "causal-bss" {
        return Box::new(CausalBss::new(n, node));
    }
    ProtocolKind::by_name(name, Some(&catalog::causal()))
        .expect("a registry kind")
        .instantiate(n, node)
}

/// The user frames `name` sends for `w` on 3 processes, each request
/// dispatched to its sender through the host harness: `(from, msg, tag)`.
fn frames_sent(name: &str, w: &Workload) -> Vec<(ProcessId, MessageId, Vec<u8>)> {
    let mut senders: Vec<_> = (0..3)
        .map(|node| (tagged(name, 3, node), HostEnv::new(node, 3, w)))
        .collect();
    let mut frames = Vec::new();
    for (i, send) in w.sends.iter().enumerate() {
        let (p, env) = &mut senders[send.src];
        p.process_event(env, HostEvent::Request { msg: MessageId(i) });
        for action in env.take_actions() {
            if let HostAction::SendUser { msg, tag } = action {
                frames.push((ProcessId(send.src), msg, tag));
            }
        }
    }
    frames
}

/// Every registry kind with its retransmission flag: plain, and
/// reliable where the kind has a reliable variant.
fn registry_variants() -> Vec<(ProtocolKind, bool)> {
    let mut kinds = ProtocolKind::fixed();
    kinds.push(ProtocolKind::Synthesized(vec![catalog::causal()]));
    kinds
        .into_iter()
        .flat_map(|kind| {
            let reliable = kind.supports_retransmission();
            [(kind.clone(), false)]
                .into_iter()
                .chain(reliable.then_some((kind, true)))
        })
        .collect()
}

/// The control frames the `reliable` variant of `kind` sends running
/// `w` on 3 processes whose epochs are `epochs`: every frame handed to
/// its destination at once, in send order, timers never firing.
/// `(from, to, bytes)`.
fn control_frames_sent(
    kind: &ProtocolKind,
    reliable: bool,
    w: &Workload,
    epochs: [u64; 3],
) -> Vec<(ProcessId, usize, Vec<u8>)> {
    let mut nodes: Vec<_> = (0..3)
        .map(|node| {
            let mut env = HostEnv::new(node, 3, w);
            env.set_epoch(epochs[node]);
            (kind.instantiate_with(3, node, reliable), env)
        })
        .collect();
    let mut queue: std::collections::VecDeque<(usize, HostEvent)> = w
        .sends
        .iter()
        .enumerate()
        .map(|(i, send)| (send.src, HostEvent::Request { msg: MessageId(i) }))
        .collect();
    let mut frames = Vec::new();
    while let Some((node, ev)) = queue.pop_front() {
        let (p, env) = &mut nodes[node];
        p.process_event(env, ev);
        for action in env.take_actions() {
            match action {
                HostAction::SendUser { msg, tag } => queue.push_back((
                    w.sends[msg.0].dst,
                    HostEvent::UserFrame {
                        from: ProcessId(node),
                        msg,
                        tag,
                    },
                )),
                HostAction::SendControl { to, bytes } => {
                    frames.push((ProcessId(node), to.0, bytes.clone()));
                    queue.push_back((
                        to.0,
                        HostEvent::ControlFrame {
                            from: ProcessId(node),
                            bytes,
                        },
                    ));
                }
                _ => {}
            }
        }
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fifo_always_fifo(procs in 2usize..5, msgs in 1usize..14, seed in 0u64..10_000, hi in 2u64..1500) {
        let w = Workload::uniform_random(procs, msgs, seed);
        let r = run(&ProtocolKind::Fifo, procs, w, seed, hi);
        prop_assert!(r.completed && r.run.is_quiescent());
        prop_assert!(eval::satisfies_spec(&catalog::fifo(), &r.run.users_view()));
        prop_assert_eq!(r.stats.control_messages, 0);
    }

    #[test]
    fn rst_always_causal(procs in 2usize..5, msgs in 1usize..12, seed in 0u64..10_000, hi in 2u64..1500) {
        let w = Workload::uniform_random(procs, msgs, seed);
        let r = run(&ProtocolKind::CausalRst, procs, w, seed, hi);
        prop_assert!(r.completed && r.run.is_quiescent());
        prop_assert!(limit_sets::in_x_co(&r.run.users_view()));
        prop_assert_eq!(r.stats.control_messages, 0);
    }

    #[test]
    fn ses_always_causal(procs in 2usize..5, msgs in 1usize..12, seed in 0u64..10_000, hi in 2u64..1500) {
        let w = Workload::uniform_random(procs, msgs, seed);
        let r = run(&ProtocolKind::CausalSes, procs, w, seed, hi);
        prop_assert!(r.completed && r.run.is_quiescent());
        prop_assert!(limit_sets::in_x_co(&r.run.users_view()));
    }

    #[test]
    fn sync_always_synchronous(procs in 2usize..5, msgs in 1usize..10, seed in 0u64..10_000,
                               batched in any::<bool>()) {
        let w = Workload::uniform_random(procs, msgs, seed);
        let kind = if batched { ProtocolKind::SyncBatched } else { ProtocolKind::Sync };
        let r = run(&kind, procs, w, seed, 700);
        prop_assert!(r.completed && r.run.is_quiescent());
        prop_assert!(limit_sets::in_x_sync(&r.run.users_view()));
        prop_assert!(r.stats.control_messages > 0 || msgs == 0);
    }

    #[test]
    fn flush_honours_markers(procs in 2usize..4, msgs in 2usize..14, seed in 0u64..10_000,
                             every in 2usize..6) {
        let w = Workload::with_markers(procs, msgs, every, "red", seed);
        let r = run(&ProtocolKind::Flush, procs, w, seed, 800);
        prop_assert!(r.completed && r.run.is_quiescent());
        prop_assert!(eval::satisfies_spec(
            &catalog::local_forward_flush(),
            &r.run.users_view()
        ));
    }

    #[test]
    fn bss_broadcasts_causally(procs in 2usize..5, rounds in 1usize..7, seed in 0u64..10_000) {
        let w = Workload::broadcast_rounds(procs, rounds, seed);
        let r = Simulation::run_uniform(
            SimConfig::new(procs, LatencyModel::Uniform { lo: 1, hi: 900 }, seed),
            w,
            |me| msgorder_protocols::CausalBss::new(procs, me),
        )
        .expect("no protocol bug");
        prop_assert!(r.completed && r.run.is_quiescent());
        prop_assert!(limit_sets::in_x_co(&r.run.users_view()));
    }

    #[test]
    fn synthesized_causal_safe_live(msgs in 1usize..9, seed in 0u64..10_000) {
        let pred = catalog::causal();
        let w = Workload::uniform_random(3, msgs, seed);
        let r = run(&ProtocolKind::Synthesized(vec![pred.clone()]), 3, w, seed, 800);
        prop_assert!(r.completed && r.run.is_quiescent());
        prop_assert!(eval::satisfies_spec(&pred, &r.run.users_view()));
        prop_assert_eq!(r.stats.control_messages, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No bytes on the wire reach a panic: a user frame whose tag is
    /// arbitrary, or a real tag with one bit flipped, is either rejected
    /// (and nothing else happens) or acted on, by every tagged kind.
    #[test]
    fn foreign_tag_bytes_are_rejected_or_acted_on(
        kind in 0usize..TAGGED.len(),
        seed in 0u64..10_000,
        pick in any::<usize>(),
        bit in any::<usize>(),
        junk in collection::vec(any::<u8>(), 0..64),
        flip in any::<bool>(),
    ) {
        let name = TAGGED[kind];
        let w = if name == "causal-bss" {
            Workload::broadcast_rounds(3, 2, seed)
        } else {
            Workload::uniform_random(3, 8, seed)
        };
        let frames = frames_sent(name, &w);
        let (from, msg, clean) = &frames[pick % frames.len()];
        let tag = if flip {
            let mut dirty = clean.clone();
            let bit = bit % (dirty.len() * 8);
            dirty[bit / 8] ^= 1 << (bit % 8);
            dirty
        } else {
            junk
        };
        let dst = w.sends[msg.0].dst;
        let mut env = HostEnv::new(dst, 3, &w);
        let mut p = tagged(name, 3, dst);
        p.process_event(&mut env, HostEvent::UserFrame { from: *from, msg: *msg, tag });
        let actions = env.take_actions();
        if actions.iter().any(|a| matches!(a, HostAction::RejectFrame { .. })) {
            prop_assert_eq!(actions.len(), 1, "{} rejected and acted: {:?}", name, actions);
        }
    }

    /// The same for control frames, at every registry kind, plain and
    /// reliable: arbitrary bytes, or a frame the kind really sent with
    /// one bit flipped or one byte appended (its check byte repaired),
    /// reach no panic, and a refused frame yields exactly one
    /// `RejectFrame` and nothing else. A flipped or extended frame is
    /// always refused: the check byte catches every single-bit flip, and
    /// a frame's kind fixes its counter count.
    #[test]
    fn foreign_control_bytes_are_rejected_or_acted_on(
        variant in 0usize..11,
        seed in 0u64..10_000,
        epochs in (0u64..300, 0u64..300, 0u64..300),
        pick in any::<usize>(),
        bit in any::<usize>(),
        junk in collection::vec(any::<u8>(), 0..64),
        edit in 0usize..3,
    ) {
        let variants = registry_variants();
        let (kind, reliable) = &variants[variant % variants.len()];
        let w = Workload::uniform_random(3, 6, seed);
        let frames = control_frames_sent(kind, *reliable, &w, [epochs.0, epochs.1, epochs.2]);
        let (from, to, bytes, forged) = match (edit, frames.get(pick % frames.len().max(1))) {
            (1, Some((from, to, clean))) => {
                let mut dirty = clean.clone();
                let bit = bit % (dirty.len() * 8);
                dirty[bit / 8] ^= 1 << (bit % 8);
                (*from, *to, dirty, true)
            }
            (2, Some((from, to, clean))) => {
                let (&check, body) = clean.split_last().expect("a check byte");
                let extra = bit as u8;
                let mut longer = body.to_vec();
                longer.push(extra);
                longer.push(check.wrapping_add(extra));
                (*from, *to, longer, true)
            }
            _ => (ProcessId(pick % 3), bit % 3, junk, false),
        };
        let mut env = HostEnv::new(to, 3, &w);
        let mut p = kind.instantiate_with(3, to, *reliable);
        p.process_event(&mut env, HostEvent::ControlFrame { from, bytes: bytes.clone() });
        let actions = env.take_actions();
        let refused = actions.iter().any(|a| matches!(a, HostAction::RejectFrame { .. }));
        let name = format!("{}{}", kind.name(), if *reliable { " --reliable" } else { "" });
        if refused {
            prop_assert_eq!(actions.len(), 1, "{} rejected and acted: {:?}", name, actions);
        }
        prop_assert!(!forged || refused, "{} acted on {:?}: {:?}", name, bytes, actions);
    }
}

/// The explorer's leaf check on one terminal run: the search on the
/// run's clocks finds the witness the search on its user's view finds,
/// renumbered, for every catalog spec, and the clock digest is the
/// view's digest. The view itself decides on its clocks, by the
/// monitor fed in one linear extension, and names the witness and
/// verdict a closure-backed view of the same order gives.
fn leaf_check_is_the_views(run: &StreamingRun) -> Result<(), String> {
    let view = run.users_view();
    let reference = UserRun::try_from(UserRunSnapshot::from(&view)).expect("a partial order");
    prop_assert_eq!(run.users_view_digest(), view.digest());
    let mut scratch = eval::EvalScratch::default();
    for entry in catalog::all() {
        let prepared = eval::Prepared::new(&entry.predicate);
        let witness = eval::find_instantiation(&entry.predicate, &reference);
        prop_assert_eq!(
            eval::find_instantiation(&entry.predicate, &view),
            witness.clone(),
            "{}",
            entry.name
        );
        prop_assert_eq!(
            eval::holds(&entry.predicate, &view),
            witness.is_some(),
            "{}",
            entry.name
        );
        prop_assert_eq!(
            prepared.satisfies_spec(&view),
            eval::satisfies_spec(&entry.predicate, &reference),
            "{}",
            entry.name
        );
        let on_clocks = prepared.find_with(run, &mut scratch).map(|witness| {
            witness
                .iter()
                .map(|&m| run.dense_id(m).expect("a witness names complete messages"))
                .collect::<Vec<_>>()
        });
        prop_assert_eq!(
            on_clocks,
            prepared.find_instantiation(&view),
            "{}",
            entry.name
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// What `explore_violations` checks at a leaf — the predicate
    /// searched and the view digested on the kernel's clocks — is what
    /// the post-hoc view gives, on runs of every registry kind under
    /// every latency model, with colored messages, and on lossy
    /// networks whose runs end with messages still in flight.
    #[test]
    fn the_leaf_check_on_the_clocks_is_the_users_view_check(
        procs in 2usize..5,
        msgs in 0usize..10,
        seed in 0u64..10_000,
        latency in 0usize..3,
        lossy in any::<bool>(),
    ) {
        let latency = [
            LatencyModel::Fixed(3),
            LatencyModel::Uniform { lo: 1, hi: 400 },
            LatencyModel::Straggler { lo: 1, hi: 60, slow_every: 4, slow_factor: 20 },
        ][latency];
        let drop = if lossy { 0.3 } else { 0.0 };
        let mut w = Workload::uniform_random(procs, msgs, seed);
        for (i, send) in w.sends.iter_mut().enumerate() {
            send.color = [None, Some("red"), None, Some("handoff")][i % 4].map(str::to_owned);
        }
        let mut kinds = ProtocolKind::fixed();
        kinds.push(ProtocolKind::Synthesized(vec![catalog::causal()]));
        for kind in &kinds {
            let config = SimConfig::new(procs, latency, seed)
                .with_faults(FaultModel::none().with_drop(drop).expect("a probability"));
            // A lossy run may end in a counterexample; its run is not a leaf.
            if let Ok(r) = Simulation::run_uniform(config, w.clone(), |node| kind.instantiate(procs, node)) {
                leaf_check_is_the_views(&r.run)?;
            }
        }
    }
}

/// The product's [`OnlineMonitor`], which decides `causal` and `fifo`
/// by its running joins, beside the index-search reference fed the same
/// deliveries; `detected` is the event index at which the reference
/// first finds a witness.
struct JoinBesideSearch<'p> {
    online: OnlineMonitor<'p>,
    reference: eval::Monitor<'p>,
    detected: Option<usize>,
}

impl RunObserver for JoinBesideSearch<'_> {
    fn on_event(&mut self, run: &StreamingRun, ev: SystemEvent, index: usize, time: u64) -> bool {
        if ev.kind == EventKind::Deliver
            && !self.reference.violated()
            && self.reference.on_complete(run, ev.msg).is_some()
        {
            self.detected = Some(index);
        }
        self.online.on_event(run, ev, index, time)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The online monitor's join decides `causal` and `fifo` exactly as
    /// the index search does — same verdict, same detecting delivery,
    /// same witness — on runs of every registry kind under every latency
    /// model, on quiet, lossy (with and without the reliable layer) and
    /// duplicating networks, halting at the violation or running on.
    #[test]
    fn the_join_monitor_is_the_index_search(
        procs in 2usize..5,
        msgs in 0usize..40,
        seed in 0u64..10_000,
        latency in 0usize..3,
        faults in 0usize..4,
        halting in any::<bool>(),
    ) {
        let latency = [
            LatencyModel::Fixed(3),
            LatencyModel::Uniform { lo: 1, hi: 400 },
            LatencyModel::Straggler { lo: 1, hi: 60, slow_every: 4, slow_factor: 20 },
        ][latency];
        // Quiet; lossy, then lossy under the reliable layer; duplicating.
        let (drop, dup, reliable) = [
            (0.0, 0.0, false),
            (0.3, 0.0, false),
            (0.3, 0.0, true),
            (0.0, 0.3, false),
        ][faults];
        let faults = FaultModel::none()
            .with_drop(drop)
            .and_then(|f| f.with_duplication(dup))
            .expect("probabilities");
        let w = Workload::uniform_random(procs, msgs, seed);
        let mut kinds = ProtocolKind::fixed();
        kinds.push(ProtocolKind::Synthesized(vec![catalog::causal()]));
        for spec in [catalog::causal(), catalog::fifo()] {
            for kind in &kinds {
                let online = if halting {
                    OnlineMonitor::halting(&spec)
                } else {
                    OnlineMonitor::new(&spec)
                };
                let mut observer = JoinBesideSearch {
                    online,
                    reference: eval::Monitor::indexed(&spec),
                    detected: None,
                };
                let config = SimConfig::new(procs, latency, seed).with_faults(faults.clone());
                // A lossy run may end in a counterexample: the monitors
                // saw the same deliveries either way.
                let _ = Simulation::new(config, w.clone(), |node| {
                    kind.instantiate_with(procs, node, reliable)
                })
                .run_streaming(&mut observer);
                let (online, at) = (&observer.online, format!("{} under {spec}", kind.name()));
                prop_assert_eq!(online.violated(), observer.reference.violated(), "{}", at);
                prop_assert_eq!(online.detection_event(), observer.detected, "{}", at);
                prop_assert_eq!(online.witness(), observer.reference.witness(), "{}", at);
            }
        }
    }
}
