//! Allocation guards for the steady-state simulate path and the
//! explorer's leaf.
//!
//! `World::build` declares every workload message in the arena up
//! front, so once the scheduler heap and the double-buffered journal
//! reach their high-water capacity, dispatching a message — pop the
//! pool, run the protocol, append send/deliver events, journal them —
//! must touch the allocator zero times. The guard snapshots the global
//! allocation counter at every observed run event and requires the
//! entire second half of the event stream to be allocation-free.
//!
//! The same test bounds the explorer's allocator calls: by the depth of
//! the search rather than by its schedule count, so a per-branch state
//! copy or a per-node buffer cannot come back unnoticed, and under exact
//! deduplication, so a per-state key or sleep-set allocation cannot
//! either.
//!
//! One `#[test]` for the whole file: the counter is process-global, so a
//! second test on a parallel harness thread would be counted too.

use msgorder_runs::{StreamingRun, SystemEvent};
use msgorder_simnet::{
    explore, DedupMode, ExploreOptions, LatencyModel, Protocol, RunObserver, SendSpec, SimConfig,
    Simulation, SortedSlab, Workload,
};

#[global_allocator]
static ALLOC: msgorder_testkit::CountingAlloc = msgorder_testkit::CountingAlloc;

/// Tagless protocol: send and deliver immediately (X_async semantics),
/// the baseline for the kernel's own per-message cost.
#[derive(Clone, Hash)]
struct Immediate;

impl Protocol for Immediate {
    fn on_send_request(
        &mut self,
        ctx: &mut msgorder_simnet::Ctx<'_>,
        msg: msgorder_runs::MessageId,
    ) {
        ctx.send_user(msg, Vec::new());
    }
    fn on_user_frame(
        &mut self,
        ctx: &mut msgorder_simnet::Ctx<'_>,
        _from: msgorder_runs::ProcessId,
        msg: msgorder_runs::MessageId,
        _tag: Vec<u8>,
    ) {
        ctx.deliver(msg);
    }
}

/// Records the allocation counter at each run event into a buffer sized
/// ahead of the run, so observing itself never allocates.
struct AllocProbe {
    at: Vec<u64>,
}

impl RunObserver for AllocProbe {
    fn on_event(&mut self, _view: &StreamingRun, _ev: SystemEvent, _index: usize, _t: u64) -> bool {
        assert!(self.at.len() < self.at.capacity(), "probe undersized");
        self.at.push(msgorder_testkit::allocations());
        true
    }
}

fn steady_state_allocs<P: Protocol>(msgs: usize, factory: impl Fn(usize) -> P) -> u64 {
    let n = 3;
    let w = Workload::uniform_random(n, msgs, 7);
    let mut probe = AllocProbe {
        at: Vec::with_capacity(4 * msgs + 1),
    };
    let sim = Simulation::new(
        SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 40 }, 7),
        w,
        factory,
    );
    let r = sim.run_streaming(&mut probe).expect("no protocol bug");
    assert!(r.completed && r.run.is_quiescent(), "run must finish");
    assert_eq!(probe.at.len(), 4 * msgs, "all events observed");
    probe.at[probe.at.len() - 1] - probe.at[probe.at.len() / 2]
}

#[test]
fn dispatch_is_allocation_free_at_steady_state() {
    let allocs = steady_state_allocs(24, |_| Immediate);
    assert_eq!(
        allocs, 0,
        "second half of an async run must not allocate per delivered message"
    );

    // A stateful protocol: per-peer counters in a SortedSlab. After the
    // slab has seen every peer, updates are in-place — the steady-state
    // window stays allocation-free even with per-message bookkeeping.
    struct Counting {
        seen: SortedSlab<usize, u64>,
    }
    impl Protocol for Counting {
        fn on_send_request(
            &mut self,
            ctx: &mut msgorder_simnet::Ctx<'_>,
            msg: msgorder_runs::MessageId,
        ) {
            ctx.send_user(msg, Vec::new());
        }
        fn on_user_frame(
            &mut self,
            ctx: &mut msgorder_simnet::Ctx<'_>,
            from: msgorder_runs::ProcessId,
            msg: msgorder_runs::MessageId,
            _tag: Vec<u8>,
        ) {
            *self.seen.get_or_insert_with(from.0, || 0) += 1;
            ctx.deliver(msg);
        }
    }
    let allocs = steady_state_allocs(24, |_| Counting {
        seen: SortedSlab::new(),
    });
    assert_eq!(allocs, 0, "slab-backed state must settle to zero allocs");

    // The explorer hands its visitor the world's own run, keeps one
    // frame of buffers per DFS depth, and copies a branching child into
    // that depth's spare state with `clone_from`: 112 allocator calls
    // for the 15 schedules of three same-channel messages, nearly all of
    // them building the root and warming each depth once. A fresh state
    // clone per branch and fresh per-node vectors cost 337; a state
    // clone that also copied the message table, 426; a run cloned per
    // leaf on top of that, 515.
    let same_channel = |messages: usize| Workload {
        sends: (0..messages)
            .map(|_| SendSpec {
                at: 0,
                src: 0,
                dst: 1,
                color: None,
            })
            .collect(),
    };
    let plain = |messages| {
        msgorder_testkit::counting(|| {
            explore(
                2,
                same_channel(messages),
                |_| Immediate,
                &ExploreOptions::default(),
                &|_| true,
            )
        })
    };
    let (exp, calls) = plain(3);
    assert_eq!(exp.schedules, 15);
    assert!(
        calls <= 112,
        "{calls} allocator calls for 15 schedules: is a state cloned per branch, \
         or a node's transitions collected into a fresh vector, again?"
    );

    // So the calls grow with the depth of the search, not with its
    // schedule count: two more messages add four dispatches to every
    // schedule and multiply the schedules by 63 (15 → 945), yet add 110
    // calls (222 measured), under 32 per extra depth. At a fresh clone
    // per branch they added ~20 000.
    let (exp, more) = plain(5);
    assert_eq!(exp.schedules, 945);
    assert!(
        more - calls <= 32 * 4,
        "{more} allocator calls for 945 schedules against {calls} for 15: \
         the explorer allocates per schedule again"
    );

    // The benchmark's pool shape 0 under reduction: 6 070 schedules in
    // 388 allocator calls (392 in a release build); 442 868 with a fresh
    // state clone per branch and fresh per-node vectors.
    let por = ExploreOptions {
        por: true,
        ..ExploreOptions::default()
    };
    let (exp, calls) = msgorder_testkit::counting(|| {
        explore(
            3,
            Workload::uniform_random(3, 7, 3),
            |_| Immediate,
            &por,
            &|_| true,
        )
    });
    assert_eq!(exp.schedules, 6_070);
    assert!(
        calls <= 400,
        "{calls} allocator calls for 6 070 reduced schedules: bounded by depth no longer"
    );

    // Exact deduplication merges the same space into 6 schedules over
    // 24 states: 168 allocator calls with interned components and every
    // key and sleep set stored in the seen-set's arena, the interner's
    // tables and the arena's doublings making up most of them. One boxed
    // id-vector key and one sleep-set vector per state cost 225 (385
    // with a fresh state clone per branch, 450 before the state clone
    // shrank, see above); copying every component's bytes into each
    // state and into a fresh key per insert cost 807.
    let exact = ExploreOptions {
        dedup: DedupMode::Exact,
        ..ExploreOptions::default()
    };
    let w = same_channel(3);
    let (exp, calls) =
        msgorder_testkit::counting(|| explore(2, w, |_| Immediate, &exact, &|_| true));
    assert_eq!((exp.schedules, exp.states), (6, 24));
    assert!(
        calls <= 168,
        "{calls} allocator calls for 24 exact states: is a key or a sleep set boxed per state again?"
    );

    // Pool shape 0 under reduction with exact deduplication: 49 318
    // states in 568 allocator calls, 176 beyond the reduced search's own
    // — an insert allocates only when an arena or a table doubles. One
    // boxed key and one sleep-set vector per state cost 81 972, about
    // 1.7 per state.
    let por_exact = ExploreOptions {
        por: true,
        dedup: DedupMode::Exact,
        ..ExploreOptions::default()
    };
    let (exp, calls) = msgorder_testkit::counting(|| {
        explore(
            3,
            Workload::uniform_random(3, 7, 3),
            |_| Immediate,
            &por_exact,
            &|_| true,
        )
    });
    assert_eq!(exp.states, 49_318);
    assert!(
        calls <= 600,
        "{calls} allocator calls for 49 318 exact states: the seen-set allocates per state again"
    );
}
