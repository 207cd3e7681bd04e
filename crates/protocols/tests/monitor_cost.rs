//! The online monitor's complexity class, pinned by two counts.
//!
//! `eval::Monitor` binds the freshly completed message and looks for the
//! other variables among the earlier-completed ones. Narrowed by
//! vector-clock cuts, the messages it actually tests with
//! `OrderView::before` are the ones in flight around the new delivery —
//! a number set by the protocol and the network, not by how long the
//! run has been going. A scan of everything completed so far costs
//! about 1.5 calls per *earlier message* per delivery (2 991 at 2 000
//! messages, 11 991 at 8 000); this test fails for any search of that
//! class, without a clock.
//!
//! Finding the cuts reads clocks (`OrderView::event_clock`). Searched
//! from the live end of each process's index, where the bounds lie,
//! that costs 10.4 reads per delivery at any run length. Binary searches
//! over whole lists read 86 at 2 000 messages and 102 at 8 000, and
//! pinning the fresh message where its delivery would have to come
//! first as well reads 16.4; the bound of 16 fails for either.

use msgorder_predicate::{catalog, eval};
use msgorder_protocols::CausalRst;
use msgorder_runs::{
    EventKind, MessageId, MessageMeta, OrderView, ProcessId, StreamingRun, SystemEvent, UserEvent,
};
use msgorder_simnet::{LatencyModel, RunObserver, SimConfig, Simulation, Workload};
use std::cell::Cell;

/// The observed run, counting the order queries and clock reads made
/// through it.
struct Counting<'a> {
    run: &'a StreamingRun,
    calls: &'a Calls,
}

#[derive(Default)]
struct Calls {
    before: Cell<u64>,
    event_clock: Cell<u64>,
}

impl OrderView for Counting<'_> {
    fn before(&self, a: UserEvent, b: UserEvent) -> bool {
        self.calls.before.set(self.calls.before.get() + 1);
        self.run.before(a, b)
    }

    fn meta(&self, m: MessageId) -> &MessageMeta {
        self.run.meta(m)
    }

    fn message_count(&self) -> usize {
        self.run.message_count()
    }

    fn src(&self, m: MessageId) -> ProcessId {
        self.run.src(m)
    }

    fn dst(&self, m: MessageId) -> ProcessId {
        self.run.dst(m)
    }

    fn event_clock(&self, e: UserEvent) -> Option<&[u64]> {
        self.calls.event_clock.set(self.calls.event_clock.get() + 1);
        self.run.event_clock(e)
    }
}

/// Feeds every delivery to the monitor through a [`Counting`] view.
struct CountedMonitor<'p> {
    monitor: eval::Monitor<'p>,
    calls: Calls,
}

impl RunObserver for CountedMonitor<'_> {
    fn on_event(
        &mut self,
        view: &StreamingRun,
        ev: SystemEvent,
        _index: usize,
        _time: u64,
    ) -> bool {
        if ev.kind == EventKind::Deliver {
            let view = Counting {
                run: view,
                calls: &self.calls,
            };
            self.monitor.on_complete(&view, ev.msg);
        }
        true
    }
}

/// `(before, event_clock)` calls per delivery while `causal-rst` runs
/// `messages` uniformly random messages over 4 processes against the
/// causal spec.
fn calls_per_delivery(messages: usize, seed: u64) -> (f64, f64) {
    let n = 4;
    let spec = catalog::causal();
    let mut observer = CountedMonitor {
        monitor: eval::Monitor::new(&spec),
        calls: Calls::default(),
    };
    let config = SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 100 }, seed);
    let workload = Workload::uniform_random(n, messages, seed);
    let result = Simulation::new(config, workload, |_| CausalRst::new(n))
        .run_streaming(&mut observer)
        .expect("causal-rst has no protocol bug");
    assert!(result.completed && result.run.is_quiescent());
    assert!(!observer.monitor.violated(), "causal-rst is causal");
    assert_eq!(observer.monitor.completed_seen(), messages);
    let per_delivery = |count: &Cell<u64>| count.get() as f64 / messages as f64;
    (
        per_delivery(&observer.calls.before),
        per_delivery(&observer.calls.event_clock),
    )
}

#[test]
fn order_queries_per_delivery_do_not_grow_with_the_run() {
    for messages in [2_000, 8_000] {
        let (before, event_clock) = calls_per_delivery(messages, 3);
        assert!(
            before <= 8.0,
            "{messages} messages: {before:.1} `before` calls per delivery"
        );
        assert!(
            event_clock <= 16.0,
            "{messages} messages: {event_clock:.1} `event_clock` calls per delivery"
        );
    }
}
