//! Run metrics: counters and log₂ histograms collected from the kernel
//! event stream via the same [`RunObserver`] hook the tracer uses.
//!
//! [`LiveMetrics`] rides along a simulation (alone or fanned out next
//! to a [`Recorder`](crate::Recorder) / online monitor) and drains what
//! it sees into a [`SharedRegistry`] — the one store every report and
//! exporter reads (see [`registry`](crate::registry)). All message
//! timings are in simulated ticks.

use crate::registry::{names, Scope, SharedRegistry};
use msgorder_predicate::eval::MonitorTimings;
use msgorder_runs::{EventKind, StreamingRun, SystemEvent};
use msgorder_simnet::{
    DropReason, FaultModel, FaultRecord, KernelEvent, PayloadKind, RejectReason, RunObserver,
    WireRecord,
};
use std::collections::HashMap;

/// A log₂-bucketed histogram of `u64` samples: bucket `i` holds samples
/// in `[2^i, 2^(i+1))` (bucket 0 also takes 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))`.
    pub buckets: Vec<u64>,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let bucket = 63 - v.max(1).leading_zeros() as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean sample, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`), resolved to
    /// bucket granularity: the exclusive upper edge of the bucket the
    /// quantile sample falls in.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
            }
        }
        self.max
    }

    /// Folds `other` into this histogram: buckets and sums add,
    /// extrema widen. The result is exactly the histogram of the two
    /// sample streams interleaved.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Renders the non-empty buckets as `[lo, hi): count` lines.
    pub fn render(&self, indent: &str) -> String {
        let mut out = String::new();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo = if i == 0 { 0u64 } else { 1u64 << i };
            if i >= 63 {
                out.push_str(&format!("{indent}[{lo}, ..): {c}\n"));
            } else {
                out.push_str(&format!("{indent}[{lo}, {}): {c}\n", 1u64 << (i + 1)));
            }
        }
        out
    }
}

impl From<&MonitorTimings> for Histogram {
    fn from(t: &MonitorTimings) -> Histogram {
        let mut h = Histogram::new();
        h.buckets[..t.buckets.len()].copy_from_slice(&t.buckets);
        h.count = t.searches;
        h.sum = t.total_nanos;
        h.max = t.max_nanos;
        // MonitorTimings does not track the minimum; approximate with the
        // smallest non-empty bucket's lower edge.
        h.min = t.buckets.iter().position(|&c| c > 0).map_or(u64::MAX, |i| {
            if i == 0 {
                0
            } else {
                1u64 << i
            }
        });
        h
    }
}

/// Per-message latency anchors, held only while the message is in
/// flight. Entries leave the map on delivery or on a provably terminal
/// outcome — the fix for the unbounded-growth leak soak runs hit.
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    invoke: Option<u64>,
    receive: Option<u64>,
}

/// A multiply-rotate hasher for the small-integer message-id keys: the
/// default SipHash costs more than everything else on the observer's
/// per-event path, and these keys need no DoS resistance.
#[derive(Debug, Default)]
struct MsgIdHasher(u64);

impl std::hash::Hasher for MsgIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0 ^ n as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }
}

type PendingMap = HashMap<usize, Pending, std::hash::BuildHasherDefault<MsgIdHasher>>;

/// Counters and histograms accumulated since the last flush.
#[derive(Debug, Default)]
struct Deltas {
    deliveries: u64,
    delivery_latency: Histogram,
    inhibition: Histogram,
    user_frames: u64,
    control_frames: u64,
    user_bytes: u64,
    control_bytes: u64,
    retransmissions: u64,
    partition_drops: u64,
    loss_drops: u64,
    duplicates: u64,
    crash_effects: u64,
    messages_abandoned: u64,
    /// Indexed by [`RejectReason`] discriminant.
    rejected: [u64; RejectReason::ALL.len()],
}

/// Kernel events between registry flushes: keeps the registry lock off
/// the per-event path (the benchmark harness's
/// `trace.live_metrics_overhead_pct` row).
const FLUSH_EVERY: usize = 1024;

/// The one metrics observer: a [`RunObserver`] that folds the kernel
/// event stream into [`Scope::Run`] deltas and drains them into a
/// [`SharedRegistry`] every 1024 events, so a Prometheus
/// scrape (or `--metrics-out` snapshot) sees fresh numbers *while* the
/// kernel runs. Drains only add, so repeated drains — from one observer
/// or several sharing a registry — sum to exactly one big drain.
///
/// Memory stays `O(in-flight messages)`: latency anchors are evicted
/// when a message delivers, and — with
/// [`with_terminal_eviction`](LiveMetrics::with_terminal_eviction) — as
/// soon as its last chance of delivery is gone (frame dropped with no
/// retransmission layer, or destination permanently crashed). Whatever
/// is still pending at [`finish`](LiveMetrics::finish) is counted as
/// abandoned.
#[derive(Debug)]
pub struct LiveMetrics {
    registry: SharedRegistry,
    since_flush: usize,
    pending: PendingMap,
    /// Evict on any drop: set when no retransmission layer exists, so
    /// a dropped user frame is the end of that message's story.
    evict_on_drop: bool,
    /// Known fault schedules, for spotting frames bound for a
    /// permanently crashed destination.
    faults: Option<FaultModel>,
    delta: Deltas,
}

impl LiveMetrics {
    /// Declares every [`Scope::Run`] family in `registry`, so scrapers
    /// see the full schema before the first flush, and starts feeding
    /// it.
    pub fn new(registry: SharedRegistry) -> LiveMetrics {
        registry.with(|reg| reg.declare(Scope::Run));
        LiveMetrics {
            registry,
            since_flush: 0,
            pending: PendingMap::default(),
            evict_on_drop: false,
            faults: None,
            delta: Deltas::default(),
        }
    }

    /// Enables mid-run eviction of messages that can no longer be
    /// delivered. `reliable` says whether a retransmission layer runs
    /// under the protocol (if so, a dropped frame is *not* terminal);
    /// `faults` is the run's fault model, used to recognise frames
    /// bound for a permanently crashed destination.
    pub fn with_terminal_eviction(mut self, reliable: bool, faults: &FaultModel) -> Self {
        self.evict_on_drop = !reliable;
        self.faults = Some(faults.clone());
        self
    }

    /// Messages currently tracked for latency — the bound the
    /// soak-memory test asserts on.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Feeds a recorded event stream through the observer — lets
    /// `msgorder replay --metrics` report on a trace without re-running
    /// the kernel.
    pub fn consume(&mut self, events: &[KernelEvent]) {
        for ev in events {
            match ev {
                KernelEvent::Run { ev, time } => self.observe_run(*ev, *time),
                KernelEvent::Wire(w) => self.on_wire(w),
                KernelEvent::Fault(f) => self.on_fault(f),
            }
        }
    }

    /// Drains the deltas accumulated since the last flush into the
    /// shared registry, keeping only the in-flight latency anchors.
    pub fn flush(&mut self) {
        self.since_flush = 0;
        let d = std::mem::take(&mut self.delta);
        let in_flight = self.pending.len() as f64;
        self.registry.with(|reg| {
            // Zero deltas are skipped: `new` declared every series, so
            // this only spares the registry lookups.
            let mut add = |name, labels: &[(&str, &str)], delta: u64| {
                if delta > 0 {
                    reg.add_counter(name, labels, delta);
                }
            };
            add(names::DELIVERIES, &[], d.deliveries);
            add(names::USER_FRAMES, &[], d.user_frames);
            add(names::CONTROL_FRAMES, &[], d.control_frames);
            add(names::USER_BYTES, &[], d.user_bytes);
            add(names::CONTROL_BYTES, &[], d.control_bytes);
            add(names::RETRANSMISSIONS, &[], d.retransmissions);
            add(names::DROPS, &[("reason", "partition")], d.partition_drops);
            add(names::DROPS, &[("reason", "loss")], d.loss_drops);
            add(names::DUPLICATES, &[], d.duplicates);
            add(names::CRASH_EFFECTS, &[], d.crash_effects);
            add(names::ABANDONED, &[], d.messages_abandoned);
            for reason in RejectReason::ALL {
                let delta = d.rejected[reason as usize];
                add(names::REJECTED, &[("reason", reason.label())], delta);
            }
            reg.merge_histogram(names::DELIVERY_LATENCY, &[], &d.delivery_latency);
            reg.merge_histogram(names::INHIBITION, &[], &d.inhibition);
            reg.set_gauge(names::IN_FLIGHT, &[], in_flight);
        });
    }

    /// Final drain: whatever is still in flight is abandoned (the run
    /// is over), then the last deltas land in the registry.
    pub fn finish(mut self) {
        self.delta.messages_abandoned += self.pending.len() as u64;
        self.pending.clear();
        self.flush();
    }

    fn bump(&mut self) {
        self.since_flush += 1;
        if self.since_flush >= FLUSH_EVERY {
            self.flush();
        }
    }

    fn observe_run(&mut self, ev: SystemEvent, time: u64) {
        let msg = ev.msg.0;
        match ev.kind {
            EventKind::Invoke => {
                self.pending.entry(msg).or_default().invoke = Some(time);
            }
            EventKind::Send => {}
            EventKind::Receive => {
                let slot = &mut self.pending.entry(msg).or_default().receive;
                if slot.is_none() {
                    *slot = Some(time);
                }
            }
            EventKind::Deliver => {
                self.delta.deliveries += 1;
                if let Some(p) = self.pending.remove(&msg) {
                    if let Some(t0) = p.invoke {
                        self.delta.delivery_latency.record(time.saturating_sub(t0));
                    }
                    if let Some(t0) = p.receive {
                        self.delta.inhibition.record(time.saturating_sub(t0));
                    }
                }
            }
        }
        self.bump();
    }

    /// Marks user frames whose loss is provably the end of the message:
    /// dropped with no retransmission layer and no surviving duplicate,
    /// or bound for a destination that has crashed for good.
    fn observe_terminal_wire(&mut self, wire: &WireRecord) {
        let PayloadKind::User { msg, .. } = wire.payload else {
            return;
        };
        let terminal_drop = self.evict_on_drop
            && wire.decision.dropped.is_some()
            && wire.decision.dup_delay.is_none();
        let arrival = wire.time.saturating_add(wire.decision.delay);
        let dead_destination = self
            .faults
            .as_ref()
            .is_some_and(|f| matches!(f.down_until(wire.to, arrival), Some(None)));
        if (terminal_drop || dead_destination) && self.pending.remove(&msg.0).is_some() {
            self.delta.messages_abandoned += 1;
        }
    }
}

impl RunObserver for LiveMetrics {
    fn on_event(
        &mut self,
        _view: &StreamingRun,
        ev: SystemEvent,
        _index: usize,
        time: u64,
    ) -> bool {
        self.observe_run(ev, time);
        true
    }

    fn on_wire(&mut self, wire: &WireRecord) {
        let d = &mut self.delta;
        match wire.payload {
            PayloadKind::User {
                bytes, retransmit, ..
            } => {
                d.user_frames += 1;
                d.user_bytes += bytes as u64;
                d.retransmissions += u64::from(retransmit);
            }
            PayloadKind::Control { bytes, retransmit } => {
                d.control_frames += 1;
                d.control_bytes += bytes as u64;
                d.retransmissions += u64::from(retransmit);
            }
        }
        match wire.decision.dropped {
            Some(DropReason::Partition) => d.partition_drops += 1,
            Some(DropReason::Loss) => d.loss_drops += 1,
            None => d.duplicates += u64::from(wire.decision.dup_delay.is_some()),
        }
        self.observe_terminal_wire(wire);
        self.bump();
    }

    fn on_fault(&mut self, fault: &FaultRecord) {
        match fault {
            FaultRecord::Rejected { reason, .. } => self.delta.rejected[*reason as usize] += 1,
            _ => self.delta.crash_effects += 1,
        }
        self.bump();
    }

    fn wants_wire(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 8, 100] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max, 100);
        assert_eq!(h.buckets[0], 2, "0 and 1 share bucket 0");
        assert_eq!(h.buckets[1], 2, "2 and 3");
        assert_eq!(h.buckets[2], 1, "4");
        assert_eq!(h.buckets[3], 1, "8");
        assert_eq!(h.buckets[6], 1);
        assert!(h.quantile(0.5) >= 2);
        assert_eq!(h.quantile(1.0), 127, "100 falls in [64, 128)");
        assert!((h.mean() - 118.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.render("  "), "");
    }

    #[test]
    fn quantile_top_bucket_does_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn monitor_timings_fold_in() {
        let mut t = MonitorTimings {
            searches: 3,
            total_nanos: 300,
            max_nanos: 200,
            ..MonitorTimings::default()
        };
        t.buckets[6] = 2; // two ~100ns searches
        t.buckets[7] = 1;
        let h = Histogram::from(&t);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 300);
        assert_eq!(h.max, 200);
        assert_eq!(h.min(), 64);
    }

    #[test]
    fn report_mentions_the_headline_numbers() {
        use msgorder_runs::MessageId;
        let registry = SharedRegistry::new();
        let mut live = LiveMetrics::new(registry.clone());
        for (kind, time) in [
            (EventKind::Invoke, 10),
            (EventKind::Receive, 30),
            (EventKind::Deliver, 40),
        ] {
            live.consume(&[KernelEvent::Run {
                ev: SystemEvent::new(MessageId(0), kind),
                time,
            }]);
        }
        live.finish();
        registry.with(|reg| {
            assert_eq!(reg.counter(names::DELIVERIES, &[]), 1);
            let latency = reg.histogram(names::DELIVERY_LATENCY, &[]);
            assert_eq!(latency.expect("one delivery").max, 30);
            let inhibition = reg.histogram(names::INHIBITION, &[]);
            assert_eq!(inhibition.expect("one delivery").max, 10);
            let text = reg.render_report();
            assert!(text.contains("deliveries          1"), "{text}");
            assert!(text.contains("delivery latency"), "{text}");
        });
    }
}
