//! The one store of run metrics, with a Prometheus text-format face.
//!
//! Every number the stack reports — `simulate --metrics`, `replay
//! --metrics`, `serve`/`soak` endpoints and snapshot files — lives in a
//! [`MetricsRegistry`], fed by the [`LiveMetrics`](crate::LiveMetrics)
//! observer and a handful of end-of-run folds ([`observe_drift`], the
//! soak counters). It holds three kinds of series — monotone counters,
//! gauges, and the crate's log₂ [`Histogram`]s — keyed by metric name
//! plus an optional label set, and renders them in the Prometheus text
//! exposition format (`# HELP` / `# TYPE` headers, cumulative `le`
//! buckets derived from the log₂ buckets) or as the CLI's text report
//! ([`MetricsRegistry::render_report`]).
//!
//! The set of families is closed: [`FAMILIES`] is the one table giving
//! each family's name, kind, help text, owning [`Scope`] and the label
//! values declared up front. Updates name a family from the table (see
//! [`names`]); an update naming anything else is refused.
//!
//! Naming scheme (see DESIGN.md §15): every metric is prefixed
//! `msgorder_`, counters end in `_total`, histograms carry their unit
//! as a suffix (`_ticks`, `_nanos`). Metric families render in sorted
//! name order and label sets in sorted key order, so the encoding of a
//! given registry state is stable byte for byte.

use crate::metrics::Histogram;
use msgorder_simnet::RejectReason;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The `msgorder_*` metric names. Kind, help text and label sets are in
/// [`FAMILIES`].
pub mod names {
    /// User messages delivered.
    pub const DELIVERIES: &str = "msgorder_deliveries_total";
    /// User frames on the wire.
    pub const USER_FRAMES: &str = "msgorder_user_frames_total";
    /// Control frames on the wire.
    pub const CONTROL_FRAMES: &str = "msgorder_control_frames_total";
    /// User-frame tag bytes.
    pub const USER_BYTES: &str = "msgorder_user_bytes_total";
    /// Control-frame bytes.
    pub const CONTROL_BYTES: &str = "msgorder_control_bytes_total";
    /// Retransmitted frames.
    pub const RETRANSMISSIONS: &str = "msgorder_retransmissions_total";
    /// Dropped frames, labeled by `reason` (`partition` / `loss`).
    pub const DROPS: &str = "msgorder_drops_total";
    /// Frames rejected by a protocol or transport guard, labeled by
    /// `reason` (a [`RejectReason`](msgorder_simnet::RejectReason)
    /// label in simulation, [`REASON_CRC`] on the real wire).
    pub const REJECTED: &str = "msgorder_frames_rejected_total";
    /// The [`REJECTED`] `reason` of a frame whose CRC did not match.
    pub const REASON_CRC: &str = "crc";
    /// Duplicated frame copies.
    pub const DUPLICATES: &str = "msgorder_duplicate_frames_total";
    /// Crash-window effects.
    pub const CRASH_EFFECTS: &str = "msgorder_crash_effects_total";
    /// Messages abandoned before delivery.
    pub const ABANDONED: &str = "msgorder_messages_abandoned_total";
    /// Messages currently awaiting delivery.
    pub const IN_FLIGHT: &str = "msgorder_in_flight_messages";
    /// Delivery latency histogram (sim ticks).
    pub const DELIVERY_LATENCY: &str = "msgorder_delivery_latency_ticks";
    /// Inhibition histogram (sim ticks).
    pub const INHIBITION: &str = "msgorder_inhibition_ticks";
    /// Online-monitor delta-search timings (host nanoseconds).
    pub const MONITOR_SEARCH: &str = "msgorder_monitor_search_nanos";
    /// Realtime kernel dispatches.
    pub const RT_DISPATCHES: &str = "msgorder_realtime_dispatches_total";
    /// Realtime dispatches that ran behind the wall clock.
    pub const RT_LATE: &str = "msgorder_realtime_late_dispatches_total";
    /// Worst positive drift seen (ticks).
    pub const RT_MAX_DRIFT: &str = "msgorder_realtime_max_drift_ticks";
    /// Most negative drift seen (ticks; negative means the wall clock
    /// read earlier than the virtual schedule).
    pub const RT_MIN_DRIFT: &str = "msgorder_realtime_min_drift_ticks";
    /// Backwards wall-clock steps.
    pub const RT_CLOCK_BACKWARDS: &str = "msgorder_clock_backwards_total";
    /// Soak episodes completed.
    pub const SOAK_EPISODES: &str = "msgorder_soak_episodes_total";
    /// Soak messages injected.
    pub const SOAK_MESSAGES: &str = "msgorder_soak_messages_total";
    /// Soak episodes whose online monitor saw a spec violation.
    pub const SOAK_VIOLATIONS: &str = "msgorder_soak_spec_violations_total";
    /// Soak episodes that ended in a structured protocol bug.
    pub const SOAK_PROTOCOL_BUGS: &str = "msgorder_soak_protocol_bugs_total";
    /// Soak episodes with a non-live verdict.
    pub const SOAK_NONLIVE: &str = "msgorder_soak_nonlive_episodes_total";
    /// Stuck messages, labeled by blame `class`.
    pub const SOAK_STUCK: &str = "msgorder_soak_stuck_messages_total";
    /// Soak wall-clock uptime.
    pub const SOAK_UPTIME: &str = "msgorder_soak_uptime_seconds";
    /// Snapshot writes the [`FileExporter`](super::FileExporter) could
    /// not complete — it has no caller to report errors to.
    pub const EXPORT_ERRORS: &str = "msgorder_metrics_export_errors_total";
}

/// What a metric family measures: its Prometheus `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// A log₂ [`Histogram`] rendered with cumulative `le` buckets.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Which producer feeds a family. A registry declares one scope at a
/// time ([`MetricsRegistry::declare`]), so a scrape shows every family
/// its producers can feed — and only those — before the first sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// One kernel run, fed by [`LiveMetrics`](crate::LiveMetrics).
    Run,
    /// The online monitor's search timings.
    Monitor,
    /// The realtime kernel's drift statistics ([`observe_drift`]).
    Realtime,
    /// The soak harness's episode counters.
    Soak,
    /// The [`FileExporter`]'s own failures.
    Exporter,
}

/// One row of [`FAMILIES`].
#[derive(Debug)]
pub struct FamilySpec {
    /// The family name, one of [`names`].
    pub name: &'static str,
    /// Its Prometheus `# TYPE`.
    pub kind: MetricKind,
    /// Its `# HELP` text.
    pub help: &'static str,
    /// The producer that feeds it.
    pub scope: Scope,
    /// The label key and the values whose series are declared at zero;
    /// `None` for a family with one unlabeled series.
    pub labels: Option<(&'static str, &'static [&'static str])>,
}

impl FamilySpec {
    const fn labeled(mut self, key: &'static str, values: &'static [&'static str]) -> FamilySpec {
        self.labels = Some((key, values));
        self
    }
}

/// Every metric family: the one place a name is tied to its kind, help
/// text and declared label values. Declaration, the registry's updates
/// and the `# HELP` / `# TYPE` encoding all read it.
pub static FAMILIES: &[FamilySpec] = {
    use names::*;
    use MetricKind::{Counter, Gauge, Histogram};
    use Scope::{Exporter, Monitor, Realtime, Run, Soak};
    const fn row(
        scope: Scope,
        kind: MetricKind,
        name: &'static str,
        help: &'static str,
    ) -> FamilySpec {
        FamilySpec {
            name,
            kind,
            help,
            scope,
            labels: None,
        }
    }
    &[
        row(Run, Counter, DELIVERIES, "User messages delivered."),
        row(
            Run,
            Counter,
            USER_FRAMES,
            "User frames put on the wire, retransmissions included.",
        ),
        row(
            Run,
            Counter,
            CONTROL_FRAMES,
            "Control frames put on the wire, retransmissions included.",
        ),
        row(
            Run,
            Counter,
            USER_BYTES,
            "User-frame tag bytes on the wire.",
        ),
        row(
            Run,
            Counter,
            CONTROL_BYTES,
            "Control-frame bytes on the wire.",
        ),
        row(
            Run,
            Counter,
            RETRANSMISSIONS,
            "Frames marked as retransmissions.",
        ),
        row(
            Run,
            Counter,
            DROPS,
            "Frames eaten by the network, by reason.",
        )
        .labeled("reason", &["loss", "partition"]),
        row(
            Run,
            Counter,
            REJECTED,
            "Frames rejected by validation, by reason.",
        )
        .labeled(
            "reason",
            &[
                RejectReason::Malformed.label(),
                RejectReason::StaleEpoch.label(),
                RejectReason::Replayed.label(),
                RejectReason::Unexpected.label(),
                REASON_CRC,
            ],
        ),
        row(
            Run,
            Counter,
            DUPLICATES,
            "Duplicate frame copies created by the network.",
        ),
        row(
            Run,
            Counter,
            CRASH_EFFECTS,
            "Frames lost to (or deferred by) crash windows.",
        ),
        row(
            Run,
            Counter,
            ABANDONED,
            "Messages evicted from latency tracking on a terminal outcome (never delivered).",
        ),
        row(
            Run,
            Gauge,
            IN_FLIGHT,
            "Messages invoked or received but not yet delivered.",
        ),
        row(
            Run,
            Histogram,
            DELIVERY_LATENCY,
            "End-to-end delivery latency (deliver - invoke), sim ticks.",
        ),
        row(
            Run,
            Histogram,
            INHIBITION,
            "Protocol inhibition (deliver - receive), sim ticks.",
        ),
        row(
            Monitor,
            Histogram,
            MONITOR_SEARCH,
            "Online monitor delta-search durations, host nanoseconds.",
        ),
        row(
            Realtime,
            Counter,
            RT_DISPATCHES,
            "Events dispatched by the realtime kernel.",
        ),
        row(
            Realtime,
            Counter,
            RT_LATE,
            "Realtime dispatches that ran later than their virtual time.",
        ),
        row(
            Realtime,
            Gauge,
            RT_MAX_DRIFT,
            "Largest wall-behind-schedule drift observed, virtual ticks.",
        ),
        row(
            Realtime,
            Gauge,
            RT_MIN_DRIFT,
            "Most negative drift observed (wall ahead of schedule), virtual ticks.",
        ),
        row(
            Realtime,
            Counter,
            RT_CLOCK_BACKWARDS,
            "Times the wall clock read earlier than a previous reading.",
        ),
        row(Soak, Counter, SOAK_EPISODES, "Soak episodes completed."),
        row(
            Soak,
            Counter,
            SOAK_MESSAGES,
            "User messages injected across soak episodes.",
        ),
        row(
            Soak,
            Counter,
            SOAK_VIOLATIONS,
            "Soak episodes where the online monitor flagged a specification violation.",
        ),
        row(
            Soak,
            Counter,
            SOAK_PROTOCOL_BUGS,
            "Soak episodes that ended in a structured protocol bug (SimError).",
        ),
        row(
            Soak,
            Counter,
            SOAK_NONLIVE,
            "Soak episodes whose liveness verdict reported stuck messages.",
        ),
        row(
            Soak,
            Counter,
            SOAK_STUCK,
            "Stuck messages reported by liveness blame analysis, by class.",
        )
        .labeled("class", &[]),
        row(
            Soak,
            Gauge,
            SOAK_UPTIME,
            "Wall-clock seconds since the soak started.",
        ),
        row(
            Exporter,
            Counter,
            EXPORT_ERRORS,
            "Metrics snapshot writes that failed.",
        ),
    ]
};

/// The [`FAMILIES`] row of `name`, if it has one.
fn spec_of(name: &str) -> Option<&'static FamilySpec> {
    FAMILIES.iter().find(|s| s.name == name)
}

#[derive(Debug, Clone)]
enum Sample {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
struct Family {
    spec: &'static FamilySpec,
    /// Keyed by the canonical rendered label set (`""` for none).
    series: BTreeMap<String, Sample>,
}

/// The metric accumulator behind the Prometheus endpoint and the CLI's
/// text report.
///
/// Updates name their family by its [`names`] constant; kind and help
/// come from [`FAMILIES`]. An update whose name is not in the table, or
/// whose kind is not the table's, is refused: it changes nothing.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<&'static str, Family>,
}

/// Renders a label set in canonical form: sorted by key, values
/// escaped per the Prometheus text format.
fn label_string(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Declares every family of `scope` with its fixed series at zero,
    /// so a scrape shows the full schema before the first sample lands.
    /// Series that already hold a value keep it.
    pub fn declare(&mut self, scope: Scope) {
        for spec in FAMILIES.iter().filter(|s| s.scope == scope) {
            let Some(fam) = self.family(spec.name, spec.kind) else {
                continue;
            };
            let zero = match spec.kind {
                MetricKind::Counter => Sample::Counter(0),
                MetricKind::Gauge => Sample::Gauge(0.0),
                // A histogram series appears with its first sample.
                MetricKind::Histogram => continue,
            };
            let keys = match spec.labels {
                None => vec![String::new()],
                Some((key, values)) => values.iter().map(|v| label_string(&[(key, v)])).collect(),
            };
            for key in keys {
                fam.series.entry(key).or_insert_with(|| zero.clone());
            }
        }
    }

    /// The family `name` as `kind`, created series-less from
    /// [`FAMILIES`] on first touch; `None` refuses the update.
    fn family(&mut self, name: &str, kind: MetricKind) -> Option<&mut Family> {
        if !self.families.contains_key(name) {
            let spec = spec_of(name)?;
            self.families.insert(
                spec.name,
                Family {
                    spec,
                    series: BTreeMap::new(),
                },
            );
        }
        self.families
            .get_mut(name)
            .filter(|fam| fam.spec.kind == kind)
    }

    /// Adds `delta` to a counter series, creating it at zero first.
    pub fn add_counter(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        if let Some(fam) = self.family(name, MetricKind::Counter) {
            if let Sample::Counter(c) = fam
                .series
                .entry(label_string(labels))
                .or_insert(Sample::Counter(0))
            {
                *c += delta;
            }
        }
    }

    /// Sets a gauge series to `value`.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        if let Some(fam) = self.family(name, MetricKind::Gauge) {
            fam.series
                .insert(label_string(labels), Sample::Gauge(value));
        }
    }

    /// Merges `h` into a histogram series (bucket-wise addition). An
    /// empty `h` still makes the family show on the endpoint.
    pub fn merge_histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &Histogram) {
        let Some(fam) = self.family(name, MetricKind::Histogram) else {
            return;
        };
        if h.count == 0 {
            return;
        }
        if let Sample::Histogram(mine) = fam
            .series
            .entry(label_string(labels))
            .or_insert_with(|| Sample::Histogram(Histogram::new()))
        {
            mine.merge(h);
        }
    }

    fn sample(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Sample> {
        self.families.get(name)?.series.get(&label_string(labels))
    }

    /// Current value of a counter series (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.sample(name, labels) {
            Some(Sample::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Current value of a gauge series, if set.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.sample(name, labels) {
            Some(Sample::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// The accumulated histogram behind a series, if any samples landed.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.sample(name, labels) {
            Some(Sample::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Folds every series of `other` into this registry: counters add,
    /// gauges take `other`'s value, histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, fam) in &other.families {
            // Register even series-less families so they carry over.
            let Some(target) = self.family(name, fam.spec.kind) else {
                continue;
            };
            for (key, sample) in &fam.series {
                match sample {
                    Sample::Counter(c) => {
                        if let Sample::Counter(mine) = target
                            .series
                            .entry(key.clone())
                            .or_insert(Sample::Counter(0))
                        {
                            *mine += c;
                        }
                    }
                    Sample::Gauge(g) => {
                        target.series.insert(key.clone(), Sample::Gauge(*g));
                    }
                    Sample::Histogram(h) => {
                        if let Sample::Histogram(mine) = target
                            .series
                            .entry(key.clone())
                            .or_insert_with(|| Sample::Histogram(Histogram::new()))
                        {
                            mine.merge(h);
                        }
                    }
                }
            }
        }
    }

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// Families render in name order, series in canonical label order;
    /// histogram buckets become cumulative `le` series whose bounds are
    /// the inclusive upper edges `2^(i+1) - 1` of the log₂ buckets,
    /// closed by `+Inf`, `_sum`, and `_count`.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            out.push_str(&format!("# HELP {name} {}\n", escape_help(fam.spec.help)));
            out.push_str(&format!("# TYPE {name} {}\n", fam.spec.kind.as_str()));
            for (key, sample) in &fam.series {
                match sample {
                    Sample::Counter(c) => {
                        out.push_str(&render_line(name, key, &c.to_string()));
                    }
                    Sample::Gauge(g) => {
                        out.push_str(&render_line(name, key, &format_f64(*g)));
                    }
                    Sample::Histogram(h) => {
                        encode_histogram(&mut out, name, key, h);
                    }
                }
            }
        }
        out
    }

    /// Renders the [`Scope::Run`] and [`Scope::Monitor`] families as
    /// the text block `msgorder simulate --metrics` and `replay
    /// --metrics` print. Timings are in simulated ticks, except the
    /// monitor's host nanoseconds.
    pub fn render_report(&self) -> String {
        let count = |name| self.counter(name, &[]);
        let by_reason = |name, reason| self.counter(name, &[("reason", reason)]);
        let hist = |name| self.histogram(name, &[]).cloned().unwrap_or_default();
        let (user, control) = (count(names::USER_FRAMES), count(names::CONTROL_FRAMES));
        let mut out = format!("deliveries          {}\n", count(names::DELIVERIES));
        out.push_str(&format!(
            "wire frames         {user} user + {control} control ({:.2} ctl/user), {} retransmitted\n",
            if user == 0 {
                0.0
            } else {
                control as f64 / user as f64
            },
            count(names::RETRANSMISSIONS)
        ));
        out.push_str(&format!(
            "wire bytes          {} tag + {} control\n",
            count(names::USER_BYTES),
            count(names::CONTROL_BYTES)
        ));
        out.push_str(&format!(
            "faults              {} partition drops, {} losses, {} duplicates, {} crash effects\n",
            by_reason(names::DROPS, "partition"),
            by_reason(names::DROPS, "loss"),
            count(names::DUPLICATES),
            count(names::CRASH_EFFECTS)
        ));
        let rejected: Vec<(&str, u64)> = spec_of(names::REJECTED)
            .and_then(|s| s.labels)
            .map_or(&[][..], |(_, reasons)| reasons)
            .iter()
            .map(|&r| (r, by_reason(names::REJECTED, r)))
            .filter(|&(_, n)| n > 0)
            .collect();
        if !rejected.is_empty() {
            let reasons: Vec<String> = rejected.iter().map(|(r, n)| format!("{r} {n}")).collect();
            out.push_str(&format!(
                "rejected frames     {} ({})\n",
                rejected.iter().map(|&(_, n)| n).sum::<u64>(),
                reasons.join(", ")
            ));
        }
        let abandoned = count(names::ABANDONED);
        if abandoned > 0 {
            out.push_str(&format!(
                "abandoned           {abandoned} messages never delivered\n"
            ));
        }
        let latency = hist(names::DELIVERY_LATENCY);
        out.push_str(&format!(
            "delivery latency    mean {:.1}, p50 ≤{}, p99 ≤{}, max {} ticks\n",
            latency.mean(),
            latency.quantile(0.5),
            latency.quantile(0.99),
            latency.max
        ));
        out.push_str("  histogram (ticks):\n");
        out.push_str(&latency.render("    "));
        let inhibition = hist(names::INHIBITION);
        out.push_str(&format!(
            "inhibition          mean {:.1}, max {} ticks\n",
            inhibition.mean(),
            inhibition.max
        ));
        if let Some(mon) = self.histogram(names::MONITOR_SEARCH, &[]) {
            out.push_str(&format!(
                "monitor searches    {} (mean {:.0} ns, p99 ≤{} ns, max {} ns)\n",
                mon.count,
                mon.mean(),
                mon.quantile(0.99),
                mon.max
            ));
            out.push_str("  histogram (ns):\n");
            out.push_str(&mon.render("    "));
        }
        out
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_line(name: &str, key: &str, value: &str) -> String {
    if key.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{key}}} {value}\n")
    }
}

/// The inclusive upper bound of log₂ bucket `i` (`[2^i, 2^(i+1))` over
/// integers, so `2^(i+1) - 1`), rendered in decimal.
fn bucket_le(i: usize) -> String {
    ((1u128 << (i + 1)) - 1).to_string()
}

fn encode_histogram(out: &mut String, name: &str, key: &str, h: &Histogram) {
    let highest = h.buckets.iter().rposition(|&c| c > 0);
    let mut cumulative = 0u64;
    if let Some(hi) = highest {
        for (i, &c) in h.buckets.iter().enumerate().take(hi + 1) {
            cumulative += c;
            let le = bucket_le(i);
            let labels = if key.is_empty() {
                format!("le=\"{le}\"")
            } else {
                format!("{key},le=\"{le}\"")
            };
            out.push_str(&format!("{name}_bucket{{{labels}}} {cumulative}\n"));
        }
    }
    let inf = if key.is_empty() {
        "le=\"+Inf\"".to_string()
    } else {
        format!("{key},le=\"+Inf\"")
    };
    out.push_str(&format!("{name}_bucket{{{inf}}} {}\n", h.count));
    out.push_str(&render_line(
        &format!("{name}_sum"),
        key,
        &h.sum.to_string(),
    ));
    out.push_str(&render_line(
        &format!("{name}_count"),
        key,
        &h.count.to_string(),
    ));
}

/// Folds one realtime run's [`DriftStats`](msgorder_simnet::DriftStats)
/// into the registry: dispatch/late/backwards counts accumulate,
/// drift extrema land as gauges (widened, not overwritten, so a soak of
/// many runs keeps its worst excursions).
pub fn observe_drift(reg: &mut MetricsRegistry, drift: &msgorder_simnet::DriftStats) {
    reg.add_counter(names::RT_DISPATCHES, &[], drift.dispatches);
    reg.add_counter(names::RT_LATE, &[], drift.late);
    reg.add_counter(names::RT_CLOCK_BACKWARDS, &[], drift.clock_went_backwards);
    let worst_min = reg.gauge(names::RT_MIN_DRIFT, &[]).unwrap_or(0.0);
    reg.set_gauge(
        names::RT_MIN_DRIFT,
        &[],
        worst_min.min(drift.min_drift as f64),
    );
    let worst_max = reg.gauge(names::RT_MAX_DRIFT, &[]).unwrap_or(0.0);
    reg.set_gauge(
        names::RT_MAX_DRIFT,
        &[],
        worst_max.max(drift.max_drift as f64),
    );
}

/// Parses a Prometheus text exposition into `series line -> value`,
/// keyed by the full sample name including labels (exactly as encoded).
///
/// This is the consumer side of [`MetricsRegistry::encode`], used by
/// the round-trip tests and by `msgorder soak`'s endpoint self-check.
/// Returns an error naming the first malformed line.
pub fn parse_samples(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(space) = line.rfind(' ') else {
            return Err(format!("line {}: no value separator: {line:?}", lineno + 1));
        };
        let (series, value) = line.split_at(space);
        let series = series.trim_end();
        if series.is_empty() {
            return Err(format!("line {}: empty series name", lineno + 1));
        }
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad value: {line:?}", lineno + 1))?;
        out.insert(series.to_string(), value);
    }
    Ok(out)
}

/// A [`MetricsRegistry`] behind an `Arc<Mutex<..>>`: the shape the live
/// observer, the HTTP endpoint, and the file exporter share.
#[derive(Debug, Clone, Default)]
pub struct SharedRegistry(Arc<Mutex<MetricsRegistry>>);

impl SharedRegistry {
    /// Creates an empty shared registry.
    pub fn new() -> SharedRegistry {
        SharedRegistry::default()
    }

    /// Runs `f` with the registry locked. A poisoned lock (a panicking
    /// holder) is recovered — the registry holds plain counters that
    /// stay internally consistent.
    pub fn with<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        let mut guard = match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }

    /// Encodes the current registry state as Prometheus text.
    pub fn encode(&self) -> String {
        self.with(|reg| reg.encode())
    }
}

/// Periodically writes the registry's Prometheus text rendering to a
/// file — the `--metrics-out` headless-CI mode. Snapshots are written
/// to a sibling temp file and renamed into place so readers never see
/// a torn write. Dropping the exporter (or calling
/// [`stop`](FileExporter::stop)) performs one final snapshot.
#[derive(Debug)]
pub struct FileExporter {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

fn write_snapshot(path: &PathBuf, registry: &SharedRegistry) {
    let text = registry.encode();
    let tmp = path.with_extension("prom.tmp");
    let result = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        registry.with(|reg| reg.add_counter(names::EXPORT_ERRORS, &[], 1));
    }
}

impl FileExporter {
    /// Starts the exporter thread, snapshotting every `period`, and
    /// declares [`Scope::Exporter`] in `registry`.
    pub fn start(path: PathBuf, registry: SharedRegistry, period: Duration) -> FileExporter {
        registry.with(|reg| reg.declare(Scope::Exporter));
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let tick = Duration::from_millis(50).min(period.max(Duration::from_millis(1)));
            let mut since_write = Duration::ZERO;
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(tick);
                since_write += tick;
                if since_write >= period {
                    write_snapshot(&path, &registry);
                    since_write = Duration::ZERO;
                }
            }
            write_snapshot(&path, &registry);
        });
        FileExporter {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the thread, waits for it, and leaves a final snapshot.
    pub fn stop(mut self) {
        self.join();
    }

    fn join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FileExporter {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_encode_stably() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter(names::SOAK_EPISODES, &[], 2);
        reg.add_counter(names::DROPS, &[("reason", "loss")], 3);
        reg.add_counter(names::DROPS, &[("reason", "partition")], 1);
        reg.set_gauge(names::SOAK_UPTIME, &[], 1.5);
        let text = reg.encode();
        let expected = "\
# HELP msgorder_drops_total Frames eaten by the network, by reason.
# TYPE msgorder_drops_total counter
msgorder_drops_total{reason=\"loss\"} 3
msgorder_drops_total{reason=\"partition\"} 1
# HELP msgorder_soak_episodes_total Soak episodes completed.
# TYPE msgorder_soak_episodes_total counter
msgorder_soak_episodes_total 2
# HELP msgorder_soak_uptime_seconds Wall-clock seconds since the soak started.
# TYPE msgorder_soak_uptime_seconds gauge
msgorder_soak_uptime_seconds 1.5
";
        assert_eq!(text, expected);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_bounded() {
        let mut reg = MetricsRegistry::new();
        let mut h = Histogram::new();
        for v in [0, 1, 2, 5] {
            h.record(v);
        }
        reg.merge_histogram(names::INHIBITION, &[], &h);
        let text = reg.encode();
        assert!(
            text.contains("# TYPE msgorder_inhibition_ticks histogram"),
            "{text}"
        );
        assert!(
            text.contains("msgorder_inhibition_ticks_bucket{le=\"1\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("msgorder_inhibition_ticks_bucket{le=\"3\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("msgorder_inhibition_ticks_bucket{le=\"7\"} 4\n"),
            "{text}"
        );
        assert!(
            text.contains("msgorder_inhibition_ticks_bucket{le=\"+Inf\"} 4\n"),
            "{text}"
        );
        assert!(text.contains("msgorder_inhibition_ticks_sum 8\n"), "{text}");
        assert!(
            text.contains("msgorder_inhibition_ticks_count 4\n"),
            "{text}"
        );
    }

    #[test]
    fn parse_round_trips_encode() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter(names::SOAK_STUCK, &[("class", "v")], 7);
        reg.set_gauge(names::RT_MIN_DRIFT, &[], -2.0);
        let samples = parse_samples(&reg.encode()).expect("parses");
        assert_eq!(
            samples["msgorder_soak_stuck_messages_total{class=\"v\"}"],
            7.0
        );
        assert_eq!(samples[names::RT_MIN_DRIFT], -2.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_samples("not prometheus at all").is_err());
        assert!(parse_samples("name nonnumeric").is_err());
        assert!(parse_samples("# a comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add_counter(names::DELIVERIES, &[], 1);
        b.add_counter(names::DELIVERIES, &[], 2);
        let mut h = Histogram::new();
        h.record(4);
        a.merge_histogram(names::INHIBITION, &[], &h);
        b.merge_histogram(names::INHIBITION, &[], &h);
        a.merge(&b);
        assert_eq!(a.counter(names::DELIVERIES, &[]), 3);
        assert_eq!(
            a.histogram(names::INHIBITION, &[]).expect("merged").count,
            2
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter(names::SOAK_STUCK, &[("class", "a\"b\\c\nd")], 1);
        let text = reg.encode();
        assert!(text.contains("class=\"a\\\"b\\\\c\\nd\""), "{text}");
    }

    #[test]
    fn updates_outside_the_table_are_refused() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("msgorder_no_such_total", &[], 1);
        reg.set_gauge("msgorder_no_such_gauge", &[], 1.0);
        reg.merge_histogram("msgorder_no_such_ticks", &[], &Histogram::new());
        assert_eq!(reg.encode(), "", "a name outside FAMILIES declares nothing");
        // So is a table name used as another kind.
        reg.set_gauge(names::DELIVERIES, &[], 9.0);
        reg.add_counter(names::IN_FLIGHT, &[], 9);
        assert_eq!(reg.gauge(names::DELIVERIES, &[]), None);
        assert_eq!(reg.counter(names::IN_FLIGHT, &[]), 0);
        assert!(!reg.encode().contains(" 9"), "{}", reg.encode());
    }

    #[test]
    fn report_lists_rejections_by_reason() {
        let mut reg = MetricsRegistry::new();
        reg.declare(Scope::Run);
        let clean = reg.render_report();
        assert!(!clean.contains("rejected frames"), "{clean}");
        reg.add_counter(names::REJECTED, &[("reason", "malformed")], 3);
        reg.add_counter(names::REJECTED, &[("reason", names::REASON_CRC)], 1);
        let text = reg.render_report();
        assert!(
            text.contains("rejected frames     4 (malformed 3, crc 1)"),
            "{text}"
        );
    }

    #[test]
    fn file_exporter_writes_on_stop() {
        let dir = std::env::temp_dir().join(format!("msgorder-reg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("metrics.prom");
        let shared = SharedRegistry::new();
        shared.with(|r| r.add_counter(names::DELIVERIES, &[], 5));
        let exporter = FileExporter::start(path.clone(), shared.clone(), Duration::from_secs(3600));
        exporter.stop();
        let text = std::fs::read_to_string(&path).expect("snapshot written");
        assert!(text.contains("msgorder_deliveries_total 5"), "{text}");
        assert!(
            text.contains("msgorder_metrics_export_errors_total 0"),
            "{text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
