//! In-memory spans for the traced run.
//!
//! A span is recorded at each layer boundary the benchmark can see from
//! outside: `name, layer, start_ns, end_ns, parent, run_id`, plus the
//! allocator calls made while it was open. Spans nest by call order on
//! the recording thread (every workload dispatches on one thread), so
//! the parent of a span is whatever was open when it started. A layer's
//! *self* time is its spans' duration minus the part their child spans
//! cover; self times therefore sum exactly to the root spans' duration.
//!
//! Spans stay in memory until the run ends; [`write_json`] dumps them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The crate a span's self time is charged to. `Harness` is the
/// benchmark's own glue (cloning inputs, building decorators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `msgorder-simnet`: sim kernel, realtime kernel, explorer. The
    /// `runs` arena appends and `poset` word kernels the kernel calls
    /// per event are inside these spans and cannot be split off from
    /// outside; the layer profile prices them separately.
    Simnet,
    /// `msgorder-protocols`: protocol callbacks.
    Protocols,
    /// `msgorder-predicate`: online monitor, post-hoc evaluation.
    Predicate,
    /// `msgorder-runs`: `users_view`, limit sets, run digests.
    Runs,
    /// `msgorder-trace`: recorder, trace assembly.
    Trace,
    /// `msgorder-transport`: handshake, wire round trips, farewell.
    Transport,
    /// The benchmark itself.
    Harness,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 7] = [
        Layer::Simnet,
        Layer::Protocols,
        Layer::Predicate,
        Layer::Runs,
        Layer::Trace,
        Layer::Transport,
        Layer::Harness,
    ];

    /// The layer's crate name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Simnet => "simnet",
            Layer::Protocols => "protocols",
            Layer::Predicate => "predicate",
            Layer::Runs => "runs",
            Layer::Trace => "trace",
            Layer::Transport => "transport",
            Layer::Harness => "harness",
        }
    }
}

/// Sentinel parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// The layer its self time is charged to.
    pub layer: Layer,
    /// Start, in nanoseconds since the recorder was armed.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The unit of work (episode, session, exploration pass) it belongs
    /// to: spans of one unit share an id.
    pub run_id: u32,
    /// Allocator calls while the span was open (0 unless the counting
    /// allocator is installed).
    pub allocs: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run_id: u32,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Arms span recording on this thread, discarding earlier spans.
pub fn arm() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run_id: 0,
        });
    });
}

/// Sets the unit-of-work id stamped on spans opened from now on.
pub fn set_run(run_id: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.run_id = run_id;
        }
    });
}

/// Disarms recording and hands back every span, in start order.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct Guard(Option<u32>);

/// Opens a span; it closes when the returned guard drops. A no-op
/// (two thread-local reads) when recording is not armed.
pub fn enter(name: &'static str, layer: Layer) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Guard(None);
        };
        let index = rec.spans.len() as u32;
        let parent = rec.open.last().copied().unwrap_or(NO_PARENT);
        rec.open.push(index);
        let run_id = rec.run_id;
        rec.spans.push(Span {
            name,
            layer,
            start_ns: 0,
            end_ns: 0,
            parent,
            run_id,
            allocs: msgorder_testkit::allocations(),
        });
        // Read the clock last, so the bookkeeping above is charged to
        // the parent, not to this span.
        rec.spans[index as usize].start_ns = rec.epoch.elapsed().as_nanos() as u64;
        Guard(Some(index))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let Some(rec) = r.as_mut() else { return };
            let end = rec.epoch.elapsed().as_nanos() as u64;
            let span = &mut rec.spans[index as usize];
            span.end_ns = end;
            span.allocs = msgorder_testkit::allocations() - span.allocs;
            let closed = rec.open.pop();
            debug_assert_eq!(closed, Some(index), "spans close in LIFO order");
        });
    }
}

/// Per-span self time: duration minus the part of the interval that
/// direct children cover. Children of one parent never overlap (they
/// are sequential calls on one thread), so this is a plain subtraction.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per-span self allocations, same subtraction.
pub fn self_allocs(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.allocs).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.allocs);
        }
    }
    own
}

/// Self time per layer, in nanoseconds; every layer has an entry.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<Layer, u64> {
    let mut by: BTreeMap<Layer, u64> = Layer::ALL.into_iter().map(|l| (l, 0)).collect();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by.entry(span.layer).or_default() += own;
    }
    by
}

/// Total duration of the root spans — what the self times sum to.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(Span::duration_ns)
        .sum()
}

/// Durations (ns) of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Writes the spans as one JSON document: a `names` table and one
/// compact row `[name, layer, start_ns, end_ns, parent, run_id, allocs]`
/// per span (`parent` is a row index, `-1` for roots), preceded by the
/// per-layer self-time summary.
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    traced_wall_ns: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    let mut names: Vec<&'static str> = Vec::new();
    let mut name_ids = Vec::with_capacity(spans.len());
    for s in spans {
        let id = match names.iter().position(|n| *n == s.name) {
            Some(id) => id,
            None => {
                names.push(s.name);
                names.len() - 1
            }
        };
        name_ids.push(id);
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"workload\":{workload:?},")?;
    writeln!(out, "\"traced_wall_ns\":{traced_wall_ns},")?;
    writeln!(out, "\"root_ns\":{},", root_ns(spans))?;
    let by = self_by_layer(spans);
    let layers: Vec<String> = by
        .iter()
        .map(|(l, ns)| format!("{:?}:{ns}", l.name()))
        .collect();
    writeln!(out, "\"self_ns_by_layer\":{{{}}},", layers.join(","))?;
    let quoted: Vec<String> = names.iter().map(|n| format!("{n:?}")).collect();
    writeln!(out, "\"names\":[{}],", quoted.join(","))?;
    let layer_names: Vec<String> = Layer::ALL
        .iter()
        .map(|l| format!("{:?}", l.name()))
        .collect();
    writeln!(out, "\"layers\":[{}],", layer_names.join(","))?;
    writeln!(
        out,
        "\"columns\":[\"name\",\"layer\",\"start_ns\",\"end_ns\",\"parent\",\"run_id\",\"allocs\"],"
    )?;
    writeln!(out, "\"spans\":[")?;
    for (i, (s, name)) in spans.iter().zip(&name_ids).enumerate() {
        // `Layer::ALL` lists the variants in declaration order.
        let layer = s.layer as usize;
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "[{name},{layer},{},{},{parent},{},{}]{comma}",
            s.start_ns, s.end_ns, s.run_id, s.allocs
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name: "t",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            run_id: 0,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root [0,100] > kernel [10,90] > {dispatch [20,40], observer [50,70] > recorder [55,60]}
        let spans = vec![
            span(Layer::Harness, 0, 100, NO_PARENT),
            span(Layer::Simnet, 10, 90, 0),
            span(Layer::Protocols, 20, 40, 1),
            span(Layer::Trace, 50, 70, 1),
            span(Layer::Trace, 55, 60, 3),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 20, 15, 5]);
        let by = self_by_layer(&spans);
        assert_eq!(by[&Layer::Harness], 20);
        assert_eq!(by[&Layer::Simnet], 40);
        assert_eq!(by[&Layer::Protocols], 20);
        assert_eq!(by[&Layer::Trace], 20);
        assert_eq!(by[&Layer::Transport], 0);
        assert_eq!(
            by.values().sum::<u64>(),
            root_ns(&spans),
            "self times sum to the roots"
        );
    }

    #[test]
    fn guards_nest_and_record_parents() {
        arm();
        set_run(7);
        {
            let _root = enter("root", Layer::Harness);
            {
                let _a = enter("a", Layer::Simnet);
                let _b = enter("b", Layer::Protocols);
            }
            let _c = enter("c", Layer::Trace);
        }
        let spans = take();
        let parents: Vec<u32> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 1, 0]);
        assert!(spans
            .iter()
            .all(|s| s.run_id == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(take().is_empty(), "take disarms");
        drop(enter("ignored", Layer::Harness));
        assert!(take().is_empty(), "disarmed recorder records nothing");
    }
}
