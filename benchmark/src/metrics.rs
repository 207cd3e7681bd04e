//! The metric tables: every end-to-end metric with its bound, every
//! per-layer metric, by exactly the names `BENCHMARK.json` lists (a
//! unit test holds the two against each other). `README.md` has the
//! glossary.

use crate::stats::Better;

/// An end-to-end metric: reported by every workload on an untraced run.
pub struct EndToEnd {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the baseline median by which it may get worse before a
    /// change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics. Bounds are set from the spread measured on
/// the 2-vCPU VM this benchmark was defined on (see `README.md`, "First
/// results"): about three times the interquartile spread seen across ten
/// seeds, capped at the contract's maximum of 25 %.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "msgs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric: reported by every traced run. No bound.
pub struct PerLayer {
    /// The metric's name, `<layer>.<what>`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics. The first block comes from the traced rerun
/// of the workload named on the command line; everything else is the
/// *layer profile*, measured the same way whatever the workload, on
/// inputs generated from the seed.
pub const PER_LAYER: [PerLayer; 59] = [
    // -- traced rerun of the named workload ------------------------------
    lower("self_share.simnet", "%"),
    lower("self_share.protocols", "%"),
    lower("self_share.predicate", "%"),
    lower("self_share.runs", "%"),
    lower("self_share.trace", "%"),
    lower("self_share.transport", "%"),
    lower("self_share.harness", "%"),
    higher("span_coverage", "%"),
    lower("tracing_overhead_pct", "%"),
    // -- poset -----------------------------------------------------------
    lower("poset.words_merge_ns.p4", "ns"),
    lower("poset.words_merge_ns.p64", "ns"),
    lower("poset.words_before_ns.p4", "ns"),
    lower("poset.words_before_ns.p64", "ns"),
    // -- runs ------------------------------------------------------------
    lower("runs.arena_append_ns", "ns"),
    lower("runs.arena_append_allocs", "count"),
    lower("runs.before_ns", "ns"),
    lower("runs.users_view_ms", "ms"),
    lower("runs.limit_sets_ms", "ms"),
    // -- predicate -------------------------------------------------------
    lower("predicate.monitor_on_complete_ns", "ns"),
    lower("predicate.monitor_allocs_per_msg", "count"),
    lower("predicate.monitor_share", "%"),
    lower("predicate.prepared_eval_ms", "ms"),
    // -- protocols -------------------------------------------------------
    lower("protocols.dispatch_ns.causal-rst", "ns"),
    lower("protocols.dispatch_ns.sync", "ns"),
    lower("protocols.dispatch_allocs", "count"),
    lower("protocols.tag_bytes_per_msg", "B"),
    lower("protocols.control_frames_per_msg", "count"),
    // -- simnet ----------------------------------------------------------
    lower("simnet.kernel_self_ns", "ns"),
    lower("simnet.kernel_allocs_per_msg", "count"),
    lower("simnet.realtime_self_ns", "ns"),
    higher("simnet.explore_schedules_per_s", "1/s"),
    higher("simnet.explore_states_per_s", "1/s"),
    higher("simnet.explore_sleep_skipped", "count"),
    lower("simnet.explore_engine_share", "%"),
    higher("simnet.explore_speedup_2t", "x"),
    // -- trace -----------------------------------------------------------
    lower("trace.recorder_event_ns", "ns"),
    lower("trace.assemble_ns_per_event", "ns"),
    lower("trace.to_jsonl_ns_per_event", "ns"),
    lower("trace.from_jsonl_ns_per_event", "ns"),
    lower("trace.bytes_per_event", "B"),
    lower("trace.replay_ns_per_event", "ns"),
    lower("trace.live_metrics_overhead_pct", "%"),
    // -- transport: pure functions ----------------------------------------
    lower("transport.json_encode_ns", "ns"),
    lower("transport.json_decode_ns", "ns"),
    lower("transport.frame_encode_ns", "ns"),
    lower("transport.frame_decode_ns", "ns"),
    lower("transport.crc32_ns_per_kib", "ns"),
    lower("transport.frame_allocs", "count"),
    // -- transport: a traced Unix-socket session ---------------------------
    lower("transport.dispatch_rtt_us_p50", "us"),
    lower("transport.dispatch_rtt_us_p99", "us"),
    lower("transport.rtt_share", "%"),
    lower("transport.dispatches_per_msg", "count"),
    lower("transport.handshake_ms", "ms"),
    lower("transport.tcp_rtt_us_p50", "us"),
    lower("transport.deliver_latency_us_p50", "us"),
    lower("transport.deliver_latency_us_p99", "us"),
    lower("transport.deliver_latency_us_p999", "us"),
    lower("transport.cpu_user_s", "s"),
    lower("transport.cpu_sys_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use serde_json::Value;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Value, key: &str) -> Vec<String> {
        doc.get_object_key(key)
            .and_then(Value::as_array)
            .expect("array")
            .iter()
            .map(|m| {
                m.get_object_key("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn names_are_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(workloads::ALL.iter().map(|k| k.name()))
            .collect();
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let doc = benchmark_json();
        let code: Vec<String> = workloads::ALL.iter().map(|k| k.name().to_owned()).collect();
        assert_eq!(names(&doc, "workloads"), code);
        let code: BTreeSet<String> = END_TO_END.iter().map(|m| m.name.to_owned()).collect();
        assert_eq!(
            names(&doc, "end_to_end")
                .into_iter()
                .collect::<BTreeSet<_>>(),
            code
        );
        let code: Vec<String> = PER_LAYER.iter().map(|m| m.name.to_owned()).collect();
        assert_eq!(names(&doc, "per_layer"), code);
    }

    #[test]
    fn benchmark_json_units_directions_and_bounds_match() {
        let doc = benchmark_json();
        let field = |m: &Value, k: &str| m.get_object_key(k).cloned().expect("key present");
        for m in doc
            .get_object_key("end_to_end")
            .and_then(Value::as_array)
            .expect("array")
        {
            let name = field(m, "name");
            let code = end_to_end(name.as_str().expect("string")).expect("known metric");
            assert_eq!(field(m, "unit").as_str(), Some(code.unit));
            let better = if code.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(field(m, "better").as_str(), Some(better));
            assert_eq!(field(m, "bound").as_f64(), Some(code.bound));
        }
        let listed = doc
            .get_object_key("per_layer")
            .and_then(Value::as_array)
            .expect("array");
        for (m, code) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(field(m, "unit").as_str(), Some(code.unit), "{}", code.name);
            let better = if code.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(field(m, "better").as_str(), Some(better), "{}", code.name);
        }
    }
}
