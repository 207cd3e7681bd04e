//! Observability invariants (PR 9): the Prometheus text encoding
//! round-trips exactly and is pinned byte for byte, the family table
//! is the whole schema, delta draining is merge-associative across
//! observers, and the latency tracker's memory stays bounded under
//! loss — the property behind the soak harness's multi-hour honesty.

use msgorder_runs::{EventKind, MessageId, SystemEvent};
use msgorder_simnet::{
    DropReason, FaultModel, KernelEvent, PayloadKind, TransmitDecision, WireRecord,
};
use msgorder_trace::registry::{names, parse_samples, Scope, FAMILIES};
use msgorder_trace::{Histogram, LiveMetrics, MetricsRegistry, SharedRegistry};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// splitmix64 — cheap, well-mixed, and dependency-free.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn get(parsed: &BTreeMap<String, f64>, key: &str) -> Option<f64> {
    parsed.get(key).copied()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode → parse → de-cumulate reproduces every histogram bucket,
    /// the count, and the sum. Samples are capped below 2^40 so sums
    /// stay integer-exact through the f64 of `parse_samples`.
    #[test]
    fn prometheus_text_round_trips_histograms(seed in 0u64..10_000, samples in 1usize..300) {
        let mut h = Histogram::new();
        let mut s = seed;
        for _ in 0..samples {
            s = mix(s);
            // Spread magnitudes across many buckets, max < 2^40.
            h.record((s >> 24) >> (s % 37));
        }

        let mut reg = MetricsRegistry::new();
        reg.merge_histogram(names::DELIVERY_LATENCY, &[], &h);
        let text = reg.encode();
        let parsed = parse_samples(&text);
        prop_assert!(parsed.is_ok(), "parse failed: {:?}", parsed);
        let parsed = parsed.unwrap();

        let name = names::DELIVERY_LATENCY;
        prop_assert_eq!(get(&parsed, &format!("{name}_count")), Some(h.count as f64));
        prop_assert_eq!(get(&parsed, &format!("{name}_sum")), Some(h.sum as f64));
        prop_assert_eq!(
            get(&parsed, &format!("{name}_bucket{{le=\"+Inf\"}}")),
            Some(h.count as f64)
        );

        // De-cumulate the `le` series back into per-bucket counts.
        let mut prev = 0.0;
        for (i, &b) in h.buckets.iter().enumerate() {
            let le = (1u128 << (i + 1)) - 1;
            match get(&parsed, &format!("{name}_bucket{{le=\"{le}\"}}")) {
                Some(cum) => {
                    prop_assert_eq!(cum - prev, b as f64, "bucket {} disagrees", i);
                    prev = cum;
                }
                // Buckets past the highest occupied one are elided —
                // they must be empty.
                None => prop_assert_eq!(b, 0, "bucket {} dropped despite samples", i),
            }
        }
        prop_assert_eq!(prev, h.count as f64);
    }

    /// Two observers over interleaved halves of a stream, drained into
    /// one registry, report exactly what one observer over the merged
    /// stream reports — the associativity the soak harness leans on
    /// when episodes drain concurrently-accumulated deltas.
    #[test]
    fn split_observers_merge_to_the_whole(seed in 0u64..5_000, msgs in 2usize..60) {
        let stream = synthetic_stream(seed, msgs);
        let faults = FaultModel::none();

        // One observer over everything.
        let reg_whole = SharedRegistry::new();
        let mut whole = LiveMetrics::new(reg_whole.clone()).with_terminal_eviction(false, &faults);
        whole.consume(&stream);
        whole.flush();

        // Two observers, each seeing the complete story of half the
        // messages (split by id parity, order preserved), draining —
        // including once mid-stream — into one shared registry.
        let by_parity = |want: usize| -> Vec<KernelEvent> {
            stream
                .iter()
                // Message-less events (control frames) go to half 0.
                .filter(|ev| message_of(ev).map_or(want == 0, |m| m % 2 == want))
                .cloned()
                .collect()
        };
        let (a, b) = (by_parity(0), by_parity(1));
        let reg_split = SharedRegistry::new();
        let mut obs_a = LiveMetrics::new(reg_split.clone()).with_terminal_eviction(false, &faults);
        let mut obs_b = LiveMetrics::new(reg_split.clone()).with_terminal_eviction(false, &faults);
        obs_a.consume(&a[..a.len() / 2]);
        obs_a.flush(); // mid-stream drain: deltas must still sum
        obs_a.consume(&a[a.len() / 2..]);
        obs_b.consume(&b);
        obs_a.flush();
        obs_b.flush();

        // Every message's story is terminal (delivered or abandoned),
        // so the in-flight gauges agree at 0 and the comparison is
        // exact across counters, gauges, and histogram series.
        prop_assert_eq!(whole.in_flight(), 0);
        prop_assert_eq!(obs_a.in_flight() + obs_b.in_flight(), 0);
        let whole_samples = parse_samples(&reg_whole.encode());
        let split_samples = parse_samples(&reg_split.encode());
        prop_assert_eq!(whole_samples, split_samples);
    }
}

/// The message id an event concerns, if any.
fn message_of(ev: &KernelEvent) -> Option<usize> {
    match ev {
        KernelEvent::Run { ev, .. } => Some(ev.msg.0),
        KernelEvent::Wire(w) => match w.payload {
            PayloadKind::User { msg, .. } => Some(msg.0),
            PayloadKind::Control { .. } => None,
        },
        KernelEvent::Fault(_) => None,
    }
}

/// A deterministic stream where every message reaches a terminal
/// state: invoked, framed (sometimes lost, sometimes duplicated,
/// sometimes retransmitted), and — unless lost — received and
/// delivered. Message lifetimes overlap so the pending map is
/// genuinely exercised.
fn synthetic_stream(seed: u64, msgs: usize) -> Vec<KernelEvent> {
    let mut out = Vec::new();
    let run = |m: usize, kind: EventKind, time: u64| KernelEvent::Run {
        ev: SystemEvent::new(MessageId(m), kind),
        time,
    };
    for m in 0..msgs {
        out.push(run(m, EventKind::Invoke, 3 * m as u64));
    }
    for m in 0..msgs {
        let r = mix(seed ^ m as u64);
        let lost = r.is_multiple_of(10);
        out.push(KernelEvent::Wire(Box::new(WireRecord {
            from: m % 4,
            to: (m + 1) % 4,
            time: 3 * m as u64 + 1,
            payload: PayloadKind::User {
                msg: MessageId(m),
                bytes: (r % 32) as usize,
                retransmit: r.is_multiple_of(7),
            },
            decision: TransmitDecision {
                delay: 1 + r % 50,
                dropped: lost.then_some(if r.is_multiple_of(2) {
                    DropReason::Loss
                } else {
                    DropReason::Partition
                }),
                // Duplicates only on surviving frames: a lost frame with
                // a surviving copy would stay pending, and this stream
                // keeps every message terminal.
                dup_delay: (!lost && r.is_multiple_of(5)).then_some(2),
                ..TransmitDecision::default()
            },
        })));
        if m.is_multiple_of(6) {
            out.push(KernelEvent::Wire(Box::new(WireRecord {
                from: m % 4,
                to: (m + 2) % 4,
                time: 3 * m as u64 + 1,
                payload: PayloadKind::Control {
                    bytes: 4,
                    retransmit: false,
                },
                decision: TransmitDecision {
                    delay: 2,
                    ..TransmitDecision::default()
                },
            })));
        }
        if !lost {
            let t = 3 * m as u64 + 2 + r % 50;
            out.push(run(m, EventKind::Receive, t));
            out.push(run(m, EventKind::Deliver, t + r % 9));
        }
    }
    out
}

/// Satellite (a)'s proof: one million messages with 5% loss flow
/// through the observer while at most `WINDOW` are ever in flight, and
/// the pending map tracks the *in-flight* population — not run length.
/// Before the eviction fix, every lost message leaked a pending entry
/// and this test's peak would grow with the message count.
#[test]
fn latency_tracker_memory_stays_bounded_over_a_million_messages() {
    const TOTAL: usize = 1_000_000;
    const WINDOW: usize = 512;
    let lost = |m: usize| mix(0x50AC ^ m as u64).is_multiple_of(20);

    let faults = FaultModel::none();
    let registry = SharedRegistry::new();
    let mut obs = LiveMetrics::new(registry.clone()).with_terminal_eviction(false, &faults);

    let (mut dropped, mut delivered, mut peak) = (0u64, 0u64, 0usize);
    for i in 0..TOTAL + WINDOW {
        // Open message `i`: invoke it and put its frame on the wire.
        if i < TOTAL {
            let t = 4 * i as u64;
            obs.consume(&[
                KernelEvent::Run {
                    ev: SystemEvent::new(MessageId(i), EventKind::Invoke),
                    time: t,
                },
                KernelEvent::Wire(Box::new(WireRecord {
                    from: i % 4,
                    to: (i + 1) % 4,
                    time: t,
                    payload: PayloadKind::User {
                        msg: MessageId(i),
                        bytes: 8,
                        retransmit: false,
                    },
                    decision: TransmitDecision {
                        delay: 3,
                        dropped: lost(i).then_some(DropReason::Loss),
                        ..TransmitDecision::default()
                    },
                })),
            ]);
            if lost(i) {
                dropped += 1;
            }
        }
        // Close message `i - WINDOW`, keeping `WINDOW` messages open.
        if i >= WINDOW {
            let m = i - WINDOW;
            if !lost(m) {
                let t = 4 * m as u64 + 3;
                obs.consume(&[
                    KernelEvent::Run {
                        ev: SystemEvent::new(MessageId(m), EventKind::Receive),
                        time: t,
                    },
                    KernelEvent::Run {
                        ev: SystemEvent::new(MessageId(m), EventKind::Deliver),
                        time: t + 1,
                    },
                ]);
                delivered += 1;
            }
        }
        peak = peak.max(obs.in_flight());
        if i.is_multiple_of(65_536) {
            obs.flush(); // periodic drains must not lose deltas
        }
    }
    obs.flush();

    assert!(
        peak <= WINDOW,
        "pending map grew past the in-flight window: peak {peak} > {WINDOW}"
    );
    assert_eq!(
        obs.in_flight(),
        0,
        "messages leaked past their terminal events"
    );
    assert_eq!(delivered + dropped, TOTAL as u64);
    registry.with(|reg| {
        assert_eq!(reg.counter(names::DELIVERIES, &[]), delivered);
        assert_eq!(reg.counter(names::ABANDONED, &[]), dropped);
        assert_eq!(
            reg.counter(names::DROPS, &[("reason", "loss")]),
            dropped,
            "every abandonment should trace back to a recorded loss"
        );
        assert_eq!(reg.gauge(names::IN_FLIGHT, &[]), Some(0.0));
    });
}

/// The family table is the whole schema: `LiveMetrics::new` declares
/// its scope, the other scopes declare theirs, every family then shows
/// a `# TYPE` line of the table's kind, and a name outside the table
/// cannot be fed.
#[test]
fn every_table_family_is_declared_and_nothing_else_can_be() {
    let registry = SharedRegistry::new();
    let _live = LiveMetrics::new(registry.clone());
    let text = registry.encode();
    for spec in FAMILIES {
        let line = format!("# TYPE {} ", spec.name);
        assert_eq!(
            text.contains(&line),
            spec.scope == Scope::Run,
            "LiveMetrics::new declares exactly the run families: {}",
            spec.name
        );
    }
    registry.with(|reg| {
        for scope in [
            Scope::Monitor,
            Scope::Realtime,
            Scope::Soak,
            Scope::Exporter,
        ] {
            reg.declare(scope);
        }
    });
    let text = registry.encode();
    let types = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert_eq!(types, FAMILIES.len(), "{text}");
    for spec in FAMILIES {
        let kind = format!("{:?}", spec.kind).to_lowercase();
        let line = format!("# TYPE {} {kind}\n", spec.name);
        assert!(text.contains(&line), "missing {line:?} in {text}");
        assert!(
            text.contains(&format!("# HELP {} {}\n", spec.name, spec.help)),
            "missing help for {}",
            spec.name
        );
    }
    for reason in msgorder_simnet::RejectReason::ALL {
        let series = format!("{}{{reason=\"{}\"}} 0\n", names::REJECTED, reason.label());
        assert!(text.contains(&series), "missing {series:?}");
    }

    registry.with(|reg| {
        reg.add_counter("msgorder_undeclared_total", &[], 1);
        reg.set_gauge("msgorder_undeclared", &[], 1.0);
        reg.merge_histogram("msgorder_undeclared_ticks", &[], &{
            let mut h = Histogram::new();
            h.record(1);
            h
        });
    });
    assert_eq!(registry.encode(), text, "an undeclared name is refused");
}

/// The exposition of one fixed stream, captured at the commit before
/// the registry became the only metrics store: the encoding may not
/// move by a byte.
#[test]
fn prometheus_text_is_pinned_for_a_fixed_stream() {
    let registry = SharedRegistry::new();
    let mut live =
        LiveMetrics::new(registry.clone()).with_terminal_eviction(false, &FaultModel::none());
    live.consume(&synthetic_stream(7, 40));
    live.finish();
    assert_eq!(registry.encode(), include_str!("pin_seed7_40.prom"));
}
