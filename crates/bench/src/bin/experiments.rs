//! Regenerates every table and figure of the paper (see DESIGN.md's
//! per-experiment index and EXPERIMENTS.md for paper-vs-measured notes).
//!
//! ```sh
//! cargo run -p msgorder-bench --bin experiments            # all
//! cargo run -p msgorder-bench --bin experiments -- t1 p1   # a subset
//! ```
//!
//! A JSON digest of all results is written to `target/experiments.json`
//! when `target/` exists in the working directory. A filter that matches
//! no experiment id exits with status 2 and writes nothing.

use msgorder_bench::{f1, f2, Table};
use msgorder_classifier::classify::classify;
use msgorder_classifier::cycles::enumerate_cycles;
use msgorder_classifier::reduce::reduce_cycle;
use msgorder_classifier::witness::{separation_witnesses, verify_witness, WitnessKind};
use msgorder_classifier::PredicateGraph;
use msgorder_core::Spec;
use msgorder_predicate::{catalog, eval};
use msgorder_protocols::ProtocolKind;
use msgorder_runs::generator::{distinct_user_views, random_user_run, GenParams};
use msgorder_runs::{construct, limit_sets};
use msgorder_runs::{EventKind, MessageId, ProcessId, SystemEvent, SystemRun, UserEvent};
use msgorder_simnet::{LatencyModel, SimConfig, Simulation, Workload};
use serde_json::{json, Value};

/// One experiment: prints its tables and returns a JSON digest entry.
type Experiment = fn() -> Value;

fn main() {
    let filters: Vec<String> = std::env::args().skip(1).map(|s| s.to_lowercase()).collect();
    let want = |id: &str| filters.is_empty() || filters.iter().any(|f| id.contains(f.as_str()));

    let experiments: Vec<(&str, Experiment)> = vec![
        ("EXP-T1", exp_t1),
        ("EXP-L3", exp_l3),
        ("EXP-F1", exp_f1),
        ("EXP-F2", exp_f2),
        ("EXP-F3", exp_f3),
        ("EXP-F4", exp_f4),
        ("EXP-F5", exp_f5),
        ("EXP-F7", exp_f7),
        ("EXP-E1", exp_e1),
        ("EXP-T2", exp_t2),
        ("EXP-T4", exp_t4),
        ("EXP-D1", exp_d1),
        ("EXP-P1", exp_p1),
        ("EXP-P2", exp_p2),
        ("EXP-P3", exp_p3),
        ("EXP-P4", exp_p4),
        ("EXP-P5", exp_p5),
        ("EXP-P6", exp_p6),
        ("EXP-S1", exp_s1),
        ("EXP-M1", exp_m1),
        ("EXP-N1", exp_n1),
        ("EXP-O1", exp_o1),
    ];
    // A filter that names no experiment is a typo: refuse before running
    // anything, so a stale digest is never overwritten by an empty one.
    let matches_none = |f: &&String| {
        !experiments
            .iter()
            .any(|(id, _)| id.to_lowercase().contains(f.as_str()))
    };
    if let Some(bad) = filters.iter().find(matches_none) {
        let valid: Vec<&str> = experiments.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "error: filter `{bad}` matches no experiment; valid ids: {}",
            valid.join(", ")
        );
        std::process::exit(2);
    }
    let mut digest = serde_json::Map::new();
    for (id, run) in experiments {
        if !want(&id.to_lowercase()) {
            continue;
        }
        println!("\n================ {id} ================");
        digest.insert(id.to_owned(), run());
    }
    let path = std::path::Path::new("target");
    if path.is_dir() {
        let out = path.join("experiments.json");
        if std::fs::write(
            &out,
            serde_json::to_vec_pretty(&digest).expect("serializes"),
        )
        .is_ok()
        {
            println!("\n[digest written to {}]", out.display());
        }
    }
}

/// EXP-T1 — the §4.3 decision table over the full catalog.
fn exp_t1() -> Value {
    println!("The §4.3 decision table, reproduced over every specification the paper names.\n");
    let mut t = Table::new([
        "specification",
        "|V|",
        "|E|",
        "cycles",
        "min-order",
        "classifier verdict",
        "paper claim",
        "agree",
    ]);
    let mut agree_all = true;
    let mut rows = Vec::new();
    for entry in catalog::all() {
        let report = Spec::from_predicate(entry.predicate.clone())
            .named(entry.name)
            .analyze();
        let s = report.summary();
        let verdict = report.classification().protocol_class();
        let agree = verdict == entry.expected;
        agree_all &= agree;
        t.row([
            entry.name.to_owned(),
            s.vertices.to_string(),
            s.edges.to_string(),
            s.cycles.to_string(),
            s.min_order.map_or("-".into(), |o| o.to_string()),
            verdict.to_string(),
            entry.expected.to_string(),
            if agree { "yes".into() } else { "NO".into() },
        ]);
        rows.push(json!({
            "name": entry.name,
            "min_order": s.min_order,
            "verdict": verdict.to_string(),
            "paper": entry.expected.to_string(),
            "agree": agree,
        }));
    }
    println!("{}", t.render());
    println!(
        "agreement with the paper: {}",
        if agree_all { "FULL" } else { "PARTIAL" }
    );
    json!({ "rows": rows, "full_agreement": agree_all })
}

/// EXP-L3 — Lemma 3: predicate families vs limit sets, checked over
/// exhaustive small-run enumerations.
fn exp_l3() -> Value {
    println!("Lemma 3: B1 ⇔ B2 ⇔ B3 (causal forms) and the impossible patterns,");
    println!("checked over the exhaustive set of distinct user views of small executions.\n");
    let mut views = distinct_user_views(2, &[(0, 1), (0, 1)]);
    views.extend(distinct_user_views(3, &[(0, 1), (1, 2)]));
    views.extend(distinct_user_views(2, &[(0, 1), (1, 0)]));
    views.extend(distinct_user_views(3, &[(0, 1), (1, 2), (2, 0)]));
    views.extend(distinct_user_views(2, &[(0, 1), (0, 1), (1, 0)]));
    views.extend(distinct_user_views(3, &[(0, 1), (2, 1), (0, 2)]));
    let (b1, b2, b3) = (
        catalog::causal_b1(),
        catalog::causal(),
        catalog::causal_b3(),
    );
    // One predicate against a corpus of views: prepare each predicate
    // once (variable order, color filters).
    let (p1, p2, p3) = (
        eval::Prepared::new(&b1),
        eval::Prepared::new(&b2),
        eval::Prepared::new(&b3),
    );
    let mut equal = true;
    let mut co_match = true;
    for v in &views {
        let (r1, r2, r3) = (p1.holds(v), p2.holds(v), p3.holds(v));
        equal &= r1 == r2 && r2 == r3;
        co_match &= r2 != limit_sets::in_x_co(v);
    }
    let mut impossible_never_fire = true;
    for pred in [
        catalog::mutual_send(),
        catalog::lemma33_b(),
        catalog::mutual_deliver(),
    ] {
        let prep = eval::Prepared::new(&pred);
        impossible_never_fire &= views.iter().all(|v| !prep.holds(v));
    }
    let mut t = Table::new(["claim", "runs checked", "holds"]);
    t.row([
        "B1 ⇔ B2 ⇔ B3 (Lemma 3.2)".to_owned(),
        views.len().to_string(),
        yn(equal),
    ]);
    t.row([
        "B2 defines X_co".to_owned(),
        views.len().to_string(),
        yn(co_match),
    ]);
    t.row([
        "Lemma 3.3 patterns never fire".to_owned(),
        (3 * views.len()).to_string(),
        yn(impossible_never_fire),
    ]);
    println!("{}", t.render());
    json!({ "views": views.len(), "b_forms_equal": equal,
            "b2_is_xco": co_match, "impossible_never_fire": impossible_never_fire })
}

/// EXP-F1 — Figure 1: the causal past of a run w.r.t. each process.
fn exp_f1() -> Value {
    println!("Figure 1: causal past of a 3-process run with respect to process 2 (and others).\n");
    // Reconstruct a figure-1-like run: P0 -> P1 (m0), P2 -> P0 (m1),
    // P1 -> P2 (m2), with P2 not yet influenced by m1.
    let mut run = SystemRun::new(3);
    let m0 = run.message(0, 1);
    let m1 = run.message(2, 0);
    let m2 = run.message(1, 2);
    run.invoke(m0).unwrap().send(m0).unwrap();
    run.receive(m0).unwrap().deliver(m0).unwrap();
    run.invoke(m2).unwrap().send(m2).unwrap();
    run.invoke(m1).unwrap().send(m1).unwrap();
    run.receive(m1).unwrap().deliver(m1).unwrap();
    run.receive(m2).unwrap().deliver(m2).unwrap();
    let mut t = Table::new([
        "process",
        "events in causal past",
        "of total",
        "own events kept",
    ]);
    let mut rows = Vec::new();
    for p in 0..3 {
        let past = run.causal_past(ProcessId(p));
        t.row([
            format!("P{p}"),
            past.event_count().to_string(),
            run.event_count().to_string(),
            format!(
                "{}/{}",
                past.sequence(ProcessId(p)).len(),
                run.sequence(ProcessId(p)).len()
            ),
        ]);
        rows.push(json!({ "process": p, "past_events": past.event_count() }));
    }
    println!("{}", t.render());
    println!("the causal past keeps exactly the events that happen-before some event of P_i;");
    println!("P2's past excludes m1's receive at P0 (concurrent), as in the figure.");
    json!({ "total_events": run.event_count(), "per_process": rows })
}

/// EXP-F2 — Figure 2: FIFO inhibition — r2 delayed until after r1.
fn exp_f2() -> Value {
    println!("Figure 2: the FIFO protocol inhibits a delivery until its predecessor lands.\n");
    // Force reordering: two messages on one channel, fixed workload, and
    // find a seed where arrival order inverts send order.
    let workload = Workload {
        sends: vec![
            msgorder_simnet::SendSpec {
                at: 0,
                src: 0,
                dst: 1,
                color: None,
            },
            msgorder_simnet::SendSpec {
                at: 5,
                src: 0,
                dst: 1,
                color: None,
            },
        ],
    };
    // The lowest seed with an inverted arrival wins.
    let fifo_spec = catalog::fifo();
    for seed in 0..200u64 {
        let r = Simulation::run_uniform(
            SimConfig::new(2, LatencyModel::Uniform { lo: 1, hi: 500 }, seed),
            workload.clone(),
            |_| ProtocolKind::Fifo.instantiate(2, 0),
        )
        .expect("no protocol bug");
        let (x, y) = (MessageId(0), MessageId(1));
        let arrived_inverted = r.run.happens_before(
            SystemEvent::new(y, EventKind::Receive),
            SystemEvent::new(x, EventKind::Receive),
        );
        if !arrived_inverted {
            continue;
        }
        let delivered_in_order = r.run.happens_before(
            SystemEvent::new(x, EventKind::Deliver),
            SystemEvent::new(y, EventKind::Deliver),
        );
        let fifo_clean = eval::satisfies_spec(&fifo_spec, &r.run.users_view());
        let inhibition = r.stats.total_inhibition;
        println!("seed {seed}: m1 arrived before m0, protocol delayed m1's delivery");
        println!("  inhibition total: {inhibition} ticks");
        println!("  deliveries in send order: {delivered_in_order}");
        println!("  user view FIFO-clean: {fifo_clean}");
        assert!(delivered_in_order);
        return json!({
            "seed": seed,
            "inhibition": inhibition,
            "delivered_in_order": delivered_in_order,
        });
    }
    // No seed inverted the arrival order. Report a structured error
    // instead of aborting so the rest of the suite still runs.
    eprintln!("EXP-F2: no seed in 0..200 produced an inverted arrival — latency model too tame");
    json!({
        "error": "no seed produced an inverted arrival",
        "seeds_scanned": 200,
    })
}

/// EXP-F3 — Figure 3: control messages create knowledge of concurrent
/// events.
fn exp_f3() -> Value {
    println!("Figure 3: the sync protocol's control messages let processes coordinate");
    println!("events that look concurrent in the user's view.\n");
    let n = 3;
    let w = Workload::uniform_random(n, 8, 42);
    let r = Simulation::run_uniform(
        SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 300 }, 42),
        w,
        |node| ProtocolKind::Sync.instantiate(n, node),
    )
    .expect("no protocol bug");
    let user = r.run.users_view();
    let concurrent_pairs = {
        let mut c = 0;
        for a in 0..user.len() {
            for b in (a + 1)..user.len() {
                if user.concurrent(UserEvent::send(MessageId(a)), UserEvent::send(MessageId(b))) {
                    c += 1;
                }
            }
        }
        c
    };
    println!("control messages used : {}", r.stats.control_messages);
    println!("user view in X_sync   : {}", limit_sets::in_x_sync(&user));
    println!("concurrent send pairs : {concurrent_pairs} (concurrency in the user view is fine —");
    println!("                        the *message blocks* are what gets serialized)");
    json!({
        "control_messages": r.stats.control_messages,
        "in_x_sync": limit_sets::in_x_sync(&user),
        "concurrent_send_pairs": concurrent_pairs,
    })
}

/// EXP-F4 — Figure 4: system view vs user's view under FIFO.
fn exp_f4() -> Value {
    println!("Figure 4: s2 → r1 in the system view, but s2 ⋫ r1 in the user's view.\n");
    let mut run = SystemRun::new(2);
    let x = run.message(0, 1);
    let y = run.message(0, 1);
    run.invoke(x).unwrap().send(x).unwrap();
    run.invoke(y).unwrap().send(y).unwrap();
    run.receive(y).unwrap().receive(x).unwrap(); // y overtakes in transit
    run.deliver(x).unwrap().deliver(y).unwrap(); // FIFO delivery
    let sys_edge = run.happens_before(
        SystemEvent::new(y, EventKind::Send),
        SystemEvent::new(x, EventKind::Deliver),
    );
    let user = run.users_view();
    let user_edge = user.before(UserEvent::send(y), UserEvent::deliver(x));
    println!("system view  s2 → r1 : {sys_edge}");
    println!("user's view  s2 ▷ r1 : {user_edge}");
    assert!(sys_edge && !user_edge);
    json!({ "system_edge": sys_edge, "user_edge": user_edge })
}

/// EXP-F5 — Figure 5 / Theorem 1: constructing a system run from a user
/// view, with the numbering N for sync runs.
fn exp_f5() -> Value {
    println!("Figure 5: inserting s*/r* immediately before s/r reconstructs a system run;");
    println!("for sync runs the blocks yield the vertical-arrow numbering N (Theorem 1.1).\n");
    let total = 50usize;
    let roundtrips = (0..total as u64)
        .filter(|&seed| construct::roundtrips_exactly(&random_user_run(GenParams::new(3, 6, seed))))
        .count();
    let sync_total = 50usize;
    let gn_ok = (0..sync_total as u64)
        .filter(|&seed| {
            let user = msgorder_runs::generator::random_sync_run(GenParams::new(3, 6, seed));
            construct::gn_system_from_sync_user(&user).is_some_and(|sys| limit_sets::in_x_gn(&sys))
        })
        .count();
    println!("execution-derived user views that round-trip exactly : {roundtrips}/{total}");
    println!("sync runs realized inside X_gn (vertical arrows)     : {gn_ok}/{sync_total}");
    assert_eq!(roundtrips, total);
    assert_eq!(gn_ok, sync_total);
    json!({ "roundtrips": roundtrips, "gn_realized": gn_ok })
}

/// EXP-F7 — Figure 7 / Lemma 2: the prefix-series construction with the
/// singleton pending set, executable.
fn exp_f7() -> Value {
    println!("Figure 7 (appendix): every X_gn run decomposes into a prefix series that");
    println!("adds one event at a time while |R ∪ C| ≤ 1 — so a live protocol is forced");
    println!("to admit it (Lemma 2.1).\n");
    use msgorder_runs::lemma2;
    let total = 40usize;
    let ok = (0..total as u64)
        .filter(|&seed| {
            let user = msgorder_runs::generator::random_sync_run(GenParams::new(3, 6, seed));
            let sys =
                construct::gn_system_from_sync_user(&user).expect("sync run realizes in X_gn");
            let series = lemma2::gn_prefix_series(&sys).expect("X_gn run has a series");
            series.pending_always_singleton()
        })
        .count();
    println!("X_gn runs with a singleton-pending prefix series : {ok}/{total}");
    // and one concrete series rendered:
    let mut b = SystemRun::new(2);
    let m0 = b.message(0, 1);
    let m1 = b.message(1, 0);
    b.transmit(m0).unwrap();
    b.transmit(m1).unwrap();
    let series = lemma2::gn_prefix_series(&b).unwrap();
    println!("\nexample series (2 messages): pending sizes after each prefix:");
    println!("  {:?}", series.pending_sizes);
    assert_eq!(ok, total);
    json!({ "checked": total, "singleton": ok })
}

/// EXP-E1 — Examples 1-3 of §4.2: the worked predicate graph, its
/// cycles, the β vertex, and the Lemma 4 contraction.
fn exp_e1() -> Value {
    let pred = catalog::example_4_2();
    println!("Example 1 predicate:\n  {pred}\n");
    let g = PredicateGraph::of(&pred);
    print!("{g}");
    let cycles = enumerate_cycles(&g, 64);
    println!("\ncycles:");
    for c in &cycles {
        println!("  {}", c.render(&g));
    }
    let four = cycles
        .iter()
        .find(|c| c.len() == 4)
        .expect("the paper's cycle");
    let trace = reduce_cycle(&g, four);
    println!("\nLemma 4 contraction of the 4-cycle:");
    for s in &trace.steps {
        println!(
            "  contract x{}:  {}  ∧  {}  ⇒  {}",
            s.removed.0 + 1,
            s.incoming,
            s.outgoing,
            s.composed
        );
    }
    let weaker = trace.final_predicate(&pred);
    println!("reduced predicate B': {weaker}");
    let verdict = classify(&pred).classification.to_string();
    println!("\nverdict: {verdict} (β vertex x4, order 1 — matches Example 3)");
    json!({
        "cycles": cycles.len(),
        "orders": cycles.iter().map(|c| c.order()).collect::<Vec<_>>(),
        "reduction_steps": trace.steps.len(),
        "verdict": verdict,
    })
}

/// EXP-T2 — Theorem 2: acyclic ⇒ unimplementable, with the sync witness.
fn exp_t2() -> Value {
    let pred = catalog::receive_second_before_first();
    println!("Theorem 2 on \"{pred}\":\n");
    let report = classify(&pred);
    println!("{}", report.render());
    let ws = separation_witnesses(&pred);
    let w = &ws[0];
    verify_witness(&pred, w).unwrap();
    println!(
        "witness (in X_sync, violates the spec):\n{}",
        w.run.render()
    );
    json!({
        "implementable": report.classification.is_implementable(),
        "witness_in_x_sync": limit_sets::in_x_sync(&w.run),
    })
}

/// EXP-T4 — Theorem 4: the separation witnesses for every class, plus
/// their realization as concrete executions (aux carrier messages).
fn exp_t4() -> Value {
    println!("Theorem 4: separation witnesses for the whole catalog, re-verified and");
    println!("realized as concrete executions (cross-process order enforced by aux");
    println!("carrier messages; the violation must survive realization).\n");
    let mut t = Table::new([
        "specification",
        "witness kind",
        "verified",
        "aux msgs",
        "still violates",
    ]);
    let mut rows = Vec::new();
    for entry in catalog::all() {
        let ws = separation_witnesses(&entry.predicate);
        if ws.is_empty() {
            t.row([
                entry.name.to_owned(),
                "(none needed)".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        for w in &ws {
            let ok = verify_witness(&entry.predicate, w).is_ok();
            let kind = match w.kind {
                WitnessKind::SyncViolation => "X_sync ∌ spec",
                WitnessKind::CausalViolation => "X_co ∌ spec",
                WitnessKind::AsyncViolation => "X_async ∌ spec",
            };
            let realized = msgorder_runs::realize::realize(&w.run).expect("witness realizes");
            let still = eval::holds(&entry.predicate, &realized.original_view());
            t.row([
                entry.name.to_owned(),
                kind.to_owned(),
                yn(ok),
                realized.aux_count.to_string(),
                yn(still),
            ]);
            rows.push(json!({
                "name": entry.name, "kind": kind, "ok": ok,
                "aux": realized.aux_count, "still_violates": still,
            }));
        }
    }
    println!("{}", t.render());
    json!({ "witnesses": rows })
}

/// EXP-D1 — the §6 discussion catalog: handoff needs control messages,
/// inverted delivery is impossible, the rest are tag-only.
fn exp_d1() -> Value {
    println!("§6 discussion examples.\n");
    let mut t = Table::new(["spec", "paper's conclusion", "classifier"]);
    let cases = [
        ("handoff", "requires additional control messages"),
        ("receive-second-before-first", "not implementable"),
        ("fifo", "merely tagging"),
        ("k-weaker-1", "merely tagging"),
        ("local-forward-flush", "merely tagging"),
        ("global-forward-flush", "merely tagging"),
    ];
    let mut rows = Vec::new();
    for (name, claim) in cases {
        let entry = catalog::by_name(name).unwrap();
        let got = classify(&entry.predicate).classification.to_string();
        t.row([name.to_owned(), claim.to_owned(), got.clone()]);
        rows.push(json!({ "name": name, "claim": claim, "got": got }));
    }
    println!("{}", t.render());
    json!({ "rows": rows })
}

/// EXP-P1 — the protocol overhead comparison (the paper's qualitative
/// cost claims, measured).
fn exp_p1() -> Value {
    println!("Protocol cost comparison over a shared adversarial workload, 10-seed mean.\n");
    let n = 4;
    let msgs = 30;
    let seeds = 10u64;
    let mut t = Table::new([
        "protocol",
        "ctl/msg",
        "tag B/msg",
        "inhibit",
        "latency",
        "FIFO ok",
        "CO ok",
        "SYNC ok",
    ]);
    let fifo = catalog::fifo();
    let mut rows = Vec::new();
    let mut kinds = ProtocolKind::fixed();
    kinds.push(ProtocolKind::Synthesized(vec![catalog::causal()]));
    for kind in kinds {
        let mut agg = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let (mut fifo_ok, mut co_ok, mut sync_ok) = (0u32, 0u32, 0u32);
        for seed in 0..seeds {
            let w = Workload::uniform_random(n, msgs, seed);
            let r = Simulation::run_uniform(
                SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 900 }, seed),
                w,
                |node| kind.instantiate(n, node),
            )
            .expect("no protocol bug");
            assert!(
                r.completed && r.run.is_quiescent(),
                "{} stalled",
                kind.name()
            );
            let user = r.run.users_view();
            agg.0 += r.stats.control_per_user();
            agg.1 += r.stats.tag_bytes_per_user();
            agg.2 += r.stats.mean_inhibition();
            agg.3 += r.stats.mean_latency();
            fifo_ok += u32::from(eval::satisfies_spec(&fifo, &user));
            co_ok += u32::from(limit_sets::in_x_co(&user));
            sync_ok += u32::from(limit_sets::in_x_sync(&user));
        }
        let s = seeds as f64;
        t.row([
            kind.name().to_owned(),
            f2(agg.0 / s),
            f1(agg.1 / s),
            f1(agg.2 / s),
            f1(agg.3 / s),
            format!("{fifo_ok}/{seeds}"),
            format!("{co_ok}/{seeds}"),
            format!("{sync_ok}/{seeds}"),
        ]);
        rows.push(json!({
            "protocol": kind.name(),
            "control_per_user": agg.0 / s,
            "tag_bytes_per_user": agg.1 / s,
            "mean_inhibition": agg.2 / s,
            "mean_latency": agg.3 / s,
            "fifo_ok": fifo_ok, "co_ok": co_ok, "sync_ok": sync_ok,
        }));
    }
    println!("{}", t.render());
    println!("shape checks: async costs nothing and guarantees nothing; the tagged");
    println!("protocols never use control messages; only sync passes SYNC on all seeds,");
    println!("paying ~3 control messages per user message and serialization latency.");
    json!({ "rows": rows })
}

/// EXP-P2 — the synthesized tagged protocol across tagged-class specs.
fn exp_p2() -> Value {
    println!("Synthesized tagged protocols (companion-paper direction): derive the");
    println!("protocol from the predicate, run it, verify safety + liveness.\n");
    let n = 3;
    let seeds = 6u64;
    let mut t = Table::new(["spec", "live", "safe", "ctl msgs", "tag B/msg"]);
    let mut rows = Vec::new();
    for name in ["causal", "fifo", "k-weaker-1", "global-forward-flush"] {
        let entry = catalog::by_name(name).unwrap();
        let (mut live, mut safe) = (0u32, 0u32);
        let mut ctl = 0usize;
        let mut tagb = 0.0;
        for seed in 0..seeds {
            let w = match name {
                "global-forward-flush" => Workload::with_markers(n, 12, 4, "red", seed),
                _ => Workload::uniform_random(n, 12, seed),
            };
            let out = msgorder_protocols::run_and_verify(
                SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 600 }, seed),
                w,
                |_| ProtocolKind::Synthesized(vec![entry.predicate.clone()]).instantiate(n, 0),
                &entry.predicate,
            );
            live += u32::from(out.live);
            safe += u32::from(out.safe);
            ctl += out.stats.control_messages;
            tagb += out.stats.tag_bytes_per_user();
        }
        t.row([
            name.to_owned(),
            format!("{live}/{seeds}"),
            format!("{safe}/{seeds}"),
            ctl.to_string(),
            f1(tagb / seeds as f64),
        ]);
        rows.push(json!({ "name": name, "live": live, "safe": safe, "control": ctl }));
    }
    println!("{}", t.render());
    json!({ "rows": rows })
}

/// EXP-P3 — ablation: per-message vs batched lock windows for the
/// logically synchronous protocol.
fn exp_p3() -> Value {
    println!("Ablation: lock-granting policy of the sync protocol. Batched windows");
    println!("amortize REQ/GRANT/RELEASE over a sender's burst (k + 3 vs 3k control");
    println!("messages) while keeping logical synchrony.\n");
    let n = 4;
    let seeds = 10u64;
    let mut t = Table::new(["workload", "policy", "ctl/msg", "latency", "SYNC ok"]);
    let mut rows = Vec::new();
    for (wname, mk) in [
        (
            "uniform",
            Box::new(|seed| Workload::uniform_random(4, 24, seed)) as Box<dyn Fn(u64) -> Workload>,
        ),
        (
            "bursty client-server",
            Box::new(|seed| Workload::client_server(4, 3, 8, seed)),
        ),
    ] {
        for kind in [ProtocolKind::Sync, ProtocolKind::SyncBatched] {
            let mut ctl = 0.0;
            let mut lat = 0.0;
            let mut sync_ok = 0u32;
            for seed in 0..seeds {
                let r = Simulation::run_uniform(
                    SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 600 }, seed),
                    mk(seed),
                    |node| kind.instantiate(n, node),
                )
                .expect("no protocol bug");
                assert!(r.completed && r.run.is_quiescent());
                ctl += r.stats.control_per_user();
                lat += r.stats.mean_latency();
                sync_ok += u32::from(limit_sets::in_x_sync(&r.run.users_view()));
            }
            let s = seeds as f64;
            t.row([
                wname.to_owned(),
                kind.name().to_owned(),
                f2(ctl / s),
                f1(lat / s),
                format!("{sync_ok}/{seeds}"),
            ]);
            rows.push(json!({
                "workload": wname, "policy": kind.name(),
                "control_per_user": ctl / s, "latency": lat / s, "sync_ok": sync_ok,
            }));
        }
    }
    println!("{}", t.render());
    println!("batching only pays off when senders actually burst: under bursty");
    println!("traffic the control ratio drops toward 1, with no loss of synchrony.");
    json!({ "rows": rows })
}

/// EXP-P4 — tag-size scaling: RST's n² matrices vs SES's sparse
/// constraint sets as the system grows (the crossover figure).
fn exp_p4() -> Value {
    println!("Tag bytes per message: RST (n × n matrix) vs SES (vector + sparse");
    println!("constraints), sweeping the process count at a fixed message budget.\n");
    let seeds = 6u64;
    let mut t = Table::new(["processes", "rst B/msg", "ses B/msg", "ses/rst"]);
    let mut rows = Vec::new();
    for n in [2usize, 4, 6, 8, 12, 16] {
        let mut rst_b = 0.0;
        let mut ses_b = 0.0;
        for seed in 0..seeds {
            let w = Workload::uniform_random(n, 40, seed);
            let cfg = SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 400 }, seed);
            let rst = Simulation::run_uniform(cfg.clone(), w.clone(), |node| {
                ProtocolKind::CausalRst.instantiate(n, node)
            })
            .expect("no protocol bug");
            let ses = Simulation::run_uniform(cfg, w, |node| {
                ProtocolKind::CausalSes.instantiate(n, node)
            })
            .expect("no protocol bug");
            assert!(rst.run.is_quiescent() && ses.run.is_quiescent());
            rst_b += rst.stats.tag_bytes_per_user();
            ses_b += ses.stats.tag_bytes_per_user();
        }
        let s = seeds as f64;
        t.row([
            n.to_string(),
            f1(rst_b / s),
            f1(ses_b / s),
            f2((ses_b / s) / (rst_b / s)),
        ]);
        rows.push(json!({ "processes": n, "rst": rst_b / s, "ses": ses_b / s }));
    }
    println!("{}", t.render());
    println!("RST grows quadratically with n; SES grows with actual communication,");
    println!("so the ratio falls below 1 as the system outgrows the traffic — the");
    println!("crossover that motivated SES.");
    json!({ "rows": rows })
}

/// EXP-P5 — latency-spread sensitivity: how much inhibition the tagged
/// protocols pay as channel reordering grows.
fn exp_p5() -> Value {
    println!("Inhibition (mean delay the protocol imposes between receive and");
    println!("delivery) as the latency spread — and with it the reorder rate — grows.\n");
    let n = 4;
    let seeds = 8u64;
    let mut t = Table::new(["latency hi", "async", "fifo", "causal-rst", "reorder pairs"]);
    let mut rows = Vec::new();
    for hi in [10u64, 100, 400, 1600] {
        let mut cells = [0.0f64; 3];
        let mut reorders = 0u32;
        for seed in 0..seeds {
            let w = Workload::uniform_random(n, 25, seed);
            for (i, kind) in [
                ProtocolKind::Async,
                ProtocolKind::Fifo,
                ProtocolKind::CausalRst,
            ]
            .iter()
            .enumerate()
            {
                let r = Simulation::run_uniform(
                    SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi }, seed),
                    w.clone(),
                    |node| kind.instantiate(n, node),
                )
                .expect("no protocol bug");
                assert!(r.run.is_quiescent());
                cells[i] += r.stats.mean_inhibition();
                if i == 0 && !limit_sets::in_x_co(&r.run.users_view()) {
                    reorders += 1;
                }
            }
        }
        let s = seeds as f64;
        t.row([
            hi.to_string(),
            f1(cells[0] / s),
            f1(cells[1] / s),
            f1(cells[2] / s),
            format!("{reorders}/{seeds} seeds w/ CO break"),
        ]);
        rows.push(json!({ "hi": hi, "async": cells[0]/s, "fifo": cells[1]/s, "rst": cells[2]/s }));
    }
    println!("{}", t.render());
    println!("async never inhibits at any spread (and pays in violations);");
    println!("tagged inhibition tracks the reordering the channel actually produces.");
    json!({ "rows": rows })
}

/// EXP-P6 — sync-protocol contention scaling: serialization latency
/// grows with total load, the price of the control-message class.
fn exp_p6() -> Value {
    println!("Logical synchrony under load: mean end-to-end latency as message count");
    println!("grows (fixed 4 processes). The global lock serializes transmissions, so");
    println!("latency grows linearly with queue depth — tagged protocols stay flat.\n");
    let n = 4;
    let seeds = 6u64;
    let mut t = Table::new(["messages", "sync latency", "sync-batched", "causal-rst"]);
    let mut rows = Vec::new();
    for msgs in [10usize, 20, 40, 80] {
        let mut lat = [0.0f64; 3];
        for seed in 0..seeds {
            let w = Workload::uniform_random(n, msgs, seed);
            for (i, kind) in [
                ProtocolKind::Sync,
                ProtocolKind::SyncBatched,
                ProtocolKind::CausalRst,
            ]
            .iter()
            .enumerate()
            {
                let r = Simulation::run_uniform(
                    SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 300 }, seed),
                    w.clone(),
                    |node| kind.instantiate(n, node),
                )
                .expect("no protocol bug");
                assert!(r.completed && r.run.is_quiescent());
                lat[i] += r.stats.mean_latency();
            }
        }
        let s = seeds as f64;
        t.row([
            msgs.to_string(),
            f1(lat[0] / s),
            f1(lat[1] / s),
            f1(lat[2] / s),
        ]);
        rows.push(
            json!({ "messages": msgs, "sync": lat[0]/s, "batched": lat[1]/s, "rst": lat[2]/s }),
        );
    }
    println!("{}", t.render());
    json!({ "rows": rows })
}

/// EXP-S1 — limit-set population counts: how much of the run space each
/// limit set covers, vs run size.
fn exp_s1() -> Value {
    println!("Limit-set population: fraction of random executions in X_co / X_sync");
    println!("as the number of messages grows (X_async is always 100%).\n");
    let mut t = Table::new(["messages", "runs", "in X_co", "in X_sync"]);
    let mut rows = Vec::new();
    for msgs in [2usize, 4, 6, 8, 10, 14] {
        let total = 300;
        let (mut co, mut sync) = (0u32, 0u32);
        for seed in 0..total {
            let run = random_user_run(GenParams::new(3, msgs, seed));
            co += u32::from(limit_sets::in_x_co(&run));
            sync += u32::from(limit_sets::in_x_sync(&run));
        }
        t.row([
            msgs.to_string(),
            total.to_string(),
            format!("{:.0}%", 100.0 * co as f64 / total as f64),
            format!("{:.0}%", 100.0 * sync as f64 / total as f64),
        ]);
        rows.push(json!({ "messages": msgs, "co_pct": co, "sync_pct": sync, "total": total }));
    }
    println!("{}", t.render());
    println!("the chain X_sync ⊆ X_co ⊆ X_async shows up as monotone columns; both");
    println!("shrink quickly with scale — ordering guarantees are rare by accident.");
    json!({ "rows": rows })
}

/// EXP-M1 — exhaustive model checking of small configurations: protocol
/// guarantees verified over *every* schedule, and the weaker protocol's
/// counterexample schedule exhibited.
fn exp_m1() -> Value {
    use msgorder_protocols::{AsyncProtocol, CausalRst, FifoProtocol, SyncProtocol};
    use msgorder_simnet::{explore, ExploreOptions, SendSpec};
    use std::sync::atomic::{AtomicBool, Ordering};
    println!("Exhaustive exploration (all frame orderings) of small configurations.\n");
    let opts = ExploreOptions {
        cap: 1 << 20,
        ..ExploreOptions::default()
    };
    let same3 = Workload {
        sends: (0..3)
            .map(|i| SendSpec {
                at: i,
                src: 0,
                dst: 1,
                color: None,
            })
            .collect(),
    };
    let triangle = Workload {
        sends: vec![
            SendSpec {
                at: 0,
                src: 0,
                dst: 2,
                color: None,
            },
            SendSpec {
                at: 1,
                src: 0,
                dst: 1,
                color: None,
            },
            SendSpec {
                at: 2,
                src: 1,
                dst: 2,
                color: None,
            },
        ],
    };
    let crossing = Workload {
        sends: vec![
            SendSpec {
                at: 0,
                src: 0,
                dst: 1,
                color: None,
            },
            SendSpec {
                at: 0,
                src: 1,
                dst: 0,
                color: None,
            },
        ],
    };
    let mut t = Table::new([
        "configuration",
        "protocol",
        "schedules",
        "property",
        "holds on all",
    ]);
    let mut rows = Vec::new();
    let fifo_spec = catalog::fifo();

    let check = |cfg: &str,
                 proto: &str,
                 schedules: usize,
                 property: &str,
                 ok: bool,
                 t: &mut Table,
                 rows: &mut Vec<Value>| {
        t.row([
            cfg.to_owned(),
            proto.to_owned(),
            schedules.to_string(),
            property.to_owned(),
            yn(ok),
        ]);
        rows.push(
            json!({ "config": cfg, "protocol": proto, "schedules": schedules,
                          "property": property, "holds": ok }),
        );
    };

    // An explorer visitor is `Fn + Sync` (with `threads > 1` it runs on
    // worker threads), so the visitors fold into atomics.
    let mut all_ok = true;
    {
        let ok = AtomicBool::new(true);
        let prep = eval::Prepared::new(&fifo_spec);
        let e = explore(
            2,
            same3.clone(),
            |_| FifoProtocol::new(),
            &opts,
            &|run: &msgorder_runs::StreamingRun| {
                if !(run.is_quiescent() && prep.satisfies_spec(&run.users_view())) {
                    ok.store(false, Ordering::Relaxed);
                }
                true
            },
        );
        let ok = ok.into_inner();
        check(
            "3 msgs, one channel",
            "fifo",
            e.schedules,
            "FIFO + live",
            ok,
            &mut t,
            &mut rows,
        );
        all_ok &= ok && !e.truncated;
    }
    {
        let violated = AtomicBool::new(false);
        let prep = eval::Prepared::new(&fifo_spec);
        let e = explore(
            2,
            same3,
            |_| AsyncProtocol::new(),
            &opts,
            &|run: &msgorder_runs::StreamingRun| {
                if !prep.satisfies_spec(&run.users_view()) {
                    violated.store(true, Ordering::Relaxed);
                }
                true
            },
        );
        let violated = violated.into_inner();
        check(
            "3 msgs, one channel",
            "async",
            e.schedules,
            "∃ FIFO break",
            violated,
            &mut t,
            &mut rows,
        );
        all_ok &= violated;
    }
    {
        let ok = AtomicBool::new(true);
        let e = explore(
            3,
            triangle.clone(),
            |_| CausalRst::new(3),
            &opts,
            &|run: &msgorder_runs::StreamingRun| {
                if !(run.is_quiescent() && limit_sets::in_x_co(&run.users_view())) {
                    ok.store(false, Ordering::Relaxed);
                }
                true
            },
        );
        let ok = ok.into_inner();
        check(
            "causal triangle",
            "causal-rst",
            e.schedules,
            "CO + live",
            ok,
            &mut t,
            &mut rows,
        );
        all_ok &= ok && !e.truncated;
    }
    {
        let violated = AtomicBool::new(false);
        let e = explore(
            3,
            triangle,
            |_| AsyncProtocol::new(),
            &opts,
            &|run: &msgorder_runs::StreamingRun| {
                if !limit_sets::in_x_co(&run.users_view()) {
                    violated.store(true, Ordering::Relaxed);
                }
                true
            },
        );
        let violated = violated.into_inner();
        check(
            "causal triangle",
            "async",
            e.schedules,
            "∃ CO break",
            violated,
            &mut t,
            &mut rows,
        );
        all_ok &= violated;
    }
    {
        let ok = AtomicBool::new(true);
        let e = explore(
            2,
            crossing,
            |_| SyncProtocol::new(),
            &opts,
            &|run: &msgorder_runs::StreamingRun| {
                if !(run.is_quiescent() && limit_sets::in_x_sync(&run.users_view())) {
                    ok.store(false, Ordering::Relaxed);
                }
                true
            },
        );
        let ok = ok.into_inner();
        check(
            "crossing pair",
            "sync",
            e.schedules,
            "SYNC + live",
            ok,
            &mut t,
            &mut rows,
        );
        all_ok &= ok && !e.truncated;
    }
    println!("{}", t.render());
    println!("unlike the seeded experiments, these cover every schedule of the");
    println!("configuration — counterexamples for the weak protocols are certain,");
    println!("and the strong protocols' guarantees are exhaustively verified.");
    assert!(all_ok);
    json!({ "rows": rows })
}

/// EXP-N1 — fault sweep: delivery and overhead under message loss, with
/// and without the ack/retransmission layer.
fn exp_n1() -> Value {
    println!("Faulty channels: per-frame drop probability vs delivery, for bare");
    println!("protocols and the same protocols under the ack/retransmission layer.");
    println!("Retransmission restores the paper's reliable-channel assumption: the");
    println!("ordering guarantee and liveness both survive a lossy wire.\n");
    let n = 3;
    let msgs = 20usize;
    let seeds = 6u64;
    let fifo_pred = catalog::fifo();
    let fifo_spec = eval::Prepared::new(&fifo_pred);
    let variants: Vec<(&str, ProtocolKind, bool)> = vec![
        ("async", ProtocolKind::Async, false),
        ("fifo", ProtocolKind::Fifo, false),
        ("fifo+retx", ProtocolKind::Fifo, true),
        ("causal-rst+retx", ProtocolKind::CausalRst, true),
    ];
    let mut t = Table::new([
        "drop",
        "protocol",
        "delivered",
        "retransmits",
        "dropped",
        "live",
        "ordering ok",
    ]);
    let mut rows = Vec::new();
    for drop in [0.0f64, 0.05, 0.1, 0.2, 0.3] {
        for (name, kind, reliable) in &variants {
            let per_seed: Vec<_> = (0..seeds)
                .map(|seed| {
                    let w = Workload::uniform_random(n, msgs, seed);
                    let config = SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 500 }, seed)
                        .with_faults(msgorder_simnet::FaultModel::none().with_drop(drop).unwrap());
                    let r = Simulation::run_uniform(config, w, |node| {
                        kind.instantiate_with(n, node, *reliable)
                    })
                    .expect("no protocol bug");
                    let ordering_ok = match kind {
                        ProtocolKind::Async => true,
                        ProtocolKind::Fifo => fifo_spec.satisfies_spec(&r.run.users_view()),
                        _ => limit_sets::in_x_co(&r.run.users_view()),
                    };
                    (
                        r.stats.delivered,
                        r.stats.retransmitted_frames,
                        r.stats.dropped_frames,
                        r.completed && r.run.is_quiescent(),
                        ordering_ok,
                    )
                })
                .collect();
            let total = (seeds as usize * msgs) as f64;
            let delivered: usize = per_seed.iter().map(|x| x.0).sum();
            let retx: usize = per_seed.iter().map(|x| x.1).sum();
            let dropped: usize = per_seed.iter().map(|x| x.2).sum();
            let live = per_seed.iter().filter(|x| x.3).count();
            let ok = per_seed.iter().filter(|x| x.4).count();
            t.row([
                format!("{drop:.2}"),
                (*name).to_owned(),
                format!("{:.0}%", 100.0 * delivered as f64 / total),
                retx.to_string(),
                dropped.to_string(),
                format!("{live}/{seeds}"),
                format!("{ok}/{seeds}"),
            ]);
            rows.push(json!({
                "drop": drop,
                "protocol": name,
                "delivered_frac": delivered as f64 / total,
                "retransmits": retx,
                "dropped": dropped,
                "live": live,
                "ordering_ok": ok,
            }));
            // The acceptance bar: retransmission keeps lossy runs whole.
            if *reliable && drop <= 0.3 {
                assert_eq!(
                    delivered,
                    seeds as usize * msgs,
                    "{name} must deliver everything at drop={drop}"
                );
                assert_eq!(live, seeds as usize, "{name} must stay live at drop={drop}");
            }
        }
    }
    println!("{}", t.render());
    println!("bare protocols lose messages and liveness as soon as the wire drops;");
    println!("the retransmission layer pays in duplicate frames but delivers 100%.");
    json!({ "rows": rows })
}

/// EXP-O1 — online monitoring: how early the streaming monitor detects
/// a violation, and how much live state the pipeline holds.
fn exp_o1() -> Value {
    println!("The streaming pipeline decides safety while the run executes: at each");
    println!("delivery the monitor's delta search either reports a witness or extends");
    println!("its candidate lists. Detection latency is the fraction of the run's");
    println!("events executed before the verdict; live state is the monitor's");
    println!("candidate entries plus the causality index's clock words.\n");
    let n = 3;
    let seeds = 12u64;
    let spec = catalog::fifo();
    let mut t = Table::new([
        "msgs",
        "violated",
        "detect @ event",
        "of total",
        "latency",
        "monitor state",
        "clock words",
    ]);
    let mut rows = Vec::new();
    for msgs in [20usize, 40, 80] {
        let total_events = 4 * msgs;
        let mut violated = 0usize;
        let mut detect_events = Vec::new();
        let mut peak_state = 0usize;
        let mut peak_clock_words = 0usize;
        for seed in 0..seeds {
            let w = Workload::uniform_random(n, msgs, seed);
            let config = SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 500 }, seed);
            let mut mon = msgorder_protocols::OnlineMonitor::halting(&spec);
            let r = Simulation::new(config, w.clone(), |_| {
                msgorder_protocols::AsyncProtocol::new()
            })
            .run_streaming(&mut mon)
            .expect("async has no protocol bugs");
            peak_state = peak_state.max(mon.live_state());
            peak_clock_words = peak_clock_words.max(r.run.clock_words());
            // Ground truth: the post-hoc verdict on the same seed's
            // drained run must agree with the online one.
            let full = Simulation::run_uniform(
                SimConfig::new(n, LatencyModel::Uniform { lo: 1, hi: 500 }, seed),
                w,
                |_| msgorder_protocols::AsyncProtocol::new(),
            )
            .expect("async has no protocol bugs");
            let posthoc = eval::holds(&spec, &full.run.users_view());
            assert_eq!(mon.violated(), posthoc, "online and post-hoc must agree");
            if let Some(at) = mon.detection_event() {
                violated += 1;
                detect_events.push(at);
            }
        }
        let mean_detect = if detect_events.is_empty() {
            f64::NAN
        } else {
            detect_events.iter().sum::<usize>() as f64 / detect_events.len() as f64
        };
        let latency_frac = mean_detect / total_events as f64;
        t.row([
            msgs.to_string(),
            format!("{violated}/{seeds}"),
            format!("{mean_detect:.1}"),
            total_events.to_string(),
            format!("{:.0}%", 100.0 * latency_frac),
            peak_state.to_string(),
            peak_clock_words.to_string(),
        ]);
        rows.push(json!({
            "msgs": msgs,
            "violated": violated,
            "seeds": seeds,
            "mean_detection_event": mean_detect,
            "total_events": total_events,
            "detection_latency_frac": latency_frac,
            "peak_monitor_state": peak_state,
            "peak_clock_words": peak_clock_words,
        }));
    }
    println!("{}", t.render());
    println!("detection fires well before the drain on violating runs, and the live");
    println!("state stays linear in the completed-message count (arity x messages");
    println!("candidates + one clock per stamped user event).");
    json!({ "rows": rows })
}

fn yn(b: bool) -> String {
    (if b { "yes" } else { "NO" }).to_owned()
}
