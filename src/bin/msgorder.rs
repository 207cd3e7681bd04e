//! The `msgorder` command-line tool.
//!
//! ```text
//! msgorder classify "forbid x, y: x.s < y.s & y.r < x.r"
//! msgorder catalog
//! msgorder witness "forbid x, y: x.s < y.r & y.s < x.r"
//! msgorder dot "forbid x, y: x.s < y.s & y.r < x.r" | dot -Tsvg > graph.svg
//! msgorder simulate --protocol causal-rst --processes 4 --messages 30 --seed 7
//! msgorder simulate --protocol synthesized --spec "forbid x, y: x.s < y.s & y.r < x.r"
//! msgorder simulate --protocol async --spec fifo --online
//! ```

use msgorder::classifier::classify::classify;
use msgorder::classifier::dot::to_dot;
use msgorder::core::Spec;
use msgorder::predicate::{catalog, eval, ForbiddenPredicate};
use msgorder::protocols::OnlineMonitor;
use msgorder::protocols::ProtocolKind;
use msgorder::runs::limit_sets;
use msgorder::simnet::{
    CrashSchedule, FaultModel, LatencyModel, Partition, RunObserver, SimConfig, Simulation,
    Workload,
};
use msgorder::trace::registry::names;
use msgorder::trace::{
    parse_spec, record_with_extra, Fanout, FileExporter, Histogram, LiveMetrics, Setup,
    SharedRegistry, Trace,
};
use msgorder::transport::MetricsExporter;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("classify") => cmd_classify(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("file") => cmd_file(&args[1..]),
        Some("catalog") => cmd_catalog(),
        Some("witness") => cmd_witness(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("shrink") => cmd_shrink(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("soak") => cmd_soak(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `msgorder help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "msgorder — message ordering specifications and protocols (Murty & Garg, ICDCS 1997)

USAGE:
  msgorder classify \"<predicate>\"        classify a forbidden predicate
  msgorder explain  \"<predicate>\"        classification + the full argument
  msgorder file <path>                     classify every spec in a spec file
  msgorder catalog                         the paper's decision table
  msgorder witness \"<predicate>\"         print verified separation witnesses
  msgorder dot \"<predicate>\"             Graphviz of the predicate graph
  msgorder simulate [options]              run a protocol on a random workload
      --protocol  async|fifo|causal-rst|causal-ses|flush|sync|sync-batched|synthesized
      --spec      \"<predicate>\"  (required for synthesized; otherwise used to verify)
      --processes N   (default 4)
      --messages  N   (default 30)
      --seed      N   (default 1)
      --timeline      print the run as an ASCII time diagram
      --drop      P   drop each frame with probability P (0..=1)
      --dup       P   duplicate each frame with probability P (0..=1)
      --corrupt   P   flip one payload bit per frame with probability P (0..=1)
      --forge     P   inject a forged control frame with probability P (0..=1)
      --replay-stale P  re-deliver a stale copy of each frame with probability P
      --reorder   P   hold a frame behind a reordering burst with probability P
      --partition A:B:FROM:UNTIL   sever the A<->B link for FROM <= t < UNTIL (repeatable)
      --crash     P:AT[:RESTART]   crash process P at tick AT, optionally restarting (repeatable)
      --reliable      layer ack/retransmission under the protocol (fifo, causal-rst, sync)
      --online        monitor --spec online and halt at the first violating delivery
      --record PATH   write the run as a replayable JSONL trace
      --metrics       print the run's metrics report (latency histograms, wire counters)
  msgorder explore [options]               exhaustively explore every schedule of a
                                           seeded workload (model checking)
      --protocol  async|fifo|causal-rst|causal-ses|sync|sync-batched   (default async)
      --spec      \"<predicate>\"  count schedules violating the spec
      --processes N   (default 3)
      --messages  N   (default 6)
      --seed      N   (default 1)
      --por       on|off   sleep-set partial-order reduction (default on)
      --threads   N   worker threads over the sharded frontier (default 1)
      --dedup     off|exact|compact   configuration deduplication (default off)
      --max-states N  bound the seen-set (implies --dedup compact)
      --spill DIR     spill seen-set overflow to DIR (requires --max-states)
      --cap       N   stop after N complete schedules
      --max-depth N   truncate schedules deeper than N dispatches
      --drop      P   drop each frame with probability P (incompatible with --dedup,
                      makes --por ineffective)
      --dup       P   duplicate each frame with probability P (same restrictions)
  msgorder replay <trace.jsonl> [--metrics]
                                           re-execute a recorded trace and check it
                                           reproduces bit-exactly (fingerprint, stats,
                                           spec verdict)
  msgorder shrink <trace.jsonl> [--out PATH]
                                           delta-debug a violating trace to a minimal
                                           reproducer of the same verdict class
                                           (default output: <trace>.min.jsonl)
  msgorder chaos [options]                 seeded randomized fault/protocol sweep;
                                           violations are shrunk and deduplicated
      --trials N      (default 50)
      --seed   N      (default 1)
      --protocol X    restrict to one protocol (repeatable)
      --step-limit N  per-trial step budget (default 200000)
      --no-shrink     report raw traces without minimizing
      --confirm       cross-check each spec violation against a fault-free
                      exhaustive exploration (inherent vs fault-induced)
      --adversarial   also sample corruption/forgery/stale-replay/reordering
                      per trial (findings are deduplicated per fault family)
      --out DIR       write each finding's reproducer trace into DIR
  msgorder serve [options]                 run a live session over real sockets:
                                           this process is the wall-clock kernel,
                                           each peer process hosts one protocol
                                           instance; the recorded trace replays
                                           bit-exact with `msgorder replay`
      --transport tcp:HOST:PORT|unix:PATH  where to listen (default tcp:127.0.0.1:4600)
      --protocol  async|fifo|causal-rst|causal-ses|flush|sync|sync-batched (default causal-rst)
      --spec      \"<predicate>\"  verified over the live run and on replay
      --processes N   (default 3)
      --messages  N   (default 30)
      --seed      N   (default 1)
      --reliable      layer ack/retransmission under the protocol
      --step-limit N  livelock budget (default 1000000)
      --tick-us  N    wall-clock µs per virtual tick (default 0 = free-run)
      --record PATH   write the live run as a replayable JSONL trace
      --spawn         fork the N client processes locally (loopback demo)
      --metrics-addr HOST:PORT   serve live Prometheus metrics over HTTP while
                      the session runs (port 0 picks a free port)
      --metrics-out PATH         write a metrics snapshot file every second
      --wire-chaos SEED          inject CRC-corrupt frame copies on every link
                      (rejected, counted, resynced — requires wire version 2)
  msgorder client --connect tcp:HOST:PORT|unix:PATH --node N [--wire-chaos SEED]
                                           host one protocol instance for a
                                           `msgorder serve` session (protocol and
                                           workload arrive in the handshake)
  msgorder soak [options]                  long-run harness: episode after episode
                                           of simulated traffic under rotating
                                           fault schedules, with bounded-memory
                                           metrics streaming and online liveness
                                           sampling
      --duration  D   wall-clock budget, e.g. 45s, 5m, 2h (default 60s)
      --protocol  X   registry protocol (default causal-rst)
      --spec      S   monitor a spec online each episode (catalog name or DSL)
      --processes N   (default 4)
      --messages  N   user messages per episode (default 256)
      --seed      N   master seed; episode i of seed s is deterministic (default 12648430)
      --drop      P   base per-frame drop probability every episode
      --dup       P   base per-frame duplication probability every episode
      --reliable      layer ack/retransmission under the protocol
      --adversarial   sample corruption/forgery/stale-replay/reordering per episode
      --no-rotate     keep the base fault model only (no sampled partitions/crashes)
      --step-limit N  kernel step budget per episode (default 1000000)
      --max-episodes N  stop after N episodes even if time remains
      --metrics-addr HOST:PORT   serve live Prometheus metrics over HTTP; the
                      endpoint is self-scraped at the end and the run fails if
                      it does not answer with parseable metrics
      --metrics-out PATH         write a metrics snapshot file every second
      --report PATH   write the machine-readable end-of-run report as JSON
      --max-rss-growth-mb N      fail if resident memory grew more than N MiB
                      from the post-warmup baseline (leak detector)

PREDICATE DSL:
  forbid x, y: x.s < y.s & y.r < x.r where proc(x.s) = proc(y.s), color(y) = red"
    );
}

fn predicate_arg(args: &[String]) -> Result<ForbiddenPredicate, String> {
    let src = args
        .first()
        .ok_or_else(|| "expected a predicate argument".to_owned())?;
    parse_spec(src).map_err(|e| e.to_string())
}

/// `--spec`: a catalog name or a `forbid …` DSL predicate.
fn spec_arg(spec: Option<&str>) -> Result<Option<ForbiddenPredicate>, String> {
    spec.map(parse_spec).transpose().map_err(|e| e.to_string())
}

/// `--protocol`: a [`ProtocolKind`] registry name; `synthesized` is
/// built from `spec`.
fn protocol_arg(name: &str, spec: Option<&ForbiddenPredicate>) -> Result<ProtocolKind, String> {
    ProtocolKind::by_name(name, spec).ok_or_else(|| {
        if name == "synthesized" {
            "--protocol synthesized requires --spec".to_owned()
        } else {
            format!("unknown protocol `{name}`")
        }
    })
}

fn cmd_classify(args: &[String]) -> Result<(), String> {
    let pred = predicate_arg(args)?;
    let report = Spec::from_predicate(pred).named("cli").analyze();
    print!("{}", report.render());
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let pred = predicate_arg(args)?;
    let e = msgorder::classifier::explain::explain(&pred);
    print!("{}", e.render());
    if !e.witnesses_verified() {
        return Err("a witness failed verification".into());
    }
    Ok(())
}

fn cmd_file(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("expected a spec-file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let specs = msgorder::predicate::parse::parse_file(&text).map_err(|e| e.to_string())?;
    if specs.is_empty() {
        return Err("no specs in file".into());
    }
    println!("{:<24} {:>9}  {:<28}", "spec", "min-order", "verdict");
    println!("{}", "-".repeat(64));
    for (name, pred) in specs {
        let report = classify(&pred);
        println!(
            "{:<24} {:>9}  {:<28}",
            name,
            report.min_order.map_or("-".to_owned(), |o| o.to_string()),
            report.classification.to_string()
        );
    }
    Ok(())
}

fn cmd_catalog() -> Result<(), String> {
    println!(
        "{:<28} {:>9}  {:<28} {:<20}",
        "specification", "min-order", "verdict", "paper reference"
    );
    println!("{}", "-".repeat(92));
    for entry in catalog::all() {
        let report = classify(&entry.predicate);
        println!(
            "{:<28} {:>9}  {:<28} {:<20}",
            entry.name,
            report.min_order.map_or("-".to_owned(), |o| o.to_string()),
            report.classification.to_string(),
            entry.paper_ref
        );
    }
    Ok(())
}

fn cmd_witness(args: &[String]) -> Result<(), String> {
    let pred = predicate_arg(args)?;
    let report = Spec::from_predicate(pred).named("cli").analyze();
    report.verify_witnesses()?;
    if report.witnesses().is_empty() {
        println!("no separation witness needed: the trivial protocol already suffices.");
        return Ok(());
    }
    for w in report.witnesses() {
        println!("witness kind: {:?}", w.kind);
        println!("{}", w.run.render());
    }
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let pred = predicate_arg(args)?;
    let report = classify(&pred);
    let Some(graph) = &report.graph else {
        return Err("predicate is unsatisfiable after normalization; no graph".into());
    };
    let best = report.cycles.iter().min_by_key(|c| (c.order(), c.len()));
    print!("{}", to_dot(graph, best));
    Ok(())
}

fn parse_probability(flag: &str, s: &str) -> Result<f64, String> {
    let p: f64 = s.parse().map_err(|e| format!("{flag}: {e}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{flag}: probability {p} not in [0, 1]"));
    }
    Ok(p)
}

/// `A:B:FROM:UNTIL` — sever the A<->B link for `FROM <= t < UNTIL`.
fn parse_partition(s: &str) -> Result<Partition, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let [a, b, from, until] = parts.as_slice() else {
        return Err(format!("--partition: expected A:B:FROM:UNTIL, got `{s}`"));
    };
    Ok(Partition {
        a: a.parse()
            .map_err(|e| format!("--partition endpoint: {e}"))?,
        b: b.parse()
            .map_err(|e| format!("--partition endpoint: {e}"))?,
        from: from.parse().map_err(|e| format!("--partition from: {e}"))?,
        until: until
            .parse()
            .map_err(|e| format!("--partition until: {e}"))?,
    })
}

/// `P:AT[:RESTART]` — crash process P at tick AT, optionally restarting.
fn parse_crash(s: &str) -> Result<CrashSchedule, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let (process, at, restart) = match parts.as_slice() {
        [p, at] => (p, at, None),
        [p, at, r] => (p, at, Some(r)),
        _ => return Err(format!("--crash: expected P:AT[:RESTART], got `{s}`")),
    };
    Ok(CrashSchedule {
        process: process
            .parse()
            .map_err(|e| format!("--crash process: {e}"))?,
        at: at.parse().map_err(|e| format!("--crash at: {e}"))?,
        restart: restart
            .map(|r| r.parse().map_err(|e| format!("--crash restart: {e}")))
            .transpose()?,
    })
}

/// Rejects structurally nonsensical fault schedules up front, instead
/// of letting them silently do nothing (out-of-range endpoints never
/// match a link) or panic deep in the kernel. Delegates to the model's
/// own [`FaultModel::validate_for`] so the CLI and the library agree on
/// what is well-formed.
fn validate_faults(
    processes: usize,
    partitions: &[Partition],
    crashes: &[CrashSchedule],
) -> Result<(), String> {
    let model = FaultModel {
        partitions: partitions.to_vec(),
        crashes: crashes.to_vec(),
        ..FaultModel::none()
    };
    model.validate_for(processes).map_err(|e| e.to_string())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let mut protocol = "causal-rst".to_owned();
    let mut spec: Option<String> = None;
    let mut processes = 4usize;
    let mut messages = 30usize;
    let mut seed = 1u64;
    let mut timeline = false;
    let mut drop = 0.0f64;
    let mut dup = 0.0f64;
    let mut corrupt = 0.0f64;
    let mut forge = 0.0f64;
    let mut replay_stale = 0.0f64;
    let mut reorder = 0.0f64;
    let mut partitions: Vec<Partition> = Vec::new();
    let mut crashes: Vec<CrashSchedule> = Vec::new();
    let mut reliable = false;
    let mut online = false;
    let mut record_path: Option<String> = None;
    let mut metrics = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--protocol" => protocol = val()?,
            "--spec" => spec = Some(val()?),
            "--processes" => processes = val()?.parse().map_err(|e| format!("--processes: {e}"))?,
            "--messages" => messages = val()?.parse().map_err(|e| format!("--messages: {e}"))?,
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--timeline" => timeline = true,
            "--drop" => drop = parse_probability("--drop", &val()?)?,
            "--dup" => dup = parse_probability("--dup", &val()?)?,
            "--corrupt" => corrupt = parse_probability("--corrupt", &val()?)?,
            "--forge" => forge = parse_probability("--forge", &val()?)?,
            "--replay-stale" => replay_stale = parse_probability("--replay-stale", &val()?)?,
            "--reorder" => reorder = parse_probability("--reorder", &val()?)?,
            "--partition" => partitions.push(parse_partition(&val()?)?),
            "--crash" => crashes.push(parse_crash(&val()?)?),
            "--reliable" => reliable = true,
            "--online" => online = true,
            "--record" => record_path = Some(val()?),
            "--metrics" => metrics = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let spec_pred = spec_arg(spec.as_deref())?;
    let kind = protocol_arg(&protocol, spec_pred.as_ref())?;
    if processes < 2 {
        return Err("--processes must be at least 2".into());
    }
    if reliable && !kind.supports_retransmission() {
        return Err(format!(
            "--reliable is not supported for `{}` (use fifo, causal-rst, sync or sync-batched)",
            kind.name()
        ));
    }
    validate_faults(processes, &partitions, &crashes)?;
    let mut faults = FaultModel::none()
        .with_drop(drop)
        .and_then(|f| f.with_duplication(dup))
        .and_then(|f| f.with_corruption(corrupt))
        .and_then(|f| f.with_forgery(forge))
        .and_then(|f| f.with_stale_replay(replay_stale))
        .and_then(|f| f.with_reordering(reorder))
        .map_err(|e| e.to_string())?;
    faults.partitions = partitions;
    faults.crashes = crashes;
    let faulty = !faults.is_quiet();
    let w = Workload::uniform_random(processes, messages, seed);
    if record_path.is_some() || metrics {
        return simulate_traced(
            &kind,
            Setup {
                processes,
                latency: LatencyModel::Uniform { lo: 1, hi: 800 },
                seed,
                faults,
                workload: w,
                protocol: protocol.clone(),
                reliable,
                spec: spec.clone(),
                step_limit: 1_000_000,
            },
            spec_pred.as_ref(),
            online,
            timeline,
            record_path.as_deref(),
            metrics,
        );
    }
    let config = SimConfig::new(processes, LatencyModel::Uniform { lo: 1, hi: 800 }, seed)
        .with_faults(faults);
    if online {
        let p = spec_pred
            .as_ref()
            .ok_or_else(|| "--online requires --spec".to_owned())?;
        let out = msgorder::protocols::verify_online(
            config,
            w,
            |node| kind.instantiate_with(processes, node, reliable),
            p,
        );
        println!("protocol      : {}", kind.name());
        println!("spec          : {p}");
        if let Some(ce) = &out.counterexample {
            println!("PROTOCOL BUG  : {ce}");
        }
        match (&out.violation, out.detection_event) {
            (Some(inst), Some(at)) => {
                println!("online verdict: VIOLATED by {inst:?}");
                println!(
                    "detected at   : event {} (t = {}), {} of {} messages delivered",
                    at,
                    out.detection_time.unwrap_or(0),
                    out.user_run.len(),
                    messages
                );
            }
            _ => {
                println!("online verdict: satisfied (run drained, no violation)");
                println!("live          : {}", out.live);
            }
        }
        if let Some(v) = &out.liveness {
            print!("liveness      : {v}");
        }
        if timeline {
            println!("\ntime diagram (prefix at halt):");
            print!("{}", out.user_run.render());
        }
        return Ok(());
    }
    let r = match Simulation::run_uniform(config, w, |node| {
        kind.instantiate_with(processes, node, reliable)
    }) {
        Ok(r) => r,
        Err(e) => {
            println!("protocol      : {}", kind.name());
            println!("PROTOCOL BUG  : {e}");
            if let Some(v) = e.kind.liveness() {
                print!("liveness      : {v}");
            }
            if let Some(trace) = &e.trace {
                println!("\ncounterexample trace (up to the bug):");
                print!("{}", msgorder::runs::display::render_timeline(trace));
            }
            return Err("simulation hit a protocol bug".into());
        }
    };
    let user = r.run.users_view();
    println!("protocol      : {}", kind.name());
    println!("live          : {}", r.completed && r.run.is_quiescent());
    if let Some(v) = &r.liveness {
        print!("liveness      : {v}");
    }
    println!("user messages : {}", r.stats.user_messages);
    println!(
        "control msgs  : {} ({:.2}/msg)",
        r.stats.control_messages,
        r.stats.control_per_user()
    );
    println!(
        "tag bytes     : {} ({:.1}/msg)",
        r.stats.tag_bytes,
        r.stats.tag_bytes_per_user()
    );
    println!("mean latency  : {:.1}", r.stats.mean_latency());
    println!("mean inhibit  : {:.1}", r.stats.mean_inhibition());
    if faulty || r.stats.retransmitted_frames > 0 {
        println!("delivered     : {}/{}", r.stats.delivered, messages);
        println!("dropped       : {}", r.stats.dropped_frames);
        println!("duplicated    : {}", r.stats.duplicated_frames);
        println!("retransmitted : {}", r.stats.retransmitted_frames);
        println!("dup suppressed: {}", r.stats.suppressed_duplicates);
    }
    if !r.stats.adversarial_quiet() {
        println!("corrupted     : {}", r.stats.corrupted_frames);
        println!("forged        : {}", r.stats.forged_frames);
        println!("replayed      : {}", r.stats.replayed_frames);
        println!("reordered     : {}", r.stats.reordered_frames);
        println!("rejected      : {}", r.stats.rejected_frames);
    }
    println!("in X_co       : {}", limit_sets::in_x_co(&user));
    println!("in X_sync     : {}", limit_sets::in_x_sync(&user));
    if let Some(p) = &spec_pred {
        match eval::find_instantiation(p, &user) {
            None => println!("spec          : satisfied"),
            Some(inst) => println!("spec          : VIOLATED by {inst:?}"),
        }
    }
    if timeline {
        println!(
            "
time diagram:"
        );
        print!("{}", msgorder::runs::display::render_timeline(&r.run));
    }
    Ok(())
}

/// The `--record` / `--metrics` pipeline: runs the simulation through
/// the trace recorder (fanning out to the metrics collector and/or the
/// online monitor), writes the JSONL trace, and prints the reports.
fn simulate_traced(
    kind: &ProtocolKind,
    setup: Setup,
    spec_pred: Option<&ForbiddenPredicate>,
    online: bool,
    timeline: bool,
    record_path: Option<&str>,
    metrics: bool,
) -> Result<(), String> {
    if online && spec_pred.is_none() {
        return Err("--online requires --spec".into());
    }
    let processes = setup.processes;
    let reliable = setup.reliable;
    let registry = SharedRegistry::new();
    let mut live = metrics.then(|| LiveMetrics::new(registry.clone()));
    let mut monitor = match (online, spec_pred) {
        (true, Some(p)) => Some(OnlineMonitor::halting(p)),
        _ => None,
    };
    let recorded = {
        let mut extras: Vec<&mut dyn RunObserver> = Vec::new();
        if let Some(l) = live.as_mut() {
            extras.push(l);
        }
        if let Some(m) = monitor.as_mut() {
            extras.push(m);
        }
        let mut fan = Fanout(extras);
        let extra: Option<&mut dyn RunObserver> = if fan.0.is_empty() {
            None
        } else {
            Some(&mut fan)
        };
        record_with_extra(
            &setup,
            |node| kind.instantiate_with(processes, node, reliable),
            extra,
        )
        .map_err(|e| e.to_string())?
    };
    println!("protocol      : {}", kind.name());
    if let Some(path) = record_path {
        recorded.trace.write(path).map_err(|e| e.to_string())?;
        println!(
            "trace         : {path} ({} events, fingerprint {:016x})",
            recorded.trace.events.len(),
            recorded.trace.footer.fingerprint
        );
    }
    let footer = &recorded.trace.footer;
    let buggy = match &recorded.outcome {
        Err(e) => {
            println!("PROTOCOL BUG  : {e}");
            if let Some(v) = e.kind.liveness() {
                print!("liveness      : {v}");
            }
            if let Some(run) = &e.trace {
                println!("\ncounterexample trace (up to the bug):");
                print!("{}", msgorder::runs::display::render_timeline(run));
            }
            true
        }
        Ok(r) => {
            println!("live          : {}", r.completed && r.run.is_quiescent());
            if let Some(v) = &r.liveness {
                print!("liveness      : {v}");
            }
            false
        }
    };
    println!("user messages : {}", footer.stats.user_messages);
    println!(
        "control msgs  : {} ({:.2}/msg)",
        footer.stats.control_messages,
        footer.stats.control_per_user()
    );
    println!("delivered     : {}", footer.stats.delivered);
    if !footer.stats.adversarial_quiet() {
        println!("corrupted     : {}", footer.stats.corrupted_frames);
        println!("forged        : {}", footer.stats.forged_frames);
        println!("replayed      : {}", footer.stats.replayed_frames);
        println!("reordered     : {}", footer.stats.reordered_frames);
        println!("rejected      : {}", footer.stats.rejected_frames);
    }
    match (&footer.verdict, monitor.as_ref()) {
        (Some(v), _) if v.violated => {
            println!("spec          : VIOLATED by {:?}", v.witness);
            if let Some(m) = monitor.as_ref() {
                if let (Some(at), Some(t)) = (m.detection_event(), m.detection_time()) {
                    println!("detected at   : event {at} (t = {t}), run halted");
                }
            }
        }
        (Some(_), _) => println!("spec          : satisfied"),
        (None, _) => {}
    }
    if let Some(live) = live {
        live.finish();
        let report = registry.with(|reg| {
            if let Some(mon) = monitor.as_ref() {
                let searches = Histogram::from(&mon.search_timings());
                reg.merge_histogram(names::MONITOR_SEARCH, &[], &searches);
            }
            reg.render_report()
        });
        println!("\nmetrics:");
        print!("{report}");
    }
    if timeline {
        if let Ok(r) = &recorded.outcome {
            if let Ok(run) = r.run.build() {
                println!("\ntime diagram:");
                print!("{}", msgorder::runs::display::render_timeline(&run));
            }
        }
    }
    if buggy {
        return Err("simulation hit a protocol bug".into());
    }
    Ok(())
}

/// `msgorder replay <trace.jsonl> [--metrics]` — re-execute a recorded
/// trace and verify it reproduces bit-exactly.
fn cmd_replay(args: &[String]) -> Result<(), String> {
    let mut path: Option<String> = None;
    let mut metrics = false;
    for a in args {
        match a.as_str() {
            "--metrics" => metrics = true,
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let path = path.ok_or("expected a trace path (msgorder replay <trace.jsonl>)")?;
    let trace = Trace::read(&path).map_err(|e| e.to_string())?;
    let s = &trace.header.setup;
    println!("trace         : {path}");
    println!(
        "recorded run  : {} ({} processes, seed {}, {} events)",
        s.protocol,
        s.processes,
        s.seed,
        trace.events.len()
    );
    let report = msgorder::trace::replay(&trace).map_err(|e| e.to_string())?;
    if report.fingerprint_ok {
        println!(
            "fingerprint   : ok ({:016x})",
            report.recomputed_fingerprint
        );
    } else {
        println!(
            "fingerprint   : MISMATCH (recorded {:016x}, recomputed {:016x})",
            trace.footer.fingerprint, report.recomputed_fingerprint
        );
    }
    match &report.reexecution {
        None => println!(
            "re-execution  : skipped (protocol `{}` is not in the registry)",
            s.protocol
        ),
        Some(re) => println!(
            "re-execution  : events {}, stats {}, outcome {}",
            if re.identical {
                "identical"
            } else {
                "DIVERGED"
            },
            if re.stats_match { "match" } else { "DIFFER" },
            if re.error_match { "match" } else { "DIFFER" },
        ),
    }
    if let Some(v) = &report.verdict {
        let status = match report.verdict_ok {
            Some(true) => " (reproduces the recording)",
            Some(false) => " (DIFFERS from the recording)",
            None => "",
        };
        if v.violated {
            println!("spec verdict  : VIOLATED by {:?}{status}", v.witness);
        } else {
            println!("spec verdict  : satisfied{status}");
        }
    }
    if let Some(err) = &trace.footer.error {
        println!(
            "recorded bug  : {} at t={} on P{}",
            err.kind, err.time, err.node
        );
    }
    if let Some(lv) = &trace.footer.liveness {
        println!(
            "recorded stall: {} message(s) pending{} — classes {:?}",
            lv.stuck,
            if lv.step_limited {
                " (step limit tripped)"
            } else {
                ""
            },
            lv.classes
        );
    }
    if metrics {
        let registry = SharedRegistry::new();
        let mut live = LiveMetrics::new(registry.clone());
        live.consume(&trace.events);
        live.finish();
        println!("\nmetrics (from the recorded events):");
        print!("{}", registry.with(|reg| reg.render_report()));
    }
    if report.ok() {
        println!("REPLAY OK     : the trace reproduces the recorded run");
        Ok(())
    } else {
        Err("replay diverged from the recording".into())
    }
}

/// `msgorder shrink <trace.jsonl> [--out PATH]` — delta-debug a
/// violating trace to a minimal reproducer of the same verdict class.
fn cmd_shrink(args: &[String]) -> Result<(), String> {
    let mut path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| "--out needs a value".to_owned())?,
                )
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let path = path.ok_or("expected a trace path (msgorder shrink <trace.jsonl>)")?;
    let trace = Trace::read(&path).map_err(|e| e.to_string())?;
    let shrunk = msgorder::trace::shrink::shrink(&trace).map_err(|e| e.to_string())?;
    let r = &shrunk.report;
    println!("trace         : {path}");
    println!("verdict class : {}", r.class);
    println!(
        "events        : {} -> {} ({:.0}% reduction)",
        r.events_before,
        r.events_after,
        r.reduction() * 100.0
    );
    println!(
        "messages      : {} -> {}",
        r.messages_before, r.messages_after
    );
    println!(
        "processes     : {} -> {}",
        r.processes_before, r.processes_after
    );
    println!(
        "search        : {} candidate(s) tried, {} accepted, {} round(s)",
        r.candidates_tried, r.candidates_accepted, r.rounds
    );
    let out_path = out.unwrap_or_else(|| format!("{}.min.jsonl", path.trim_end_matches(".jsonl")));
    shrunk.trace.write(&out_path).map_err(|e| e.to_string())?;
    println!(
        "minimized     : {out_path} ({} events, fingerprint {:016x})",
        shrunk.trace.events.len(),
        shrunk.trace.footer.fingerprint
    );
    Ok(())
}

/// A 64-bit FNV-1a digest of a terminal run's *partial order* (message
/// metadata + covering pairs of `▷`): identical for identical user
/// views, whatever schedule produced them. Violation digests are
/// combined by wrapping addition, so the total is independent of the
/// order workers reach the violating schedules in.
fn run_digest(run: &msgorder::runs::SystemRun) -> u64 {
    let snap = msgorder::runs::UserRunSnapshot::from(&run.users_view());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let eat = |h: &mut u64, v: u64| {
        *h ^= v;
        *h = h.wrapping_mul(0x100_0000_01b3);
    };
    for m in &snap.messages {
        eat(&mut h, m.src.0 as u64);
        eat(&mut h, m.dst.0 as u64);
    }
    for &(a, b) in &snap.covers {
        eat(&mut h, a as u64);
        eat(&mut h, b as u64);
    }
    h
}

/// `msgorder explore [options]` — exhaustive schedule exploration
/// (model checking) of an explorable protocol on a seeded workload:
/// sleep-set partial-order reduction, a sharded work-stealing frontier
/// for `--threads`, and an optional bounded/disk-spillable seen-set.
fn cmd_explore(args: &[String]) -> Result<(), String> {
    let mut protocol = "async".to_owned();
    let mut spec: Option<String> = None;
    let mut processes = 3usize;
    let mut messages = 6usize;
    let mut seed = 1u64;
    let mut por = true;
    let mut threads = 1usize;
    let mut dedup: Option<String> = None;
    let mut max_states: Option<usize> = None;
    let mut spill: Option<String> = None;
    let mut cap: Option<usize> = None;
    let mut max_depth: Option<usize> = None;
    let mut drop = 0.0f64;
    let mut dup = 0.0f64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--protocol" => protocol = val()?,
            "--spec" => spec = Some(val()?),
            "--processes" => processes = val()?.parse().map_err(|e| format!("--processes: {e}"))?,
            "--messages" => messages = val()?.parse().map_err(|e| format!("--messages: {e}"))?,
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--por" => {
                por = match val()?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--por: expected `on` or `off`, got `{other}`")),
                }
            }
            "--threads" => threads = val()?.parse().map_err(|e| format!("--threads: {e}"))?,
            "--dedup" => {
                let v = val()?;
                match v.as_str() {
                    "off" | "exact" | "compact" => dedup = Some(v),
                    other => {
                        return Err(format!(
                            "--dedup: expected `off`, `exact` or `compact`, got `{other}`"
                        ))
                    }
                }
            }
            "--max-states" => {
                max_states = Some(val()?.parse().map_err(|e| format!("--max-states: {e}"))?)
            }
            "--spill" => spill = Some(val()?),
            "--cap" => cap = Some(val()?.parse().map_err(|e| format!("--cap: {e}"))?),
            "--max-depth" => {
                max_depth = Some(val()?.parse().map_err(|e| format!("--max-depth: {e}"))?)
            }
            "--drop" => drop = parse_probability("--drop", &val()?)?,
            "--dup" => dup = parse_probability("--dup", &val()?)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if processes < 2 {
        return Err("--processes must be at least 2".into());
    }
    if threads < 1 {
        return Err("--threads must be at least 1".into());
    }
    if spill.is_some() && max_states.is_none() {
        return Err("--spill requires --max-states (nothing overflows an unbounded set)".into());
    }
    if max_states.is_some() && dedup.as_deref().is_some_and(|d| d != "compact") {
        return Err(
            "--max-states requires --dedup compact (its seen-set is the bounded one)".into(),
        );
    }
    let dedup_mode = if max_states.is_some() || dedup.as_deref() == Some("compact") {
        msgorder::simnet::DedupMode::Compact {
            max_states: max_states.unwrap_or(0),
            spill: spill.map(std::path::PathBuf::from),
        }
    } else if dedup.as_deref() == Some("exact") {
        msgorder::simnet::DedupMode::Exact
    } else {
        msgorder::simnet::DedupMode::Off
    };
    let faults = FaultModel::none()
        .with_drop(drop)
        .and_then(|f| f.with_duplication(dup))
        .map_err(|e| e.to_string())?;
    if dedup_mode != msgorder::simnet::DedupMode::Off && !faults.is_quiet() {
        return Err(
            "--dedup requires a quiet fault model: the probabilistic fault stream is part \
             of the configuration but cannot be keyed (remove --drop/--dup)"
                .into(),
        );
    }
    let spec_pred = spec_arg(spec.as_deref())?;
    let kind = protocol_arg(&protocol, spec_pred.as_ref())?;
    if kind.explorable(processes, 0).is_none() {
        return Err(format!(
            "--protocol `{protocol}` is not explorable (its state cannot be fingerprinted); \
             use async, fifo, causal-rst, causal-ses, sync or sync-batched"
        ));
    }
    let por_effective = por && faults.is_quiet();
    let opts = msgorder::simnet::ExploreOptions {
        cap: cap.unwrap_or(usize::MAX),
        por,
        threads,
        dedup: dedup_mode.clone(),
        max_depth: max_depth.unwrap_or(msgorder::simnet::ExploreOptions::default().max_depth),
        faults,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let violations = AtomicUsize::new(0);
    // Distinct violating *configurations* (user-view partial orders) by
    // digest: invariant under --por/--threads/--dedup, which only change
    // how many schedules reach each configuration — so the summary line
    // is comparable across explorer settings (the CI smoke pins it).
    let violating_configs: Mutex<std::collections::BTreeSet<u64>> =
        Mutex::new(std::collections::BTreeSet::new());
    let out = msgorder::simnet::explore_parallel_with(
        processes,
        Workload::uniform_random(processes, messages, seed),
        |node| {
            kind.explorable(processes, node)
                .expect("explorability was checked above")
        },
        &opts,
        &|run| {
            if let Some(p) = &spec_pred {
                if eval::find_instantiation(p, &run.users_view()).is_some() {
                    violations.fetch_add(1, Ordering::Relaxed);
                    violating_configs
                        .lock()
                        .expect("no panics hold the digest lock")
                        .insert(run_digest(run));
                }
            }
            true
        },
    );
    println!("protocol      : {}", kind.name());
    println!("workload      : {processes} processes, {messages} messages, seed {seed}");
    println!(
        "por           : {}",
        match (por, por_effective) {
            (true, true) => "on",
            (true, false) => "on (ineffective: faults are not quiet)",
            _ => "off",
        }
    );
    println!("threads       : {threads}");
    println!(
        "dedup         : {}",
        match &dedup_mode {
            msgorder::simnet::DedupMode::Off => "off".to_owned(),
            msgorder::simnet::DedupMode::Exact => "exact".to_owned(),
            msgorder::simnet::DedupMode::Compact {
                max_states: 0,
                spill: None,
            } => "compact".to_owned(),
            msgorder::simnet::DedupMode::Compact { max_states, spill } => format!(
                "compact (max {max_states} states{})",
                spill
                    .as_ref()
                    .map(|p| format!(", spill {}", p.display()))
                    .unwrap_or_default()
            ),
        }
    );
    println!("schedules     : {}", out.schedules);
    println!("states        : {}", out.states);
    println!("sleep-skipped : {}", out.sleep_skipped);
    println!("spilled       : {} segment(s)", out.spilled);
    println!("non-live      : {}", out.non_live);
    println!(
        "truncated     : {}",
        if out.truncated { "yes" } else { "no" }
    );
    if let Some(e) = &out.error {
        println!("PROTOCOL BUG  : {e}");
        return Err("exploration found a protocol bug".into());
    }
    if let Some(p) = &spec_pred {
        let configs = violating_configs
            .lock()
            .expect("no panics hold the digest lock");
        let digest = configs.iter().fold(0u64, |acc, d| acc.wrapping_add(*d));
        println!(
            "violations    : {} schedule(s), {} distinct configuration(s) violate {p}",
            violations.load(Ordering::Relaxed),
            configs.len()
        );
        println!("digest        : {digest:#018x}");
    }
    Ok(())
}

/// `msgorder chaos [options]` — seeded randomized search over protocol
/// × fault model × workload; violations are shrunk to minimal
/// reproducers and deduplicated by failure mode.
fn cmd_chaos(args: &[String]) -> Result<(), String> {
    let mut trials = 50usize;
    let mut seed = 1u64;
    let mut protocols: Vec<String> = Vec::new();
    let mut step_limit: Option<usize> = None;
    let mut no_shrink = false;
    let mut confirm = false;
    let mut adversarial = false;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--trials" => trials = val()?.parse().map_err(|e| format!("--trials: {e}"))?,
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--protocol" => protocols.push(val()?),
            "--step-limit" => {
                step_limit = Some(val()?.parse().map_err(|e| format!("--step-limit: {e}"))?)
            }
            "--no-shrink" => no_shrink = true,
            "--confirm" => confirm = true,
            "--adversarial" => adversarial = true,
            "--out" => out = Some(val()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    for p in &protocols {
        if ProtocolKind::by_name(p, None).is_none() {
            return Err(format!("--protocol: `{p}` is not in the registry"));
        }
    }
    let mut config = msgorder::trace::chaos::ChaosConfig::new(trials, seed);
    config.protocols = protocols;
    if let Some(limit) = step_limit {
        config.step_limit = limit;
    }
    config.shrink = !no_shrink;
    config.confirm = confirm;
    config.adversarial = adversarial;
    let report = msgorder::trace::chaos::sweep(&config).map_err(|e| e.to_string())?;
    print!("{}", report.table());
    if let Some(dir) = out {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
        for (i, f) in report.findings.iter().enumerate() {
            let file = format!("{dir}/finding-{i:02}-{}.jsonl", f.protocol);
            f.trace.write(&file).map_err(|e| e.to_string())?;
            println!("reproducer    : {file}");
        }
    }
    Ok(())
}

/// Parses a `--metrics-addr` value: a full `tcp:`/`unix:` endpoint or
/// a bare `HOST:PORT` (which implies TCP).
fn metrics_endpoint(addr: &str) -> Result<msgorder::transport::Endpoint, String> {
    use msgorder::transport::Endpoint;
    if addr.starts_with("tcp:") || addr.starts_with("unix:") {
        Endpoint::parse(addr)
    } else {
        Endpoint::parse(&format!("tcp:{addr}"))
    }
}

/// Starts the `--metrics-addr` HTTP endpoint and the `--metrics-out`
/// snapshot writer of `serve` and `soak`, both reading `registry`.
fn start_exporters(
    registry: &SharedRegistry,
    addr: Option<&str>,
    out: Option<&str>,
) -> Result<(Option<MetricsExporter>, Option<FileExporter>), String> {
    let http = match addr {
        Some(addr) => {
            let ep = metrics_endpoint(addr)?;
            let l = ep.listen().map_err(|e| format!("{ep}: {e}"))?;
            let exporter =
                MetricsExporter::start(l, registry.clone()).map_err(|e| e.to_string())?;
            println!("metrics       : http on {}", exporter.endpoint());
            Some(exporter)
        }
        None => None,
    };
    let period = std::time::Duration::from_secs(1);
    let file = out.map(|path| FileExporter::start(path.into(), registry.clone(), period));
    Ok((http, file))
}

/// Parses a human duration: `45s`, `5m`, `2h`, `500ms`, or bare
/// seconds.
fn parse_duration(s: &str) -> Result<std::time::Duration, String> {
    use std::time::Duration;
    let (digits, unit_ms) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1000)
    } else if let Some(d) = s.strip_suffix('m') {
        (d, 60 * 1000)
    } else if let Some(d) = s.strip_suffix('h') {
        (d, 60 * 60 * 1000)
    } else {
        (s, 1000)
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("duration {s:?} is not like 45s, 5m, 2h, or 500ms"))?;
    n.checked_mul(unit_ms)
        .map(Duration::from_millis)
        .ok_or_else(|| format!("duration {s:?} overflows"))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use msgorder::trace::registry::{observe_drift, Scope};
    use msgorder::transport::{serve_on_observed, Endpoint, ServeOptions};
    use std::time::Duration;

    let mut transport = "tcp:127.0.0.1:4600".to_owned();
    let mut protocol = "causal-rst".to_owned();
    let mut spec: Option<String> = None;
    let mut processes = 3usize;
    let mut messages = 30usize;
    let mut seed = 1u64;
    let mut reliable = false;
    let mut step_limit = 1_000_000usize;
    let mut tick_us = 0u64;
    let mut record_path: Option<String> = None;
    let mut spawn = false;
    let mut metrics_addr: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut wire_chaos: Option<u64> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--transport" => transport = val()?,
            "--protocol" => protocol = val()?,
            "--spec" => spec = Some(val()?),
            "--processes" => processes = val()?.parse().map_err(|e| format!("--processes: {e}"))?,
            "--messages" => messages = val()?.parse().map_err(|e| format!("--messages: {e}"))?,
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--reliable" => reliable = true,
            "--step-limit" => {
                step_limit = val()?.parse().map_err(|e| format!("--step-limit: {e}"))?
            }
            "--tick-us" => tick_us = val()?.parse().map_err(|e| format!("--tick-us: {e}"))?,
            "--record" => record_path = Some(val()?),
            "--spawn" => spawn = true,
            "--metrics-addr" => metrics_addr = Some(val()?),
            "--metrics-out" => metrics_out = Some(val()?),
            "--wire-chaos" => {
                wire_chaos = Some(val()?.parse().map_err(|e| {
                    format!("--wire-chaos: {e} (expected a u64 seed, e.g. --wire-chaos 7)")
                })?)
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if processes < 2 {
        return Err("--processes must be at least 2".into());
    }
    if step_limit == 0 {
        return Err("--step-limit must be positive".into());
    }
    let endpoint = Endpoint::parse(&transport)?;
    let setup = Setup {
        processes,
        latency: LatencyModel::Fixed(1),
        seed,
        faults: FaultModel::none(),
        workload: Workload::uniform_random(processes, messages, seed),
        protocol,
        reliable,
        spec,
        step_limit,
    };
    let spec_pred = setup.spec_predicate().map_err(|e| e.to_string())?;
    let kind = protocol_arg(&setup.protocol, spec_pred.as_ref())?;
    if reliable && !kind.supports_retransmission() {
        return Err(format!(
            "--reliable is not supported for `{}` (use fifo, causal-rst, sync or sync-batched)",
            kind.name()
        ));
    }
    let mut opts = ServeOptions::new(endpoint, setup);
    opts.tick = Duration::from_micros(tick_us);
    opts.wire_chaos = wire_chaos;
    let listener = opts
        .endpoint
        .listen()
        .map_err(|e| format!("{}: {e}", opts.endpoint))?;
    let dial = listener.local_endpoint().map_err(|e| e.to_string())?;
    println!("listening     : {dial}");
    println!(
        "session       : {} x{}, {} messages, seed {}{}",
        kind.name(),
        opts.setup.processes,
        opts.setup.workload.len(),
        opts.setup.seed,
        if reliable { ", reliable link" } else { "" },
    );
    if let Some(seed) = wire_chaos {
        println!("wire chaos    : CRC-corrupt frame copies injected (seed {seed})");
    }
    // Optional live metrics: one shared registry feeds the HTTP
    // endpoint and/or the periodic snapshot file while the run streams.
    let registry = SharedRegistry::new();
    let (exporter, file_exporter) =
        start_exporters(&registry, metrics_addr.as_deref(), metrics_out.as_deref())?;
    let mut live = (exporter.is_some() || file_exporter.is_some()).then(|| {
        // A scrape taken mid-run already shows every family the final one has.
        registry.with(|reg| reg.declare(Scope::Realtime));
        LiveMetrics::new(registry.clone())
            .with_terminal_eviction(opts.setup.reliable, &opts.setup.faults)
    });
    let mut children = Vec::new();
    if spawn {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        for node in 0..opts.setup.processes {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["client", "--connect", &dial.to_string(), "--node"])
                .arg(node.to_string());
            if let Some(seed) = wire_chaos {
                cmd.arg("--wire-chaos").arg(seed.to_string());
            }
            let child = cmd
                .spawn()
                .map_err(|e| format!("spawning client {node}: {e}"))?;
            children.push(child);
        }
    } else {
        println!(
            "waiting       : connect {} client(s) with `msgorder client --connect {dial} --node <N>`",
            opts.setup.processes
        );
    }
    let extra: Option<&mut dyn RunObserver> = live.as_mut().map(|l| l as &mut dyn RunObserver);
    let outcome =
        serve_on_observed(listener, &opts, spec_pred.as_ref(), extra).map_err(|e| e.to_string())?;
    if let Some(live) = live {
        live.finish();
        registry.with(|reg| {
            // Frames the server discarded for CRC mismatch join the
            // same rejection family the simulator's validators feed,
            // under their own reason label.
            reg.add_counter(
                names::REJECTED,
                &[("reason", names::REASON_CRC)],
                outcome.crc_rejected,
            );
            observe_drift(reg, &outcome.drift);
        });
    }
    for mut child in children {
        let _ = child.wait();
    }
    if let Some(exporter) = exporter {
        exporter.shutdown();
    }
    if let Some(fx) = file_exporter {
        fx.stop();
        if let Some(path) = &metrics_out {
            println!("metrics file  : {path}");
        }
    }
    if wire_chaos.is_some() || outcome.crc_rejected > 0 {
        println!(
            "wire rejected : {} crc-invalid frame(s) at the server ({} corrupt copies injected)",
            outcome.crc_rejected, outcome.chaos_injected
        );
    }
    let d = &outcome.drift;
    println!(
        "drift         : {} dispatches, {} late, max lag {} tick(s), mean {:.2}",
        d.dispatches,
        d.late,
        d.max_lag,
        d.mean_lag()
    );
    if let Some(v) = &outcome.trace.footer.verdict {
        if v.violated {
            println!("spec verdict  : VIOLATED by {:?}", v.witness);
        } else {
            println!("spec verdict  : satisfied");
        }
    }
    if let Some(path) = &record_path {
        outcome.trace.write(path).map_err(|e| e.to_string())?;
        println!(
            "trace         : {path} ({} events)",
            outcome.trace.events.len()
        );
    }
    match &outcome.outcome {
        Ok(r) => {
            println!(
                "live run      : {} delivered, end time {}, {} control message(s)",
                r.stats.delivered, r.stats.end_time, r.stats.control_messages
            );
            if !r.completed {
                return Err("live run hit the step limit".into());
            }
            Ok(())
        }
        Err(e) => {
            println!("PROTOCOL BUG  : {e}");
            Err("live run hit a protocol bug (trace records the counterexample)".into())
        }
    }
}

fn cmd_soak(args: &[String]) -> Result<(), String> {
    use msgorder::trace::registry::parse_samples;
    use msgorder::trace::soak::{run_soak, SoakConfig};
    use msgorder::transport::scrape;
    use std::time::Duration;

    let mut config = SoakConfig::new(Duration::from_secs(60));
    let mut metrics_addr: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut max_rss_growth_mb: Option<u64> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--duration" => config.duration = parse_duration(&val()?)?,
            "--protocol" => config.protocol = val()?,
            "--spec" => config.spec = Some(val()?),
            "--processes" => {
                config.processes = val()?.parse().map_err(|e| format!("--processes: {e}"))?
            }
            "--messages" => {
                config.messages_per_episode =
                    val()?.parse().map_err(|e| format!("--messages: {e}"))?
            }
            "--seed" => config.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--drop" => config.drop = val()?.parse().map_err(|e| format!("--drop: {e}"))?,
            "--dup" => config.duplication = val()?.parse().map_err(|e| format!("--dup: {e}"))?,
            "--reliable" => config.reliable = true,
            "--adversarial" => config.adversarial = true,
            "--no-rotate" => config.rotate_faults = false,
            "--step-limit" => {
                config.step_limit = val()?.parse().map_err(|e| format!("--step-limit: {e}"))?
            }
            "--max-episodes" => {
                config.max_episodes =
                    Some(val()?.parse().map_err(|e| format!("--max-episodes: {e}"))?)
            }
            "--metrics-addr" => metrics_addr = Some(val()?),
            "--metrics-out" => metrics_out = Some(val()?),
            "--report" => report_path = Some(val()?),
            "--max-rss-growth-mb" => {
                max_rss_growth_mb = Some(
                    val()?
                        .parse()
                        .map_err(|e| format!("--max-rss-growth-mb: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }

    let registry = SharedRegistry::new();
    let (exporter, file_exporter) =
        start_exporters(&registry, metrics_addr.as_deref(), metrics_out.as_deref())?;
    println!(
        "soak          : {} x{}, {} messages/episode, seed {}, drop {}, dup {}{}{}",
        config.protocol,
        config.processes,
        config.messages_per_episode,
        config.seed,
        config.drop,
        config.duplication,
        if config.rotate_faults {
            ", rotating fault schedules"
        } else {
            ""
        },
        if config.reliable {
            ", reliable link"
        } else {
            ""
        },
    );
    if config.adversarial {
        println!("adversarial   : corruption/forgery/stale-replay/reordering sampled per episode");
    }

    let report = run_soak(&config, &registry).map_err(|e| e.to_string())?;

    // Prove the endpoint answers with parseable metrics before tearing
    // it down: a soak whose observability was dead is not a pass.
    let mut endpoint_ok = None;
    if let Some(exporter) = exporter {
        let check = scrape(exporter.endpoint())
            .map_err(|e| e.to_string())
            .and_then(|body| parse_samples(&body));
        endpoint_ok = Some(check.is_ok());
        exporter.shutdown();
        if let Err(e) = check {
            return Err(format!("metrics endpoint self-scrape failed: {e}"));
        }
    }
    if let Some(fx) = file_exporter {
        fx.stop();
        if let Some(path) = &metrics_out {
            println!("metrics file  : {path}");
        }
    }

    println!(
        "episodes      : {} ({} step-limited, {} non-live, {} spec violation(s), {} protocol bug(s))",
        report.episodes,
        report.step_limited,
        report.nonlive_episodes,
        report.spec_violations,
        report.protocol_bugs,
    );
    println!(
        "messages      : {} injected, {} delivered, {} abandoned, {} stuck in sampled verdicts",
        report.messages, report.deliveries, report.abandoned, report.stuck_messages,
    );
    println!(
        "throughput    : {:.0} deliveries/s over {:.1}s",
        report.deliveries_per_sec, report.wall_seconds,
    );
    if let (Some(start), Some(end)) = (report.rss_after_warmup_kb, report.rss_end_kb) {
        println!(
            "memory        : {} KiB after warmup, {} KiB at end (+{} KiB)",
            start,
            end,
            report.rss_growth_kb().unwrap_or(0),
        );
    }

    let mut json = serde_json::to_value(&report).map_err(|e| e.to_string())?;
    if let serde::Value::Object(map) = &mut json {
        if let Some(ok) = endpoint_ok {
            map.insert("endpoint_ok".to_owned(), serde::Value::Bool(ok));
        }
    }
    match &report_path {
        Some(path) => {
            let bytes = serde_json::to_vec_pretty(&json).map_err(|e| e.to_string())?;
            std::fs::write(path, bytes).map_err(|e| format!("{path}: {e}"))?;
            println!("report        : {path}");
        }
        None => {
            println!(
                "{}",
                serde_json::to_string(&json).map_err(|e| e.to_string())?
            );
        }
    }

    if let (Some(limit_mb), Some(growth_kb)) = (max_rss_growth_mb, report.rss_growth_kb()) {
        if growth_kb > limit_mb * 1024 {
            return Err(format!(
                "resident memory grew {growth_kb} KiB, over the {limit_mb} MiB budget"
            ));
        }
    }
    if report.protocol_bugs > 0 {
        return Err(format!(
            "{} episode(s) hit a protocol bug",
            report.protocol_bugs
        ));
    }
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    use msgorder::transport::{run_client, ClientOptions, Endpoint};

    let mut connect: Option<String> = None;
    let mut node: Option<usize> = None;
    let mut wire_chaos: Option<u64> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--connect" => connect = Some(val()?),
            "--node" => node = Some(val()?.parse().map_err(|e| format!("--node: {e}"))?),
            "--wire-chaos" => {
                wire_chaos = Some(val()?.parse().map_err(|e| {
                    format!("--wire-chaos: {e} (expected a u64 seed, e.g. --wire-chaos 7)")
                })?)
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let connect = connect.ok_or("--connect is required (tcp:HOST:PORT or unix:PATH)")?;
    let node = node.ok_or("--node is required")?;
    let endpoint = Endpoint::parse(&connect)?;
    let mut copts = ClientOptions::new(endpoint, node);
    copts.wire_chaos = wire_chaos;
    let report = run_client(&copts).map_err(|e| e.to_string())?;
    println!(
        "client done   : node {node}, {} event(s) processed over {} connection(s){}",
        report.processed,
        report.connects,
        if report.crc_rejected > 0 {
            format!(", {} crc-invalid frame(s) rejected", report.crc_rejected)
        } else {
            String::new()
        }
    );
    Ok(())
}
