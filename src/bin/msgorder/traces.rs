//! The subcommands over recorded traces: `replay` re-executes one,
//! `shrink` delta-debugs one, `chaos` sweeps for new ones.

use crate::args::Args;
use msgorder::protocols::ProtocolKind;
use msgorder::trace::chaos::{sweep, ChaosConfig};
use msgorder::trace::{LiveMetrics, SharedRegistry, Trace};

/// `msgorder replay <trace.jsonl> [--metrics]` — re-execute a recorded
/// trace and verify it reproduces bit-exactly.
pub fn replay(args: &[String]) -> Result<(), String> {
    let mut path: Option<&str> = None;
    let mut metrics = false;
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--metrics" => metrics = true,
            other if path.is_none() && !other.starts_with("--") => path = Some(other),
            _ => return Err(args.unknown()),
        }
    }
    let path = path.ok_or("expected a trace path (msgorder replay <trace.jsonl>)")?;
    let trace = Trace::read(path).map_err(|e| e.to_string())?;
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
pub fn shrink(args: &[String]) -> Result<(), String> {
    let mut path: Option<&str> = None;
    let mut out: Option<&str> = None;
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--out" => out = Some(args.value()?),
            other if path.is_none() && !other.starts_with("--") => path = Some(other),
            _ => return Err(args.unknown()),
        }
    }
    let path = path.ok_or("expected a trace path (msgorder shrink <trace.jsonl>)")?;
    let trace = Trace::read(path).map_err(|e| e.to_string())?;
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
    let out_path = out.map_or_else(
        || format!("{}.min.jsonl", path.trim_end_matches(".jsonl")),
        str::to_owned,
    );
    shrunk.trace.write(&out_path).map_err(|e| e.to_string())?;
    println!(
        "minimized     : {out_path} ({} events, fingerprint {:016x})",
        shrunk.trace.events.len(),
        shrunk.trace.footer.fingerprint
    );
    Ok(())
}

/// `msgorder chaos [options]` — seeded randomized search over protocol
/// × fault model × workload; violations are shrunk to minimal
/// reproducers and deduplicated by failure mode.
pub fn chaos(args: &[String]) -> Result<(), String> {
    let mut config = ChaosConfig::new(50, 1);
    let mut out: Option<&str> = None;
    let mut args = Args::new(args);
    while let Some(flag) = args.next() {
        match flag {
            "--trials" => config.trials = args.parse()?,
            "--seed" => config.seed = args.parse()?,
            "--protocol" => {
                let p = args.value()?;
                if ProtocolKind::by_name(p, None).is_none() {
                    return Err(format!("--protocol: `{p}` is not in the registry"));
                }
                config.protocols.push(p.to_owned());
            }
            "--step-limit" => config.step_limit = args.parse()?,
            "--no-shrink" => config.shrink = false,
            "--confirm" => config.confirm = true,
            "--adversarial" => config.adversarial = true,
            "--out" => out = Some(args.value()?),
            _ => return Err(args.unknown()),
        }
    }
    let report = sweep(&config).map_err(|e| e.to_string())?;
    print!("{}", report.table());
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        for (i, f) in report.findings.iter().enumerate() {
            let file = format!("{dir}/finding-{i:02}-{}.jsonl", f.protocol);
            f.trace.write(&file).map_err(|e| e.to_string())?;
            println!("reproducer    : {file}");
        }
    }
    Ok(())
}
