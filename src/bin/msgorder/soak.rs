//! `msgorder soak`: the long-run harness — episode after episode of
//! simulated traffic under rotating fault schedules, streaming metrics
//! into one bounded registry.

use crate::args::{Args, Faults, MetricsExport, Session};
use msgorder::trace::registry::parse_samples;
use msgorder::trace::soak::{run_soak, SoakConfig};
use msgorder::trace::SharedRegistry;
use msgorder::transport::scrape;
use std::time::Duration;

/// Parses a human duration: `45s`, `5m`, `2h`, `500ms`, or bare
/// seconds.
fn parse_duration(s: &str) -> Result<Duration, String> {
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

pub fn run(args: &[String]) -> Result<(), String> {
    let mut config = SoakConfig::new(Duration::from_secs(60));
    let mut session = Session::new(
        &config.protocol,
        config.processes,
        config.messages_per_episode,
        config.seed,
    )
    .with_reliable()
    .with_step_limit();
    let mut faults = Faults::default();
    let mut export = MetricsExport::default();
    let mut report_path: Option<&str> = None;
    let mut max_rss_growth_mb: Option<u64> = None;
    let mut args = Args::new(args);
    while let Some(flag) = args.next() {
        match flag {
            "--duration" => config.duration = parse_duration(args.value()?)?,
            "--adversarial" => config.adversarial = true,
            "--no-rotate" => config.rotate_faults = false,
            "--max-episodes" => config.max_episodes = Some(args.parse()?),
            "--report" => report_path = Some(args.value()?),
            "--max-rss-growth-mb" => max_rss_growth_mb = Some(args.parse()?),
            _ if session.take(&mut args)?
                || faults.take(&mut args)?
                || export.take(&mut args)? => {}
            _ => return Err(args.unknown()),
        }
    }
    session.resolve(&faults.model)?;
    config.protocol = session.protocol;
    config.spec = session.spec;
    config.processes = session.processes;
    config.messages_per_episode = session.messages;
    config.seed = session.seed;
    config.reliable = session.reliable;
    config.step_limit = session.step_limit;
    config.drop = faults.model.drop;
    config.duplication = faults.model.duplicate;

    let registry = SharedRegistry::new();
    let exporters = export.start(&registry)?;
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
    let endpoint_check = exporters.http.as_ref().map(|http| {
        scrape(http.endpoint())
            .map_err(|e| e.to_string())
            .and_then(|body| parse_samples(&body))
    });
    exporters.stop();
    if let Some(Err(e)) = &endpoint_check {
        return Err(format!("metrics endpoint self-scrape failed: {e}"));
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
    if let (serde::Value::Object(map), Some(check)) = (&mut json, &endpoint_check) {
        map.insert("endpoint_ok".to_owned(), serde::Value::Bool(check.is_ok()));
    }
    match report_path {
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
