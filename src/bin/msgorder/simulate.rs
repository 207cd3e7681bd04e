//! `msgorder simulate`: one run of a `Setup` through
//! `trace::record_with_extra`, with the observers the flags ask for,
//! and one report printed from what it hands back.

use crate::args::{Args, Faults, Session};
use msgorder::protocols::OnlineMonitor;
use msgorder::runs::display::render_timeline;
use msgorder::runs::limit_sets;
use msgorder::simnet::{LatencyModel, RunObserver};
use msgorder::trace::registry::names;
use msgorder::trace::{
    record_with_extra, Fanout, Histogram, LiveMetrics, Recorded, SharedRegistry,
};

pub fn run(args: &[String]) -> Result<(), String> {
    let mut session = Session::new("causal-rst", 4, 30, 1).with_reliable();
    let mut faults = Faults::full();
    let (mut timeline, mut online, mut metrics) = (false, false, false);
    let mut record_path = None;
    let mut args = Args::new(args);
    while let Some(flag) = args.next() {
        match flag {
            "--timeline" => timeline = true,
            "--online" => online = true,
            "--metrics" => metrics = true,
            "--record" => record_path = Some(args.value()?),
            _ if session.take(&mut args)? || faults.take(&mut args)? => {}
            _ => return Err(args.unknown()),
        }
    }
    let (kind, spec) = session.resolve(&faults.model)?;
    if online && spec.is_none() {
        return Err("--online requires --spec".into());
    }
    let setup = session.into_setup(LatencyModel::Uniform { lo: 1, hi: 800 }, faults.model)?;

    // The flags choose observers, not pipelines: `--metrics` feeds the
    // registry, `--online` halts at the violating delivery.
    let registry = SharedRegistry::new();
    let mut live = metrics.then(|| LiveMetrics::new(registry.clone()));
    let mut monitor = spec.as_ref().filter(|_| online).map(OnlineMonitor::halting);
    let recorded = {
        let mut extras: Vec<&mut dyn RunObserver> = Vec::new();
        if let Some(l) = live.as_mut() {
            extras.push(l);
        }
        if let Some(m) = monitor.as_mut() {
            extras.push(m);
        }
        let (n, reliable) = (setup.processes, setup.reliable);
        record_with_extra(
            &setup,
            |node| kind.instantiate_with(n, node, reliable),
            Some(&mut Fanout(extras)),
        )
        .map_err(|e| e.to_string())?
    };

    print_run(&recorded, record_path)?;
    let detection = monitor
        .as_ref()
        .and_then(|m| m.detection_event().zip(m.detection_time()));
    if let Some((at, t)) = detection {
        println!(
            "detected at   : event {at} (t = {t}), run halted with {} of {} messages delivered",
            recorded.trace.footer.stats.delivered,
            setup.workload.len()
        );
    }
    if let Some(live) = live {
        live.finish();
        let report = registry.with(|reg| {
            if let Some(mon) = &monitor {
                let searches = Histogram::from(&mon.search_timings());
                reg.merge_histogram(names::MONITOR_SEARCH, &[], &searches);
            }
            reg.render_report()
        });
        println!("\nmetrics:");
        print!("{report}");
    }
    if let (true, Ok(r)) = (timeline, &recorded.outcome) {
        let prefix = if r.halted { " (prefix at halt)" } else { "" };
        println!("\ntime diagram{prefix}:");
        print!("{}", render_timeline(&r.run));
    }
    if recorded.outcome.is_err() {
        return Err("simulation hit a protocol bug".into());
    }
    Ok(())
}

/// The run itself: outcome and liveness blame, the footer's overhead
/// and fault counters, limit-set membership of the captured user's
/// view, and the spec verdict (witness in workload message ids).
fn print_run(recorded: &Recorded, record_path: Option<&str>) -> Result<(), String> {
    let trace = &recorded.trace;
    let setup = &trace.header.setup;
    println!("protocol      : {}", setup.protocol);
    if let Some(path) = record_path {
        trace.write(path).map_err(|e| e.to_string())?;
        println!(
            "trace         : {path} ({} events, fingerprint {:016x})",
            trace.events.len(),
            trace.footer.fingerprint
        );
    }
    match &recorded.outcome {
        Err(e) => {
            println!("PROTOCOL BUG  : {e}");
            if let Some(v) = e.kind.liveness() {
                print!("liveness      : {v}");
            }
            if let Some(run) = &e.trace {
                println!("\ncounterexample trace (up to the bug):");
                print!("{}", render_timeline(run));
            }
        }
        Ok(r) if r.halted => println!("live          : undecided (run halted)"),
        Ok(r) => {
            println!("live          : {}", r.completed && r.run.is_quiescent());
            if let Some(v) = &r.liveness {
                print!("liveness      : {v}");
            }
        }
    }
    let stats = &trace.footer.stats;
    println!("user messages : {}", stats.user_messages);
    println!(
        "control msgs  : {} ({:.2}/msg)",
        stats.control_messages,
        stats.control_per_user()
    );
    println!(
        "tag bytes     : {} ({:.1}/msg)",
        stats.tag_bytes,
        stats.tag_bytes_per_user()
    );
    println!("mean latency  : {:.1}", stats.mean_latency());
    println!("mean inhibit  : {:.1}", stats.mean_inhibition());
    if !setup.faults.is_quiet() || stats.retransmitted_frames > 0 {
        println!(
            "delivered     : {}/{}",
            stats.delivered,
            setup.workload.len()
        );
        println!("dropped       : {}", stats.dropped_frames);
        println!("duplicated    : {}", stats.duplicated_frames);
        println!("retransmitted : {}", stats.retransmitted_frames);
        println!("dup suppressed: {}", stats.suppressed_duplicates);
    }
    if !stats.adversarial_quiet() {
        println!("corrupted     : {}", stats.corrupted_frames);
        println!("forged        : {}", stats.forged_frames);
        println!("replayed      : {}", stats.replayed_frames);
        println!("reordered     : {}", stats.reordered_frames);
        println!("rejected      : {}", stats.rejected_frames);
    }
    if let Ok(r) = &recorded.outcome {
        let user = r.run.users_view();
        println!("in X_co       : {}", limit_sets::in_x_co(&user));
        println!("in X_sync     : {}", limit_sets::in_x_sync(&user));
    }
    match &trace.footer.verdict {
        Some(v) if v.violated => println!("spec          : VIOLATED by {:?}", v.witness),
        Some(_) => println!("spec          : satisfied"),
        None => {}
    }
    Ok(())
}
