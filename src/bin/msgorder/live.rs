//! The live-transport subcommands: `serve` is the wall-clock kernel of
//! a session over real sockets, `client` hosts one protocol instance.

use crate::args::{Args, MetricsExport, Session};
use msgorder::simnet::{FaultModel, LatencyModel, RunObserver};
use msgorder::trace::registry::{names, observe_drift, Scope};
use msgorder::trace::{LiveMetrics, SharedRegistry};
use msgorder::transport::{run_client, serve_on_observed, ClientOptions, Endpoint, ServeOptions};
use std::time::Duration;

/// `--wire-chaos SEED`, shared by both ends of the wire.
fn wire_chaos_seed(args: &mut Args) -> Result<u64, String> {
    args.parse()
        .map_err(|e| format!("{e} (expected a u64 seed, e.g. --wire-chaos 7)"))
}

pub fn serve(args: &[String]) -> Result<(), String> {
    let mut session = Session::new("causal-rst", 3, 30, 1)
        .with_reliable()
        .with_step_limit();
    let mut export = MetricsExport::default();
    let mut transport = "tcp:127.0.0.1:4600";
    let mut tick_us = 0u64;
    let mut record_path: Option<&str> = None;
    let mut spawn = false;
    let mut wire_chaos: Option<u64> = None;
    let mut args = Args::new(args);
    while let Some(flag) = args.next() {
        match flag {
            "--transport" => transport = args.value()?,
            "--tick-us" => tick_us = args.parse()?,
            "--record" => record_path = Some(args.value()?),
            "--spawn" => spawn = true,
            "--wire-chaos" => wire_chaos = Some(wire_chaos_seed(&mut args)?),
            _ if session.take(&mut args)? || export.take(&mut args)? => {}
            _ => return Err(args.unknown()),
        }
    }
    let (kind, spec_pred) = session.resolve(&FaultModel::none())?;
    let endpoint = Endpoint::parse(transport)?;
    let setup = session.into_setup(LatencyModel::Fixed(1), FaultModel::none())?;
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
        if opts.setup.reliable {
            ", reliable link"
        } else {
            ""
        },
    );
    if let Some(seed) = wire_chaos {
        println!("wire chaos    : CRC-corrupt frame copies injected (seed {seed})");
    }
    // Optional live metrics: one shared registry feeds the HTTP
    // endpoint and/or the periodic snapshot file while the run streams.
    let registry = SharedRegistry::new();
    let exporters = export.start(&registry)?;
    let mut live = exporters.active().then(|| {
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
    exporters.stop();
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
    if let Some(path) = record_path {
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

pub fn client(args: &[String]) -> Result<(), String> {
    let mut connect: Option<&str> = None;
    let mut node: Option<usize> = None;
    let mut wire_chaos: Option<u64> = None;
    let mut args = Args::new(args);
    while let Some(flag) = args.next() {
        match flag {
            "--connect" => connect = Some(args.value()?),
            "--node" => node = Some(args.parse()?),
            "--wire-chaos" => wire_chaos = Some(wire_chaos_seed(&mut args)?),
            _ => return Err(args.unknown()),
        }
    }
    let connect = connect.ok_or("--connect is required (tcp:HOST:PORT or unix:PATH)")?;
    let node = node.ok_or("--node is required")?;
    let mut copts = ClientOptions::new(Endpoint::parse(connect)?, node);
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
