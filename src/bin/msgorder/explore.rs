//! `msgorder explore`: exhaustive schedule exploration (model checking)
//! of any registry protocol on a seeded workload — sleep-set
//! partial-order reduction, a sharded work-stealing frontier for
//! `--threads`, and an optional exact seen-set (`--dedup exact`).

use crate::args::{Args, Faults, Session};
use msgorder::protocols::{explore_violations, Violations};
use msgorder::simnet::{explore, DedupMode, ExploreOptions, Workload};

pub fn run(args: &[String]) -> Result<(), String> {
    let mut session = Session::new("async", 3, 6, 1);
    let mut faults = Faults::default();
    let mut por = true;
    let mut threads = 1usize;
    let mut dedup = DedupMode::Off;
    let mut cap: Option<usize> = None;
    let mut max_depth: Option<usize> = None;
    let mut args = Args::new(args);
    while let Some(flag) = args.next() {
        match flag {
            "--por" => {
                por = match args.value()? {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--por: expected `on` or `off`, got `{other}`")),
                }
            }
            "--threads" => threads = args.parse()?,
            "--dedup" => {
                dedup = match args.value()? {
                    "off" => DedupMode::Off,
                    "exact" => DedupMode::Exact,
                    other => {
                        return Err(format!("--dedup: expected `off` or `exact`, got `{other}`"))
                    }
                }
            }
            "--cap" => cap = Some(args.parse()?),
            "--max-depth" => max_depth = Some(args.parse()?),
            _ if session.take(&mut args)? || faults.take(&mut args)? => {}
            _ => return Err(args.unknown()),
        }
    }
    let faults = faults.model;
    let (kind, spec_pred) = session.resolve(&faults)?;
    if threads < 1 {
        return Err("--threads must be at least 1".into());
    }
    let opts = ExploreOptions {
        cap: cap.unwrap_or(usize::MAX),
        por,
        threads,
        dedup,
        max_depth: max_depth.unwrap_or(ExploreOptions::default().max_depth),
        faults,
    };
    // The message starts with the field's name, which is the flag's;
    // only the seen-set's is cured by removing a fault flag.
    opts.validate().map_err(|e| {
        if e.starts_with("dedup") {
            format!("--{e} (remove --drop/--dup)")
        } else {
            format!("--{e}")
        }
    })?;
    let (processes, messages, seed) = (session.processes, session.messages, session.seed);
    let por_effective = por && opts.faults.is_quiet();
    let workload = Workload::uniform_random(processes, messages, seed);
    let factory = |node| kind.explorable(processes, node, false);
    // The violating *configurations* are invariant under
    // --por/--threads/--dedup, so the summary line is comparable across
    // explorer settings (the CI smoke pins it).
    let found = match &spec_pred {
        Some(p) => explore_violations(processes, workload, factory, p, &opts),
        None => Violations {
            exploration: explore(processes, workload, factory, &opts, &|_| true),
            schedules: 0,
            configs: Default::default(),
        },
    };
    let out = &found.exploration;
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
        match opts.dedup {
            DedupMode::Off => "off",
            DedupMode::Exact => "exact",
        }
    );
    println!("schedules     : {}", out.schedules);
    println!("states        : {}", out.states);
    println!("sleep-skipped : {}", out.sleep_skipped);
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
        println!(
            "violations    : {} schedule(s), {} distinct configuration(s) violate {p}",
            found.schedules,
            found.configs.len()
        );
        println!("digest        : {:#018x}", found.digest());
    }
    Ok(())
}
