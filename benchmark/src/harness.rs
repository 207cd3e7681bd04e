//! The harness: command line, the measured children, aggregation,
//! output checks, and the result file.
//!
//! One invocation of `benchmark --workload W` is one *run*: the parent
//! starts [`REPETITIONS`] fresh children of the same binary, one after
//! the other, each confined to one CPU. A child sets up (generates
//! inputs, parses the spec, resolves the protocol, warms up), then
//! executes units for its share of `--seconds` and prints a
//! [`ChildReport`]; a fourth child reads peak memory under a page-exact
//! allocator. The parent checks every unit and reports medians.
//! `--trace 1` starts one child of the sibling `benchmark-traced`
//! binary instead.
//!
//! Without `--workload` the command runs every workload, untraced and
//! traced, prints every metric by name with its unit and writes
//! `out/results.json`; `--baseline` and `--check-noise` compare such
//! files.

use crate::calib::{calibrated, Calibrator};
use crate::env::{self, Allocator, Machine};
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::profile::{self, Metrics};
use crate::stats::{classify, gain, Summary, Verdict};
use crate::units::{Context, Unit};
use crate::workloads::{self, Kind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::time::Instant;

/// Timed children per run: each is one set-up sample and a fifth of the
/// timed units.
pub const REPETITIONS: usize = 5;

/// `--seconds` when not given; `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Untimed warm-up units a child runs before its first timed one, so
/// the heap is faulted in and set-up is long enough to time. The
/// exploration workloads warm up on the pinned exploration instead.
fn warm_up_units(kind: Kind) -> u64 {
    match kind {
        Kind::SimBare => 16,
        Kind::LiveInproc => 8,
        _ => 1,
    }
}

/// What a measured child prints as its last line.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChildReport {
    /// Process start to first timed unit, in (raw) seconds.
    pub setup_s: f64,
    /// Calibration loop duration across set-up, in nanoseconds.
    pub setup_cal_ns: u64,
    /// `VmHWM` at exit, in KiB.
    pub vm_hwm_kib: u64,
    /// Every timed unit, in order from unit 0.
    pub units: Vec<Unit>,
    /// Failed checks that belong to no single unit (warm-up, the pinned
    /// exploration, the once-per-child replay).
    pub defects: Vec<String>,
}

/// What the traced child prints as its last line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TracedReport {
    /// Per-layer metric name → value.
    pub metrics: Metrics,
    /// Failed checks.
    pub defects: Vec<String>,
}

fn enter_out_dir() {
    let dir = env::out_dir();
    std::fs::create_dir_all(&dir).expect("benchmark/out/ is creatable");
    // Unix sockets are named by relative path (see `unix_endpoint`).
    std::env::set_current_dir(&dir).expect("benchmark/out/ is enterable");
}

/// Runs `work` under the calibrator when there is one; `0` marks an
/// uncalibrated reading.
fn around<R>(cal: &mut Option<Calibrator>, work: impl FnOnce() -> R) -> (R, u64) {
    match cal {
        Some(cal) => cal.around(work),
        None => (work(), 0),
    }
}

/// The measured child: set up, warm up, run units until `seconds` have
/// passed, check what can only be checked once. A timed child
/// interleaves the calibration loop; the memory child (`seconds == 0`:
/// warm-up plus one unit) times nothing and must not carry the loop's
/// 16 MiB buffer.
pub fn child_main(kind: Kind, seed: u64, seconds: f64, started: Instant) -> ChildReport {
    enter_out_dir();
    let mut cal = (seconds > 0.0).then(Calibrator::new);
    let mut ctx = Context::new(kind, seed);
    let (defects, setup_cal_ns) = around(&mut cal, || {
        if kind.is_explore() {
            ctx.explore_pinned().err().into_iter().collect()
        } else {
            (0..warm_up_units(kind))
                .flat_map(|unit| ctx.run_unit(unit).notes)
                .collect::<Vec<String>>()
        }
    });
    let mut defects = defects;
    let setup_s = started.elapsed().as_secs_f64();
    let timed = Instant::now();
    let mut units: Vec<Unit> = Vec::new();
    while units.is_empty() || timed.elapsed().as_secs_f64() < seconds {
        let (unit, cal_ns) = around(&mut cal, || ctx.run_unit(units.len() as u64));
        units.push(Unit { cal_ns, ..unit });
    }
    if kind == Kind::SimBare {
        defects.extend(ctx.replay_first_trace());
    }
    ChildReport {
        setup_s,
        setup_cal_ns,
        vm_hwm_kib: env::vm_hwm_kib(),
        units,
        defects,
    }
}

/// The traced child: rerun the workload under spans, then price every
/// layer.
pub fn traced_child_main(kind: Kind, seed: u64) -> TracedReport {
    enter_out_dir();
    let mut metrics = Metrics::new();
    let mut defects = Vec::new();
    profile::rerun(kind, seed, &mut metrics, &mut defects);
    profile::layer_profile(seed, &mut metrics, &mut defects);
    TracedReport { metrics, defects }
}

/// Runs `exe` as a measured child and parses the last line of its
/// standard output.
fn spawn<T: Deserialize>(
    exe: &Path,
    machine: &Machine,
    allocator: Allocator,
    args: &[String],
) -> Result<T, String> {
    let cpu = machine.pinned_cpu.map(|c| c.to_string());
    let out = env::measured_command(exe, cpu.as_deref(), allocator)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "child {} exited with {}",
            exe.display(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    serde_json::from_str(last).map_err(|e| format!("child report does not parse: {e:?}"))
}

fn child_args(kind: Kind, seed: u64, seconds: f64) -> Vec<String> {
    [
        "--child",
        "--workload",
        kind.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]
    .map(str::to_owned)
    .to_vec()
}

/// One workload's results: what a result file stores per workload.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// End-to-end metrics (untraced run); times are on the calibrated
    /// clock (see `calib.rs`).
    pub end_to_end: BTreeMap<String, Summary>,
    /// The same time-based metrics on the raw wall clock, for the human
    /// reading the numbers; nothing is gated on them.
    pub uncalibrated: BTreeMap<String, Summary>,
    /// Per-layer metrics (traced run); empty when not traced.
    pub per_layer: Metrics,
    /// Operations attempted in timed units: messages, or explorations.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Timed units each repetition completed.
    pub units_per_repetition: Vec<usize>,
    /// Per-unit fingerprints of the longest repetition: episode trace
    /// fingerprints, stats digests or violation digests. Must repeat
    /// exactly between runs of one seed.
    pub fingerprints: Vec<u64>,
    /// Every failed check, in words.
    pub defects: Vec<String>,
}

impl WorkloadResult {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.defects.is_empty()
    }
}

/// Folds the timed repetitions' reports and the memory child's into one
/// result and applies the cross-repetition checks.
pub fn aggregate(reports: &[ChildReport], memory: &ChildReport) -> WorkloadResult {
    let mut r = WorkloadResult::default();
    let mut rates = Vec::new();
    let mut raw_rates = Vec::new();
    r.defects.extend(memory.defects.iter().cloned());
    for unit in &memory.units {
        r.attempted += unit.attempted;
        r.failed += unit.failed;
        r.defects
            .extend(unit.notes.iter().map(|n| format!("memory child: {n}")));
    }
    for report in reports {
        r.defects.extend(report.defects.iter().cloned());
        r.units_per_repetition.push(report.units.len());
        for (i, unit) in report.units.iter().enumerate() {
            r.attempted += unit.attempted;
            r.failed += unit.failed;
            r.defects
                .extend(unit.notes.iter().map(|n| format!("unit {i}: {n}")));
            if unit.wall_ns > 0 && unit.cal_ns > 0 {
                let raw_s = unit.wall_ns as f64 / 1e9;
                raw_rates.push(unit.messages as f64 / raw_s);
                rates.push(unit.messages as f64 / calibrated(raw_s, unit.cal_ns));
            }
        }
    }
    // Every repetition walks the same unit sequence from unit 0: the
    // same unit must leave the same fingerprint every time.
    let longest = reports
        .iter()
        .max_by_key(|rep| rep.units.len())
        .map_or(&[][..], |rep| &rep.units[..]);
    r.fingerprints = longest.iter().map(|u| u.fingerprint).collect();
    for report in reports {
        for (i, unit) in report.units.iter().enumerate() {
            if unit.fingerprint != r.fingerprints[i] {
                r.failed += unit.attempted;
                r.defects.push(format!(
                    "unit {i}: fingerprint {:#018x} in one repetition, {:#018x} in another",
                    unit.fingerprint, r.fingerprints[i]
                ));
            }
        }
    }
    if rates.is_empty() {
        r.defects.push("no unit closed its timed window".into());
        rates.push(f64::NAN);
        raw_rates.push(f64::NAN);
    }
    let raw_setups: Vec<f64> = reports.iter().map(|rep| rep.setup_s).collect();
    let setups: Vec<f64> = reports
        .iter()
        .map(|rep| calibrated(rep.setup_s, rep.setup_cal_ns.max(1)))
        .collect();
    let rss = vec![memory.vm_hwm_kib as f64 / 1024.0];
    for (name, samples, raw) in [
        ("msgs_per_s", rates, Some(raw_rates)),
        ("peak_rss_mib", rss, None),
        ("setup_s", setups, Some(raw_setups)),
    ] {
        let m = metrics::end_to_end(name).expect("listed metric");
        r.end_to_end
            .insert(name.to_owned(), Summary::of(&samples, m.unit, m.better));
        if let Some(raw) = raw {
            r.uncalibrated
                .insert(name.to_owned(), Summary::of(&raw, m.unit, m.better));
        }
    }
    r
}

fn sibling(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    exe.with_file_name(name)
}

/// One untraced run of `kind`: [`REPETITIONS`] timed children, then
/// one child that runs the warm-up and a single unit under the
/// page-exact allocator and whose `VmHWM` is the run's `peak_rss_mib`.
pub fn run_untraced(kind: Kind, seed: u64, seconds: f64, machine: &Machine) -> WorkloadResult {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let args = child_args(kind, seed, seconds / REPETITIONS as f64);
    let mut reports = Vec::new();
    let mut defects = Vec::new();
    for _ in 0..REPETITIONS {
        match spawn::<ChildReport>(&exe, machine, Allocator::KeepFreed, &args) {
            Ok(report) => reports.push(report),
            Err(e) => defects.push(e),
        }
    }
    let args = child_args(kind, seed, 0.0);
    let memory =
        spawn::<ChildReport>(&exe, machine, Allocator::PageExact, &args).unwrap_or_else(|e| {
            defects.push(e);
            ChildReport::default()
        });
    let mut r = aggregate(&reports, &memory);
    r.defects.extend(defects);
    r
}

/// One traced run of `kind`: per-layer metrics, checked against the
/// table.
pub fn run_traced(kind: Kind, seed: u64, machine: &Machine) -> WorkloadResult {
    let mut r = WorkloadResult {
        attempted: 1,
        ..WorkloadResult::default()
    };
    let args = child_args(kind, seed, 0.0);
    let traced = sibling("benchmark-traced");
    match spawn::<TracedReport>(&traced, machine, Allocator::KeepFreed, &args) {
        Ok(report) => {
            r.per_layer = report.metrics;
            r.defects = report.defects;
        }
        Err(e) => r.defects.push(e),
    }
    r.per_layer.insert(
        "simnet.explore_speedup_2t".into(),
        profile::explore_speedup_2t(),
    );
    for m in &PER_LAYER {
        match r.per_layer.get(m.name) {
            Some(v) if v.is_finite() => {}
            other => r
                .defects
                .push(format!("per-layer metric {}: {other:?}", m.name)),
        }
    }
    if !r.defects.is_empty() {
        r.failed = 1;
    }
    r
}

fn print_end_to_end(kind: Kind, r: &WorkloadResult) {
    for m in &END_TO_END {
        let s = &r.end_to_end[m.name];
        println!(
            "{:<14} {:<13} = {:>14.4} {:<4} q1 {:.4} q3 {:.4} min {:.4} max {:.4} n={} spread {:.1}% bound {:.0}%",
            kind.name(),
            m.name,
            s.value,
            s.unit,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.samples,
            s.spread() * 100.0,
            m.bound * 100.0
        );
        if let Some(raw) = r.uncalibrated.get(m.name) {
            println!(
                "{:<14} {:<13}   {:>14.4} {:<4} on the raw wall clock (q1 {:.4} q3 {:.4})",
                kind.name(),
                "",
                raw.value,
                raw.unit,
                raw.q1,
                raw.q3
            );
        }
    }
    // The slow tail of the per-unit rates, at the highest percentile
    // that still has ten units beyond it.
    let tail = r.end_to_end["msgs_per_s"].tail.map_or_else(
        || "none (fewer than 100 units)".to_owned(),
        |(p, v)| format!("p{p} slowest unit = {v:.4} 1/s"),
    );
    println!(
        "{:<14} ops_attempted = {}  ops_failed = {}  units/repetition = {:?}  tail: {tail}",
        kind.name(),
        r.attempted,
        r.failed,
        r.units_per_repetition
    );
}

fn print_per_layer(kind: Kind, r: &WorkloadResult) {
    for m in &PER_LAYER {
        if let Some(v) = r.per_layer.get(m.name) {
            println!(
                "{:<14} {:<40} = {:>14.4} {}",
                kind.name(),
                m.name,
                v,
                m.unit
            );
        }
    }
}

fn print_defects(kind: Kind, r: &WorkloadResult) {
    for d in &r.defects {
        println!("{:<14} FAILED CHECK: {d}", kind.name());
    }
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn contract_line(r: &WorkloadResult, traced: bool) -> String {
    let mut metrics = serde_json::Map::new();
    if traced {
        for m in &PER_LAYER {
            let value = r.per_layer.get(m.name).copied().unwrap_or(f64::NAN);
            metrics.insert(m.name, serde_json::json!({"value": value, "unit": m.unit}));
        }
    } else {
        for m in &END_TO_END {
            let value = r.end_to_end[m.name].value;
            metrics.insert(m.name, serde_json::json!({"value": value, "unit": m.unit}));
        }
    }
    let line = serde_json::json!({
        "correct": r.correct(),
        "attempted": r.attempted.max(1),
        "failed": r.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    serde_json::to_string(&line).expect("result line serializes")
}

/// A full result: what `out/results.json` holds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Results {
    /// Where and how it was taken.
    pub machine: Machine,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Per workload, by name.
    pub workloads: BTreeMap<String, WorkloadResult>,
}

fn print_machine(machine: &Machine) {
    println!(
        "machine: nproc {}  rustc {}  commit {}",
        machine.nproc, machine.rustc, machine.commit
    );
    match machine.pinned_cpu {
        Some(cpu) => println!("pinned: every measured child runs on CPU {cpu} (taskset -c {cpu})"),
        None => println!(
            "pinned: NO — taskset not found. UNPINNED RUN: socket workloads can read several \
             times slower depending on core placement; do not compare with pinned results"
        ),
    }
}

fn full_set(seed: u64, seconds: f64, machine: &Machine) -> Results {
    let mut results = Results {
        machine: machine.clone(),
        seed,
        seconds,
        workloads: BTreeMap::new(),
    };
    for kind in workloads::ALL {
        let mut r = run_untraced(kind, seed, seconds, machine);
        print_end_to_end(kind, &r);
        let traced = run_traced(kind, seed, machine);
        r.per_layer = traced.per_layer;
        r.defects.extend(traced.defects);
        r.failed += traced.failed;
        print_per_layer(kind, &r);
        print_defects(kind, &r);
        results.workloads.insert(kind.name().to_owned(), r);
    }
    results
}

fn write_results(path: &Path, results: &Results) {
    let mut bytes = serde_json::to_vec_pretty(results).expect("results serialize");
    bytes.push(b'\n');
    match std::fs::write(path, bytes) {
        Ok(()) => println!("[results written to {}]", path.display()),
        Err(e) => println!("[could not write {}: {e}]", path.display()),
    }
}

/// Prints each end-to-end metric's change from `old` to `new` with its
/// bound and verdict; returns whether anything regressed.
pub fn compare(old: &Results, new: &Results) -> bool {
    println!(
        "{:<14} {:<13} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "baseline", "new", "change", "bound"
    );
    let mut regressed = false;
    for kind in workloads::ALL {
        let (Some(o), Some(n)) = (
            old.workloads.get(kind.name()),
            new.workloads.get(kind.name()),
        ) else {
            println!("{:<14} missing from one of the files", kind.name());
            continue;
        };
        for m in &END_TO_END {
            let (Some(os), Some(ns)) = (o.end_to_end.get(m.name), n.end_to_end.get(m.name)) else {
                continue;
            };
            let verdict = classify(os, ns, m.bound, m.better);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{:<14} {:<13} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}%  {}",
                kind.name(),
                m.name,
                os.value,
                ns.value,
                gain(os.value, ns.value, m.better) * 100.0,
                m.bound * 100.0,
                verdict.label()
            );
        }
        // Counts must repeat exactly: same seed, same units, same
        // fingerprints, as far as both runs got.
        if old.seed == new.seed {
            let shared = o.fingerprints.len().min(n.fingerprints.len());
            if o.fingerprints[..shared] != n.fingerprints[..shared] {
                regressed = true;
                println!(
                    "{:<14} fingerprints DIFFER between the two runs",
                    kind.name()
                );
            }
            for (name, old_value) in &o.per_layer {
                let exact = name.ends_with("_allocs") || name.ends_with("sleep_skipped");
                if let (true, Some(new_value)) = (exact, n.per_layer.get(name)) {
                    if old_value != new_value {
                        regressed = true;
                        println!(
                            "{:<14} {name}: {old_value} then {new_value} — an exact count moved",
                            kind.name()
                        );
                    }
                }
            }
        }
    }
    regressed
}

/// Parsed command line.
struct Args {
    child: bool,
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    baseline: Option<PathBuf>,
    check_noise: bool,
}

const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--baseline <results.json>] [--check-noise]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        child: false,
        workload: None,
        seed: 3,
        seconds: DEFAULT_SECONDS,
        trace: false,
        baseline: None,
        check_noise: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--child" => args.child = true,
            "--check-noise" => args.check_noise = true,
            "--workload" => {
                let name = value()?;
                args.workload = Some(Kind::by_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = workloads::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {name:?}; one of {known:?}")
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in 0..=600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--baseline" => args.baseline = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Entry point of both binaries; `traced` says which one this is.
/// Returns the process exit code.
pub fn main(traced_binary: bool) -> i32 {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if args.child {
        let Some(kind) = args.workload else {
            eprintln!("--child needs --workload");
            return 2;
        };
        let line = if traced_binary {
            serde_json::to_string(&traced_child_main(kind, args.seed))
        } else {
            serde_json::to_string(&child_main(kind, args.seed, args.seconds, started))
        };
        println!("{}", line.expect("child report serializes"));
        return 0;
    }
    if traced_binary {
        eprintln!("benchmark-traced is started by `benchmark --trace 1`, not by hand");
        return 2;
    }
    let machine = Machine::probe();
    print_machine(&machine);
    if let Some(kind) = args.workload {
        let r = if args.trace {
            let r = run_traced(kind, args.seed, &machine);
            print_per_layer(kind, &r);
            r
        } else {
            let r = run_untraced(kind, args.seed, args.seconds, &machine);
            print_end_to_end(kind, &r);
            r
        };
        print_defects(kind, &r);
        println!("{}", contract_line(&r, args.trace));
        return i32::from(!r.correct());
    }
    // The whole stack: every workload, untraced then traced.
    let out = env::out_dir();
    std::fs::create_dir_all(&out).expect("benchmark/out/ is creatable");
    let results = full_set(args.seed, args.seconds, &machine);
    let mut ok = results.workloads.values().all(WorkloadResult::correct);
    write_results(&out.join("results.json"), &results);
    if args.check_noise {
        println!("-- second set, same commit --");
        let second = full_set(args.seed, args.seconds, &machine);
        ok &= second.workloads.values().all(WorkloadResult::correct);
        write_results(&out.join("results-second.json"), &second);
        ok &= !compare(&results, &second);
    }
    if let Some(path) = &args.baseline {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str::<Results>(&t).map_err(|e| format!("{e:?}")));
        match baseline {
            Ok(baseline) => ok &= !compare(&baseline, &results),
            Err(e) => {
                eprintln!("--baseline {}: {e}", path.display());
                ok = false;
            }
        }
    }
    println!(
        "{}",
        if ok {
            "ALL CHECKS PASSED"
        } else {
            "SOME CHECK FAILED"
        }
    );
    i32::from(!ok)
}
