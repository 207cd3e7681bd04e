//! Chaos sweep: seeded randomized search over protocol × fault model ×
//! workload, funneling every violation through the counterexample
//! shrinker.
//!
//! Each trial derives its own seed from the sweep seed (SplitMix64, so
//! trial `i` of sweep seed `s` is reproducible in isolation), samples a
//! small scenario — protocol, process count, workload, drop/duplication
//! probabilities, an optional partition, an optional crash — records
//! one run, and triages the outcome into a
//! [`crate::shrink::VerdictClass`]. Findings are
//! deduplicated by `(protocol, fault family, verdict class)` so the
//! report is a table of *distinct* failure modes, each carried by its
//! minimal (shrunk) reproducer rather than the raw noisy trace that
//! first exposed it. The fault family separates schedule-level faults
//! (loss, duplication, partitions, crashes) from adversarial wire
//! faults (corruption, forgery, stale replay, reordering) — the same
//! verdict class under the two regimes is two different failure modes,
//! and before the family joined the key an `--adversarial` sweep would
//! silently swallow whichever regime lost the race.
//!
//! The sweep is fully deterministic: no wall clock, no global RNG —
//! same [`ChaosConfig`], same findings.

use crate::shrink::{self, ShrinkReport, VerdictClass};
use crate::{record, Setup, Trace, TraceError};
use msgorder_protocols::{verify_exhaustive, ProtocolKind};
use msgorder_simnet::{DedupMode, ExploreOptions, FaultModel, LatencyModel, Workload};

/// SplitMix64 — the trace crate carries no RNG dependency, and the
/// sweep (and the soak harness's rotating fault schedules) only need a
/// fast, well-mixed deterministic stream.
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]` (inclusive).
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// True with probability `p`.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        (self.next() >> 11) as f64 / ((1u64 << 53) as f64) < p
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[(self.next() % xs.len() as u64) as usize]
    }
}

/// Extends `faults` with a randomly drawn partition (probability
/// `p_partition`) and crash schedule (probability `p_crash`) — the
/// timed-schedule half of fault sampling, shared between the chaos
/// sweep and `msgorder soak`'s per-episode rotation. Requires
/// `processes >= 2`.
pub(crate) fn sample_schedule_faults(
    rng: &mut SplitMix64,
    processes: usize,
    mut faults: FaultModel,
    p_partition: f64,
    p_crash: f64,
) -> FaultModel {
    if rng.chance(p_partition) {
        let a = rng.range(0, processes as u64 - 1) as usize;
        let b = (a + 1 + rng.range(0, processes as u64 - 2) as usize) % processes;
        let from = rng.range(0, 500);
        faults = faults.with_partition(a, b, from, from + rng.range(100, 4000));
    }
    if rng.chance(p_crash) {
        let at = rng.range(1, 800);
        let restart = if rng.chance(0.5) {
            Some(at + rng.range(100, 3000))
        } else {
            None // permanent crash
        };
        faults = faults.with_crash(rng.range(0, processes as u64 - 1) as usize, at, restart);
    }
    faults
}

/// Extends `faults` with randomly drawn adversarial wire knobs —
/// corruption, forgery, stale replay, reordering — each present with
/// its own probability and drawn from a modest range, so a typical
/// adversarial scenario mixes two of the four. Shared between the chaos
/// sweep and `msgorder soak --adversarial`.
pub(crate) fn sample_adversarial_faults(
    rng: &mut SplitMix64,
    mut faults: FaultModel,
) -> Result<FaultModel, TraceError> {
    let err = |what: &str, e| TraceError::Internal(format!("sampled {what} rate rejected: {e}"));
    if rng.chance(0.5) {
        let p = rng.range(5, 25) as f64 / 100.0;
        faults = faults
            .with_corruption(p)
            .map_err(|e| err("corruption", e))?;
    }
    if rng.chance(0.5) {
        let p = rng.range(5, 25) as f64 / 100.0;
        faults = faults.with_forgery(p).map_err(|e| err("forgery", e))?;
    }
    if rng.chance(0.4) {
        let p = rng.range(5, 20) as f64 / 100.0;
        faults = faults
            .with_stale_replay(p)
            .map_err(|e| err("stale-replay", e))?;
    }
    if rng.chance(0.4) {
        let p = rng.range(10, 40) as f64 / 100.0;
        faults = faults
            .with_reordering(p)
            .map_err(|e| err("reordering", e))?;
    }
    Ok(faults)
}

/// Parameters of a chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of trials to run.
    pub trials: usize,
    /// Sweep seed; every trial's scenario and kernel seed derive from
    /// it.
    pub seed: u64,
    /// Protocols to sample from (registry names). Empty = the full
    /// fixed-membership registry.
    pub protocols: Vec<String>,
    /// Kernel step limit per trial — deliberately small so livelocks
    /// trip fast.
    pub step_limit: usize,
    /// Whether to shrink each finding to a minimal reproducer.
    pub shrink: bool,
    /// Whether to cross-check each spec violation against a fault-free
    /// *exhaustive* exploration of the same scenario, deciding whether
    /// the ordering violation is inherent to the protocol or an
    /// artifact of the injected faults.
    pub confirm: bool,
    /// Whether trials may additionally sample adversarial wire faults
    /// (payload corruption, control forgery, stale replay, reordering
    /// bursts) on top of the schedule-level fault model.
    pub adversarial: bool,
}

impl ChaosConfig {
    /// A sweep of `trials` trials from `seed` over the whole registry,
    /// with shrinking on and a 200k-step budget.
    pub fn new(trials: usize, seed: u64) -> ChaosConfig {
        ChaosConfig {
            trials,
            seed,
            protocols: Vec::new(),
            step_limit: 200_000,
            shrink: true,
            confirm: false,
            adversarial: false,
        }
    }
}

/// One distinct failure mode a sweep found.
#[derive(Debug)]
pub struct ChaosFinding {
    /// Protocol the scenario ran.
    pub protocol: String,
    /// Fault family the scenario drew from: `"adversarial"` when the
    /// sampled model injects wire faults, `"schedule"` otherwise. Part
    /// of the deduplication key — the same verdict class under the two
    /// regimes is two distinct failure modes.
    pub family: &'static str,
    /// Index of the trial that first exposed this mode.
    pub trial: usize,
    /// The preserved verdict class.
    pub class: VerdictClass,
    /// The reproducer: shrunk when shrinking is on, else the raw trace.
    pub trace: Trace,
    /// The shrink accounting, when shrinking ran.
    pub shrink: Option<ShrinkReport>,
    /// Confirmation verdict, when [`ChaosConfig::confirm`] ran on a
    /// spec violation: `Some(true)` — a *fault-free* schedule of the
    /// same scenario also violates the spec (the ordering failure is
    /// inherent to the protocol); `Some(false)` — no fault-free
    /// schedule violates it (fault-induced); `None` — not checked
    /// (confirmation off, not a spec violation, the protocol is not
    /// explorable, or the capped exhaustive search was truncated).
    pub ordering_inherent: Option<bool>,
}

/// The outcome of a chaos sweep.
#[derive(Debug)]
pub struct ChaosReport {
    /// Trials executed.
    pub trials: usize,
    /// Trials whose outcome classified as a violation (before
    /// deduplication).
    pub violations: usize,
    /// Distinct failure modes, in discovery order.
    pub findings: Vec<ChaosFinding>,
}

impl ChaosReport {
    /// Renders the findings as an aligned text table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} trial(s), {} violation(s), {} distinct failure mode(s)\n",
            self.trials,
            self.violations,
            self.findings.len()
        );
        if self.findings.is_empty() {
            return out;
        }
        out.push_str(&format!(
            "{:<12} {:<11} {:>5}  {:<40} {:>7} {:>9} {:>8}\n",
            "protocol", "family", "trial", "class", "events", "shrunk-by", "inherent"
        ));
        for f in &self.findings {
            let (events, by) = match &f.shrink {
                Some(r) => (
                    r.events_after.to_string(),
                    format!("{:.0}%", r.reduction() * 100.0),
                ),
                None => (f.trace.events.len().to_string(), "-".into()),
            };
            let inherent = match f.ordering_inherent {
                Some(true) => "yes",
                Some(false) => "no",
                None => "-",
            };
            out.push_str(&format!(
                "{:<12} {:<11} {:>5}  {:<40} {:>7} {:>9} {:>8}\n",
                f.protocol,
                f.family,
                f.trial,
                f.class.to_string(),
                events,
                by,
                inherent
            ));
        }
        out
    }
}

/// Samples one trial scenario from the trial's private RNG stream.
///
/// # Errors
/// [`TraceError::Internal`] if a sampled fault probability is rejected
/// by [`FaultModel`] — impossible for the ranges drawn here, but
/// surfaced as an error so a sweep never panics.
fn sample_setup(
    rng: &mut SplitMix64,
    protocols: &[String],
    adversarial: bool,
) -> Result<Setup, TraceError> {
    let protocol = rng.pick(protocols).clone();
    // The other kinds ignore the flag; a header must not claim it.
    let retransmits =
        ProtocolKind::by_name(&protocol, None).is_some_and(|k| k.supports_retransmission());
    let processes = rng.range(2, 4) as usize;
    let messages = rng.range(4, 16) as usize;
    let workload = Workload::uniform_random(processes, messages, rng.next());
    let mut faults = FaultModel::none();
    if rng.chance(0.7) {
        faults = faults
            .with_drop(rng.range(5, 30) as f64 / 100.0)
            .map_err(|e| TraceError::Internal(format!("sampled drop rate rejected: {e}")))?;
    }
    if rng.chance(0.3) {
        faults = faults
            .with_duplication(rng.range(5, 20) as f64 / 100.0)
            .map_err(|e| TraceError::Internal(format!("sampled dup rate rejected: {e}")))?;
    }
    faults = sample_schedule_faults(rng, processes, faults, 0.4, 0.4);
    if adversarial {
        faults = sample_adversarial_faults(rng, faults)?;
    }
    let spec = match rng.range(0, 2) {
        0 => None,
        1 => Some("fifo".to_owned()),
        _ => Some("causal".to_owned()),
    };
    Ok(Setup {
        processes,
        latency: LatencyModel::Uniform {
            lo: 1,
            hi: rng.range(50, 200),
        },
        seed: rng.next(),
        faults,
        workload,
        protocol,
        reliable: rng.chance(0.6) && retransmits,
        spec,
        step_limit: 0, // filled by the sweep from the config
    })
}

/// Fault-free exhaustive cross-check of a spec-violation finding: does
/// *some* schedule of the same protocol/workload violate the spec with
/// no faults injected at all? Rides the sleep-set-reduced, deduplicated
/// explorer with a schedule cap so a single confirmation stays cheap;
/// returns `None` when the scenario cannot be checked (no spec, a
/// protocol outside the registry or one that cannot enforce the spec,
/// a workload too large, or the capped search truncated without
/// finding a violation).
pub fn confirm_ordering_inherent(setup: &Setup) -> Option<bool> {
    // Best effort: beyond ~10 messages even the reduced fault-free
    // state space dwarfs the schedule cap, so the check could only ever
    // answer "inconclusive" slowly — skip it outright.
    if setup.workload.sends.len() > 10 {
        return None;
    }
    let spec = setup.spec_predicate().ok().flatten()?;
    let kind = ProtocolKind::by_name(&setup.protocol, Some(&spec))
        .filter(|k| k.untaggable_spec().is_none())?;
    let n = setup.processes;
    let opts = ExploreOptions {
        cap: 25_000,
        por: true,
        dedup: DedupMode::Exact,
        ..ExploreOptions::default()
    };
    let out = verify_exhaustive(
        n,
        setup.workload.clone(),
        |node| kind.explorable(n, node, false),
        &spec,
        &opts,
    );
    if out.safe && out.exploration.truncated {
        return None; // inconclusive: the violation may live beyond the cap
    }
    Some(!out.safe)
}

/// Runs a chaos sweep. Deterministic in `config`; every violation is
/// triaged by verdict class, shrunk (when enabled), and deduplicated by
/// `(protocol, family, class)`.
///
/// # Errors
/// Only on internal inconsistencies (a sampled setup failing to record);
/// individual trial *violations* are findings, not errors.
pub fn sweep(config: &ChaosConfig) -> Result<ChaosReport, TraceError> {
    let protocols: Vec<String> = if config.protocols.is_empty() {
        ProtocolKind::fixed()
            .iter()
            .map(|k| k.name().to_owned())
            .collect()
    } else {
        config.protocols.clone()
    };
    let mut master = SplitMix64(config.seed);
    let mut violations = 0usize;
    let mut findings: Vec<ChaosFinding> = Vec::new();
    for trial in 0..config.trials {
        let mut rng = SplitMix64(master.next());
        let mut setup = sample_setup(&mut rng, &protocols, config.adversarial)?;
        setup.step_limit = config.step_limit;
        let family = if setup.faults.adversarial.is_quiet() {
            "schedule"
        } else {
            "adversarial"
        };
        let recorded = record(&setup)?;
        let Some(class) = shrink::classify(&recorded) else {
            continue;
        };
        violations += 1;
        if findings
            .iter()
            .any(|f| f.protocol == setup.protocol && f.family == family && f.class == class)
        {
            continue;
        }
        let (trace, report) = if config.shrink {
            match shrink::shrink(&recorded.trace) {
                Ok(sh) => (sh.trace, Some(sh.report)),
                // A finding that resists shrinking is still a finding.
                Err(_) => (recorded.trace, None),
            }
        } else {
            (recorded.trace, None)
        };
        // Confirm against the (possibly shrunk) trace's own setup: the
        // minimized workload is the scenario the finding reports, and
        // it is far more likely to fit under the confirmation gate.
        let ordering_inherent = if config.confirm && class == VerdictClass::SpecViolated {
            confirm_ordering_inherent(&trace.header.setup)
        } else {
            None
        };
        findings.push(ChaosFinding {
            protocol: setup.protocol.clone(),
            family,
            trial,
            class,
            trace,
            shrink: report,
            ordering_inherent,
        });
    }
    Ok(ChaosReport {
        trials: config.trials,
        violations,
        findings,
    })
}
