//! The long-run soak harness behind `msgorder soak`: episode after
//! episode of simulated traffic under rotating fault schedules, with
//! bounded-memory metrics streaming into a [`SharedRegistry`] and
//! liveness verdicts sampled online.
//!
//! One *episode* is one kernel run of a fixed-size workload: a fresh
//! seed and (optionally) a freshly sampled partition/crash schedule,
//! the caller's base drop/duplication rates, and a [`LiveMetrics`]
//! observer draining deltas into the shared registry — no trace is
//! retained, so hours of episodes hold the same memory as one. When a
//! spec is configured, an [`OnlineMonitor::halting`] rides along and a
//! violating episode is counted (and ends at the detection, exactly as
//! `simulate --online` does). Every episode's liveness verdict feeds the
//! per-blame-class stuck counters — the "periodic online liveness
//! sampling" the ROADMAP asks the soak to prove.
//!
//! The whole run is deterministic *given the wall clock*: episode `i`
//! of seed `s` always runs the same scenario; only how many episodes
//! fit in the duration varies between hosts.

use crate::chaos::{sample_adversarial_faults, sample_schedule_faults, SplitMix64};
use crate::registry::{names, Scope, SharedRegistry};
use crate::{LiveMetrics, TraceError};
use msgorder_protocols::OnlineMonitor;
use msgorder_simnet::{FaultModel, LatencyModel, SimConfig, Simulation, Workload};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Parameters of a soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Wall-clock budget: the episode loop stops at the first episode
    /// boundary past this.
    pub duration: Duration,
    /// Protocol registry name (as `msgorder simulate --protocol`).
    pub protocol: String,
    /// Whether to run the ack/retransmission layer under the protocol.
    pub reliable: bool,
    /// Processes per episode.
    pub processes: usize,
    /// User messages injected per episode.
    pub messages_per_episode: usize,
    /// Master seed; every episode's scenario derives from it.
    pub seed: u64,
    /// Base per-frame drop probability, applied every episode.
    pub drop: f64,
    /// Base per-frame duplication probability, applied every episode.
    pub duplication: f64,
    /// Rotate fault schedules: sample a fresh partition and/or crash
    /// window per episode (on top of the base drop/duplication rates).
    pub rotate_faults: bool,
    /// Additionally sample adversarial wire faults (corruption,
    /// forgery, stale replay, reordering) per episode.
    pub adversarial: bool,
    /// Spec to monitor online (catalog name), if any.
    pub spec: Option<String>,
    /// Kernel step limit per episode.
    pub step_limit: usize,
    /// Channel latency model.
    pub latency: LatencyModel,
    /// Hard cap on episodes (tests and smoke runs); `None` = until the
    /// duration elapses.
    pub max_episodes: Option<u64>,
}

impl SoakConfig {
    /// A soak of `duration` with the defaults the CLI advertises:
    /// causal protocol over 4 processes, 256 messages per episode,
    /// rotating fault schedules, no base loss.
    pub fn new(duration: Duration) -> SoakConfig {
        SoakConfig {
            duration,
            protocol: "causal-rst".into(),
            reliable: false,
            processes: 4,
            messages_per_episode: 256,
            seed: 0xC0FFEE,
            drop: 0.0,
            duplication: 0.0,
            rotate_faults: true,
            adversarial: false,
            spec: None,
            step_limit: 1_000_000,
            latency: LatencyModel::Uniform { lo: 1, hi: 100 },
            max_episodes: None,
        }
    }
}

/// The machine-readable end-of-run report `msgorder soak` prints.
#[derive(Debug, Clone, Serialize)]
pub struct SoakReport {
    /// Episodes completed.
    pub episodes: u64,
    /// User messages injected.
    pub messages: u64,
    /// Messages delivered.
    pub deliveries: u64,
    /// Messages abandoned (terminal eviction — never delivered).
    pub abandoned: u64,
    /// Episodes where the online monitor flagged a spec violation.
    pub spec_violations: u64,
    /// Episodes that ended in a structured protocol bug.
    pub protocol_bugs: u64,
    /// Episodes that hit the kernel step limit.
    pub step_limited: u64,
    /// Episodes whose liveness verdict reported stuck messages.
    pub nonlive_episodes: u64,
    /// Total stuck messages across all sampled verdicts.
    pub stuck_messages: u64,
    /// Wall-clock seconds the soak ran.
    pub wall_seconds: f64,
    /// Delivery throughput over the whole soak.
    pub deliveries_per_sec: f64,
    /// Resident set size after the first episode (Linux; `None`
    /// elsewhere) — the warmed-up memory baseline.
    pub rss_after_warmup_kb: Option<u64>,
    /// Resident set size after the last episode.
    pub rss_end_kb: Option<u64>,
    /// Blame class of the first non-live episode, when one occurred.
    pub first_stuck_class: Option<String>,
}

impl SoakReport {
    /// RSS growth from the warmed-up baseline to the end, in KiB
    /// (`None` off Linux or when either sample is missing; never
    /// negative — shrinkage reads as zero growth).
    pub fn rss_growth_kb(&self) -> Option<u64> {
        match (self.rss_after_warmup_kb, self.rss_end_kb) {
            (Some(start), Some(end)) => Some(end.saturating_sub(start)),
            _ => None,
        }
    }
}

/// Current resident set size in KiB, from `/proc/self/status` (Linux
/// only; `None` where the file or field is missing).
pub fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs the soak loop until `config.duration` elapses (or
/// `max_episodes` is hit), streaming metrics into `registry` (whose
/// [`Scope::Soak`] families it declares up front) and returning the
/// end-of-run report.
///
/// # Errors
/// Configuration errors only — unknown protocol or spec, invalid fault
/// probabilities, fewer than 2 processes. Episode-level failures
/// (protocol bugs, step limits, non-live verdicts) are *counted*, not
/// raised: surviving them is what a soak is for.
pub fn run_soak(config: &SoakConfig, registry: &SharedRegistry) -> Result<SoakReport, TraceError> {
    if config.processes < 2 {
        return Err(TraceError::Internal(
            "soak needs at least 2 processes".into(),
        ));
    }
    let base_faults = FaultModel::none()
        .with_drop(config.drop)
        .and_then(|f| f.with_duplication(config.duplication))
        .map_err(|e| TraceError::Internal(format!("invalid fault probability: {e}")))?;
    // Resolve protocol and spec once, up front, so a typo fails fast
    // instead of after an hour of silence.
    let spec = config.spec.as_deref().map(crate::parse_spec).transpose()?;
    let kind = crate::resolve_protocol(&config.protocol, spec.as_ref())?;
    // A scrape taken mid-run already shows every family the final one has.
    registry.with(|reg| reg.declare(Scope::Soak));

    let started = Instant::now();
    let mut rng = SplitMix64(config.seed);
    let mut report = SoakReport {
        episodes: 0,
        messages: 0,
        deliveries: 0,
        abandoned: 0,
        spec_violations: 0,
        protocol_bugs: 0,
        step_limited: 0,
        nonlive_episodes: 0,
        stuck_messages: 0,
        wall_seconds: 0.0,
        deliveries_per_sec: 0.0,
        rss_after_warmup_kb: None,
        rss_end_kb: None,
        first_stuck_class: None,
    };

    loop {
        if started.elapsed() >= config.duration && report.episodes > 0 {
            break;
        }
        if config
            .max_episodes
            .is_some_and(|cap| report.episodes >= cap)
        {
            break;
        }
        let episode_seed = rng.next();
        let mut faults = if config.rotate_faults {
            sample_schedule_faults(&mut rng, config.processes, base_faults.clone(), 0.4, 0.4)
        } else {
            base_faults.clone()
        };
        if config.adversarial {
            faults = sample_adversarial_faults(&mut rng, faults)?;
        }
        let workload =
            Workload::uniform_random(config.processes, config.messages_per_episode, episode_seed);
        let n = config.processes;
        let reliable = config.reliable;
        let sim_config =
            SimConfig::new(n, config.latency, episode_seed).with_faults(faults.clone());
        let sim = Simulation::new(sim_config, workload, |node| {
            kind.instantiate_with(n, node, reliable)
        })
        .with_step_limit(config.step_limit);

        let before = registry.with(|reg| {
            (
                reg.counter(names::DELIVERIES, &[]),
                reg.counter(names::ABANDONED, &[]),
            )
        });
        let mut live =
            LiveMetrics::new(registry.clone()).with_terminal_eviction(config.reliable, &faults);
        let outcome = match &spec {
            Some(pred) => {
                let mut monitor = OnlineMonitor::halting(pred);
                let outcome = {
                    let mut fan = crate::Fanout(vec![&mut live, &mut monitor]);
                    sim.run_streaming(&mut fan)
                };
                if monitor.violated() {
                    report.spec_violations += 1;
                    registry.with(|reg| reg.add_counter(names::SOAK_VIOLATIONS, &[], 1));
                }
                outcome
            }
            None => sim.run_streaming(&mut live),
        };
        live.finish();
        let after = registry.with(|reg| {
            (
                reg.counter(names::DELIVERIES, &[]),
                reg.counter(names::ABANDONED, &[]),
            )
        });
        report.deliveries += after.0 - before.0;
        report.abandoned += after.1 - before.1;
        report.episodes += 1;
        report.messages += config.messages_per_episode as u64;

        let verdict = match &outcome {
            Ok(sr) => sr.liveness.as_ref(),
            Err(e) => {
                if e.kind.discriminant_name() == "step-limit" {
                    report.step_limited += 1;
                } else {
                    report.protocol_bugs += 1;
                    registry.with(|reg| reg.add_counter(names::SOAK_PROTOCOL_BUGS, &[], 1));
                }
                e.kind.liveness()
            }
        };
        if let Some(v) = verdict {
            if v.stuck_count() > 0 {
                report.nonlive_episodes += 1;
                report.stuck_messages += v.stuck_count() as u64;
                let classes = v.classes();
                if report.first_stuck_class.is_none() {
                    report.first_stuck_class = classes.first().cloned();
                }
                registry.with(|reg| {
                    reg.add_counter(names::SOAK_NONLIVE, &[], 1);
                    for class in &classes {
                        reg.add_counter(names::SOAK_STUCK, &[("class", class)], 1);
                    }
                });
            }
        }

        registry.with(|reg| {
            reg.add_counter(names::SOAK_EPISODES, &[], 1);
            reg.add_counter(
                names::SOAK_MESSAGES,
                &[],
                config.messages_per_episode as u64,
            );
            reg.set_gauge(names::SOAK_UPTIME, &[], started.elapsed().as_secs_f64());
        });
        if report.episodes == 1 {
            report.rss_after_warmup_kb = rss_kb();
        }
    }

    report.rss_end_kb = rss_kb();
    report.wall_seconds = started.elapsed().as_secs_f64();
    report.deliveries_per_sec = if report.wall_seconds > 0.0 {
        report.deliveries as f64 / report.wall_seconds
    } else {
        0.0
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_smoke_counts_episodes_and_streams_metrics() {
        let registry = SharedRegistry::new();
        let mut config = SoakConfig::new(Duration::from_millis(50));
        config.messages_per_episode = 16;
        config.processes = 3;
        config.drop = 0.05;
        config.spec = Some("causal".into());
        let report = run_soak(&config, &registry).expect("valid config");
        assert!(report.episodes >= 1);
        assert_eq!(report.messages, report.episodes * 16);
        assert!(report.deliveries > 0, "something must deliver");
        let episodes = registry.with(|reg| reg.counter(names::SOAK_EPISODES, &[]));
        assert_eq!(episodes, report.episodes);
        let deliveries = registry.with(|reg| reg.counter(names::DELIVERIES, &[]));
        assert_eq!(deliveries, report.deliveries);
        let text = registry.encode();
        let samples = crate::registry::parse_samples(&text).expect("own encoding parses");
        assert!(samples.contains_key(names::SOAK_EPISODES), "{text}");
    }

    #[test]
    fn soak_is_deterministic_per_episode() {
        // Same seed, same episode cap: identical delivery/abandon
        // counts regardless of wall clock.
        let run = |cap: u64| {
            let registry = SharedRegistry::new();
            let mut config = SoakConfig::new(Duration::from_secs(3600));
            config.messages_per_episode = 12;
            config.processes = 3;
            config.drop = 0.1;
            config.max_episodes = Some(cap);
            let report = run_soak(&config, &registry).expect("valid config");
            (report.deliveries, report.abandoned, report.episodes)
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a, b);
        assert_eq!(a.2, 3);
    }

    #[test]
    fn soak_rejects_unknown_protocol() {
        let registry = SharedRegistry::new();
        let mut config = SoakConfig::new(Duration::from_millis(1));
        config.protocol = "no-such-protocol".into();
        assert!(run_soak(&config, &registry).is_err());
    }
}
