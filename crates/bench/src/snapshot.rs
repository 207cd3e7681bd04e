//! The digest-checked exploration the benchmark harness (`benchmark/`)
//! and the explorer's violation-set pins share: one timed
//! [`explore_violations`] under the async protocol — the function
//! `msgorder explore --spec` calls.

use msgorder_predicate::ForbiddenPredicate;
use msgorder_protocols::{explore_violations, AsyncProtocol};
use msgorder_runs::SystemRun;
use msgorder_simnet::{Exploration, ExploreOptions, Workload};
use std::time::Instant;

/// FNV-1a over the terminal run's user-view partial order: identical
/// for identical configurations whatever schedule produced them.
pub fn run_digest(run: &SystemRun) -> u64 {
    run.users_view().digest()
}

/// One timed, digest-checked exploration: statistics plus a commutative
/// digest of the violating configurations. Equal digests across engine
/// configurations witness that they found the same violation set.
pub struct ExploreRow {
    /// Wall-clock seconds for the whole exploration.
    pub wall_s: f64,
    /// Raw explorer statistics (schedules, states, sleep skips, ...).
    pub exploration: Exploration,
    /// Number of distinct violating terminal configurations.
    pub violating_configs: usize,
    /// Order-independent digest of the violating configuration set.
    pub digest: u64,
}

impl ExploreRow {
    /// Schedules per wall-clock second.
    pub fn schedules_per_sec(&self) -> f64 {
        self.exploration.schedules as f64 / self.wall_s
    }
}

/// Runs one exploration of `w` under the async protocol, checking
/// `spec` on every terminal configuration and folding the violating
/// ones into a set digest.
pub fn timed_explore(
    procs: usize,
    w: &Workload,
    spec: &ForbiddenPredicate,
    opts: &ExploreOptions,
) -> ExploreRow {
    let start = Instant::now();
    let found = explore_violations(procs, w.clone(), |_| AsyncProtocol::new(), spec, opts);
    let wall_s = start.elapsed().as_secs_f64();
    ExploreRow {
        wall_s,
        digest: found.digest(),
        violating_configs: found.configs.len(),
        exploration: found.exploration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_schedule_independent_but_config_sensitive() {
        use msgorder_predicate::catalog;
        // Two engine configurations over the same workload must agree on
        // the violation digest; a different workload must not.
        let spec = catalog::fifo();
        let w = Workload::uniform_random(3, 4, 3);
        let full = timed_explore(3, &w, &spec, &ExploreOptions::default());
        let por = timed_explore(
            3,
            &w,
            &spec,
            &ExploreOptions {
                por: true,
                ..ExploreOptions::default()
            },
        );
        assert_eq!(full.digest, por.digest);
        assert_eq!(full.violating_configs, por.violating_configs);
        let other = timed_explore(
            3,
            &Workload::uniform_random(3, 4, 4),
            &spec,
            &ExploreOptions::default(),
        );
        assert_ne!(full.digest, other.digest);

        // The violation sets every engine configuration must find
        // (3 processes, seed 3, async vs fifo), first recorded by the
        // explorer snapshots of PRs 6 and 8.
        for (msgs, configs, digest) in [
            (5, 74, 0x9aa7_3789_c8e1_ba4b_u64),
            (6, 384, 0xbffa_a1ce_4809_3e3c),
        ] {
            let por = timed_explore(
                3,
                &Workload::uniform_random(3, msgs, 3),
                &spec,
                &ExploreOptions {
                    por: true,
                    threads: 2,
                    ..ExploreOptions::default()
                },
            );
            assert_eq!((por.violating_configs, por.digest), (configs, digest));
        }
    }
}
