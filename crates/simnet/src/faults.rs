//! Network fault models: message loss, duplication, partitions, crashes.
//!
//! The paper's protocol classes (§3.2) are defined over asynchronous
//! non-FIFO networks; a [`FaultModel`] makes the channel *adversarial*
//! rather than merely reordering. All fault decisions are sampled from a
//! dedicated RNG stream seeded from the simulation seed, so faulty runs
//! are exactly reproducible — and so that a quiet fault model (all
//! probabilities zero, no schedules) leaves the kernel's main RNG stream
//! untouched and every simulation bit-identical to the fault-free
//! kernel.

use serde::{Deserialize, Serialize};

/// A structured rejection of an ill-formed fault configuration —
/// surfaced at the API boundary instead of a CLI-only check or a panic
/// deep inside the kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultConfigError {
    /// A probability was NaN or outside `[0, 1]`.
    InvalidProbability {
        /// Which knob: `"drop"`, `"duplication"`, `"corruption"`,
        /// `"forgery"`, `"stale-replay"`, or `"reordering"`.
        knob: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A partition references a process outside `0..processes`, or
    /// partitions itself, or has an empty window (`until <= from`).
    InvalidPartition(Partition),
    /// A crash schedule references a process outside `0..processes` or
    /// restarts at (or before) the crash tick.
    InvalidCrash(CrashSchedule),
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultConfigError::InvalidProbability { knob, value } => {
                write!(f, "{knob} probability {value} not in [0, 1]")
            }
            FaultConfigError::InvalidPartition(p) => write!(
                f,
                "invalid partition P{}<->P{} over [{}, {}): endpoints must be distinct \
                 in-range processes and the window non-empty",
                p.a, p.b, p.from, p.until
            ),
            FaultConfigError::InvalidCrash(c) => write!(
                f,
                "invalid crash of P{} at t={}{}: process must be in range and any \
                 restart strictly after the crash",
                c.process,
                c.at,
                match c.restart {
                    Some(r) => format!(" (restart t={r})"),
                    None => String::new(),
                }
            ),
        }
    }
}

impl std::error::Error for FaultConfigError {}

/// A symmetric link partition: frames between processes `a` and `b`
/// (either direction) are dropped while `from <= now < until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// One endpoint.
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// First tick at which the link is down (inclusive).
    pub from: u64,
    /// First tick at which the link is healed (exclusive).
    pub until: u64,
}

/// A process crash window: the process is down from `at` until `restart`
/// (or forever if `restart` is `None`). While down, arriving frames are
/// lost and the process executes nothing; timers and send requests that
/// come due are deferred to the restart tick (or dropped on a permanent
/// crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashSchedule {
    /// The crashing process.
    pub process: usize,
    /// First tick at which the process is down (inclusive).
    pub at: u64,
    /// Tick at which it restarts (exclusive end of the down window), or
    /// `None` for a permanent crash.
    pub restart: Option<u64>,
}

/// Adversarial (byzantine-flavored) wire faults layered on top of the
/// benign loss/duplication model: the channel does not merely lose or
/// delay frames, it actively mutates, forges, and replays them.
///
/// All knobs are per-frame probabilities in `[0, 1]`; a quiet model
/// (all zero, the default) draws nothing from the fault RNG stream, so
/// runs stay bit-identical to the pre-adversarial kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AdversarialModel {
    /// Per-frame payload-corruption probability: a seeded single-bit
    /// flip in the frame's tag/control payload (lengths are preserved).
    pub corrupt: f64,
    /// Per-control-frame forgery probability: an extra, mutated copy of
    /// the frame is synthesized and delivered alongside the original.
    pub forge: f64,
    /// Per-frame stale-replay probability: a byte-exact copy of the
    /// frame is re-delivered far in the future — across crash/restart
    /// epochs when the schedule has them.
    pub replay_stale: f64,
    /// Per-frame reordering-burst probability: the frame's latency is
    /// inflated by an extra independently sampled burst, forcing deep
    /// reordering against its channel peers.
    pub reorder: f64,
}

impl AdversarialModel {
    /// `true` if no adversarial knob can ever fire.
    pub fn is_quiet(&self) -> bool {
        self.corrupt == 0.0 && self.forge == 0.0 && self.replay_stale == 0.0 && self.reorder == 0.0
    }

    /// Validates every knob as a probability.
    ///
    /// # Errors
    /// The first offending knob, by name.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        for (knob, value) in [
            ("corruption", self.corrupt),
            ("forgery", self.forge),
            ("stale-replay", self.replay_stale),
            ("reordering", self.reorder),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(FaultConfigError::InvalidProbability { knob, value });
            }
        }
        Ok(())
    }
}

/// What the network does to frames beyond delaying them.
///
/// The default model is *quiet*: no loss, no duplication, no partitions,
/// no crashes — the kernel behaves exactly as it would without any fault
/// layer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Per-frame drop probability in `[0, 1]`, applied to every user and
    /// control frame independently.
    pub drop: f64,
    /// Per-frame duplication probability in `[0, 1]`: with this
    /// probability a second copy of the frame is scheduled with an
    /// independent latency.
    pub duplicate: f64,
    /// Timed link partitions.
    pub partitions: Vec<Partition>,
    /// Process crash/restart schedules.
    pub crashes: Vec<CrashSchedule>,
    /// Adversarial wire faults (corruption, forgery, stale replay,
    /// reordering bursts).
    pub adversarial: AdversarialModel,
}

impl FaultModel {
    /// The quiet model: a perfect wire.
    pub fn none() -> Self {
        FaultModel::default()
    }

    /// Sets the per-frame drop probability.
    ///
    /// # Errors
    /// Rejects NaN and anything outside `[0, 1]` with a structured
    /// [`FaultConfigError`] (NaN fails the range check too — it compares
    /// false to everything).
    pub fn with_drop(mut self, p: f64) -> Result<Self, FaultConfigError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(FaultConfigError::InvalidProbability {
                knob: "drop",
                value: p,
            });
        }
        self.drop = p;
        Ok(self)
    }

    /// Sets the per-frame duplication probability.
    ///
    /// # Errors
    /// Rejects NaN and anything outside `[0, 1]` with a structured
    /// [`FaultConfigError`].
    pub fn with_duplication(mut self, p: f64) -> Result<Self, FaultConfigError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(FaultConfigError::InvalidProbability {
                knob: "duplication",
                value: p,
            });
        }
        self.duplicate = p;
        Ok(self)
    }

    /// Sets the per-frame payload-corruption probability.
    ///
    /// # Errors
    /// Rejects NaN and anything outside `[0, 1]` with a structured
    /// [`FaultConfigError`].
    pub fn with_corruption(mut self, p: f64) -> Result<Self, FaultConfigError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(FaultConfigError::InvalidProbability {
                knob: "corruption",
                value: p,
            });
        }
        self.adversarial.corrupt = p;
        Ok(self)
    }

    /// Sets the per-control-frame forgery probability.
    ///
    /// # Errors
    /// Rejects NaN and anything outside `[0, 1]` with a structured
    /// [`FaultConfigError`].
    pub fn with_forgery(mut self, p: f64) -> Result<Self, FaultConfigError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(FaultConfigError::InvalidProbability {
                knob: "forgery",
                value: p,
            });
        }
        self.adversarial.forge = p;
        Ok(self)
    }

    /// Sets the per-frame stale-replay probability.
    ///
    /// # Errors
    /// Rejects NaN and anything outside `[0, 1]` with a structured
    /// [`FaultConfigError`].
    pub fn with_stale_replay(mut self, p: f64) -> Result<Self, FaultConfigError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(FaultConfigError::InvalidProbability {
                knob: "stale-replay",
                value: p,
            });
        }
        self.adversarial.replay_stale = p;
        Ok(self)
    }

    /// Sets the per-frame reordering-burst probability.
    ///
    /// # Errors
    /// Rejects NaN and anything outside `[0, 1]` with a structured
    /// [`FaultConfigError`].
    pub fn with_reordering(mut self, p: f64) -> Result<Self, FaultConfigError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(FaultConfigError::InvalidProbability {
                knob: "reordering",
                value: p,
            });
        }
        self.adversarial.reorder = p;
        Ok(self)
    }

    /// Adds a symmetric partition between `a` and `b` over `[from, until)`.
    pub fn with_partition(mut self, a: usize, b: usize, from: u64, until: u64) -> Self {
        self.partitions.push(Partition { a, b, from, until });
        self
    }

    /// Adds a crash of `process` at tick `at`, restarting at `restart`
    /// (or never, if `None`).
    pub fn with_crash(mut self, process: usize, at: u64, restart: Option<u64>) -> Self {
        self.crashes.push(CrashSchedule {
            process,
            at,
            restart,
        });
        self
    }

    /// Checks the schedules against a concrete process count: partition
    /// endpoints and crash targets must exist, partition windows must be
    /// non-empty, crashes must restart strictly after they happen. The
    /// builder-validated probabilities (benign *and* adversarial) are
    /// rechecked too, since the fields are public and a deserialized
    /// model never went through the builders.
    ///
    /// # Errors
    /// The first offending knob, [`Partition`], or [`CrashSchedule`].
    pub fn validate_for(&self, processes: usize) -> Result<(), FaultConfigError> {
        for (knob, value) in [("drop", self.drop), ("duplication", self.duplicate)] {
            if !(0.0..=1.0).contains(&value) {
                return Err(FaultConfigError::InvalidProbability { knob, value });
            }
        }
        self.adversarial.validate()?;
        for p in &self.partitions {
            if p.a >= processes || p.b >= processes || p.a == p.b || p.until <= p.from {
                return Err(FaultConfigError::InvalidPartition(*p));
            }
        }
        for c in &self.crashes {
            let bad_restart = matches!(c.restart, Some(r) if r <= c.at);
            if c.process >= processes || bad_restart {
                return Err(FaultConfigError::InvalidCrash(*c));
            }
        }
        Ok(())
    }

    /// `true` if this model can never perturb a run: the kernel takes
    /// the exact pre-fault code path.
    pub fn is_quiet(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.partitions.is_empty()
            && self.crashes.is_empty()
            && self.adversarial.is_quiet()
    }

    /// Is the `from -> to` link severed by a partition at time `t`?
    pub fn link_blocked(&self, from: usize, to: usize, t: u64) -> bool {
        self.partitions.iter().any(|p| {
            ((p.a == from && p.b == to) || (p.a == to && p.b == from)) && t >= p.from && t < p.until
        })
    }

    /// Is `process` down at time `t`? Returns `Some(restart)` with the
    /// scheduled restart tick (`None` inside means a permanent crash),
    /// or `None` if the process is up.
    pub fn down_until(&self, process: usize, t: u64) -> Option<Option<u64>> {
        self.crashes
            .iter()
            .filter(|c| c.process == process && t >= c.at)
            .find(|c| match c.restart {
                None => true,
                Some(r) => t < r,
            })
            .map(|c| c.restart)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quiet() {
        assert!(FaultModel::none().is_quiet());
        assert!(FaultModel::default().is_quiet());
    }

    #[test]
    fn builders_mark_model_noisy() {
        assert!(!FaultModel::none().with_drop(0.1).unwrap().is_quiet());
        assert!(!FaultModel::none().with_duplication(0.1).unwrap().is_quiet());
        assert!(!FaultModel::none().with_partition(0, 1, 5, 10).is_quiet());
        assert!(!FaultModel::none().with_crash(2, 100, None).is_quiet());
        // Zero probabilities alone stay quiet.
        assert!(FaultModel::none()
            .with_drop(0.0)
            .unwrap()
            .with_duplication(0.0)
            .unwrap()
            .is_quiet());
    }

    #[test]
    fn probabilities_rejected_with_structured_errors() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let e = FaultModel::none().with_drop(bad).unwrap_err();
            match e {
                FaultConfigError::InvalidProbability { knob, value } => {
                    assert_eq!(knob, "drop");
                    assert!(value.is_nan() == bad.is_nan() && (value.is_nan() || value == bad));
                }
                other => panic!("wrong error: {other:?}"),
            }
            let e = FaultModel::none().with_duplication(bad).unwrap_err();
            assert!(
                matches!(
                    e,
                    FaultConfigError::InvalidProbability {
                        knob: "duplication",
                        ..
                    }
                ),
                "{e:?}"
            );
            assert!(e.to_string().contains("not in [0, 1]"), "{e}");
        }
        // Boundary values are accepted.
        assert!(FaultModel::none().with_drop(0.0).is_ok());
        assert!(FaultModel::none().with_drop(1.0).is_ok());
        assert!(FaultModel::none().with_duplication(1.0).is_ok());
    }

    #[test]
    fn schedules_validated_against_process_count() {
        assert!(FaultModel::none()
            .with_partition(0, 1, 5, 10)
            .with_crash(2, 100, Some(200))
            .validate_for(3)
            .is_ok());
        // Endpoint out of range.
        let e = FaultModel::none()
            .with_partition(0, 3, 5, 10)
            .validate_for(3)
            .unwrap_err();
        assert!(matches!(e, FaultConfigError::InvalidPartition(_)), "{e:?}");
        // Self-partition and empty window.
        assert!(FaultModel::none()
            .with_partition(1, 1, 5, 10)
            .validate_for(3)
            .is_err());
        assert!(FaultModel::none()
            .with_partition(0, 1, 10, 10)
            .validate_for(3)
            .is_err());
        // Crash target out of range; restart not after crash.
        let e = FaultModel::none()
            .with_crash(5, 10, None)
            .validate_for(3)
            .unwrap_err();
        assert!(matches!(e, FaultConfigError::InvalidCrash(_)), "{e:?}");
        assert!(FaultModel::none()
            .with_crash(0, 10, Some(10))
            .validate_for(3)
            .is_err());
        assert!(FaultModel::none()
            .with_crash(0, 10, Some(11))
            .validate_for(3)
            .is_ok());
    }

    #[test]
    fn adversarial_builders_mark_model_noisy() {
        assert!(!FaultModel::none().with_corruption(0.1).unwrap().is_quiet());
        assert!(!FaultModel::none().with_forgery(0.1).unwrap().is_quiet());
        assert!(!FaultModel::none()
            .with_stale_replay(0.1)
            .unwrap()
            .is_quiet());
        assert!(!FaultModel::none().with_reordering(0.1).unwrap().is_quiet());
        // All-zero adversarial knobs keep the whole model quiet.
        assert!(FaultModel::none()
            .with_corruption(0.0)
            .unwrap()
            .with_forgery(0.0)
            .unwrap()
            .with_stale_replay(0.0)
            .unwrap()
            .with_reordering(0.0)
            .unwrap()
            .is_quiet());
    }

    #[test]
    fn adversarial_probabilities_rejected_with_knob_names() {
        for (knob, build) in [
            (
                "corruption",
                (|p| FaultModel::none().with_corruption(p)) as fn(f64) -> _,
            ),
            ("forgery", |p| FaultModel::none().with_forgery(p)),
            ("stale-replay", |p| FaultModel::none().with_stale_replay(p)),
            ("reordering", |p| FaultModel::none().with_reordering(p)),
        ] {
            for bad in [-0.1, 1.5, f64::NAN] {
                let e = build(bad).unwrap_err();
                assert!(
                    matches!(e, FaultConfigError::InvalidProbability { knob: k, .. } if k == knob),
                    "{knob}: {e:?}"
                );
            }
            assert!(build(0.0).is_ok());
            assert!(build(1.0).is_ok());
        }
    }

    #[test]
    fn validate_for_rechecks_probabilities() {
        // Fields are public: an out-of-range knob set directly (or via a
        // crafted trace) must be caught at validation time.
        let mut f = FaultModel::none();
        f.adversarial.forge = 2.0;
        let e = f.validate_for(3).unwrap_err();
        assert!(
            matches!(
                e,
                FaultConfigError::InvalidProbability {
                    knob: "forgery",
                    ..
                }
            ),
            "{e:?}"
        );
        let mut f = FaultModel::none();
        f.drop = -1.0;
        assert!(f.validate_for(3).is_err());
    }

    #[test]
    fn noisy_adversarial_round_trips() {
        let noisy = FaultModel::none()
            .with_corruption(0.25)
            .unwrap()
            .with_stale_replay(0.1)
            .unwrap()
            .with_crash(1, 100, Some(500));
        let quiet = FaultModel::none().with_drop(0.15).unwrap();
        for model in [noisy, quiet] {
            let json = serde_json::to_string(&model).unwrap();
            assert!(json.contains("\"adversarial\":{"), "{json}");
            let back: FaultModel = serde_json::from_str(&json).unwrap();
            assert_eq!(back, model);
        }
    }

    #[test]
    fn partitions_are_symmetric_and_windowed() {
        let f = FaultModel::none().with_partition(0, 2, 10, 20);
        assert!(f.link_blocked(0, 2, 10));
        assert!(f.link_blocked(2, 0, 19));
        assert!(!f.link_blocked(0, 2, 9), "before the window");
        assert!(!f.link_blocked(0, 2, 20), "until is exclusive");
        assert!(!f.link_blocked(0, 1, 15), "unrelated link");
    }

    #[test]
    fn crash_windows() {
        let f = FaultModel::none()
            .with_crash(1, 10, Some(20))
            .with_crash(2, 5, None);
        assert_eq!(f.down_until(1, 9), None, "before crash");
        assert_eq!(f.down_until(1, 10), Some(Some(20)));
        assert_eq!(f.down_until(1, 19), Some(Some(20)));
        assert_eq!(f.down_until(1, 20), None, "restarted");
        assert_eq!(f.down_until(2, 5), Some(None), "permanent");
        assert_eq!(f.down_until(2, 1_000_000), Some(None));
        assert_eq!(f.down_until(0, 50), None, "other processes unaffected");
    }
}
