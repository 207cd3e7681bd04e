//! The eight named workloads and the inputs each generates from a seed.
//!
//! A workload is an open-ended, deterministic sequence of *units* — one
//! simulated episode, one live session, or one exhaustive exploration.
//! Unit `i` of seed `S` is a pure function of `(workload, S, i)`: the
//! same seed always yields the same inputs, and the program under test
//! only ever sees the generated [`Setup`]/[`Workload`], never the seed
//! arithmetic. A run consumes as many units as fit in its time budget;
//! every repetition of a run walks the same sequence from unit 0, so
//! per-unit fingerprints are comparable across repetitions.
//!
//! Sizes are frozen: later issues compare against numbers taken at
//! exactly these shapes (see `README.md` for why each was chosen).

use msgorder_simnet::{FaultModel, LatencyModel, SendSpec, Workload};
use msgorder_trace::Setup;

/// Processes in every simulated episode.
pub const SIM_PROCESSES: usize = 4;
/// Messages per simulated episode. Fixed because the monitor tax
/// (`sim-verify` ÷ `sim-bare`) grows with episode length.
pub const SIM_MESSAGES: usize = 2_000;
/// Processes in every live session.
pub const LIVE_PROCESSES: usize = 2;
/// Messages per live session on tagged protocols (`live-inproc`,
/// `live-unix`).
pub const LIVE_MESSAGES: usize = 5_000;
/// Messages per `live-unix-ctl` session: `sync` spends 5 dispatches per
/// message against `causal-rst`'s 2, so half the messages keep the
/// session length comparable.
pub const LIVE_CTL_MESSAGES: usize = 2_500;
/// Processes in every exploration.
pub const EXPLORE_PROCESSES: usize = 3;
/// Messages per exploration.
pub const EXPLORE_MESSAGES: usize = 7;

/// One of the eight workloads. Names are fixed; later issues refer to
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `trace::record` of a `causal-rst` episode, no spec.
    SimBare,
    /// The same episode through `protocols::run_and_verify` (online
    /// monitor, spec `causal`).
    SimVerify,
    /// The same episode the way `msgorder simulate --spec causal` runs
    /// it: post-hoc closure, limit sets, `find_instantiation`.
    SimPosthoc,
    /// `RealtimeKernel` + `InProcessHost` + `Recorder`, no socket.
    LiveInproc,
    /// `transport::serve_on_observed` over a Unix socket, tagged
    /// protocol.
    LiveUnix,
    /// The same with `sync`, a general (control-frame) protocol.
    LiveUnixCtl,
    /// Exhaustive exploration, POR on, dedup off.
    ExplorePor,
    /// Exhaustive exploration, POR on, exact dedup.
    ExploreDedup,
}

/// Every workload, in the order the full run executes them.
pub const ALL: [Kind; 8] = [
    Kind::SimBare,
    Kind::SimVerify,
    Kind::SimPosthoc,
    Kind::LiveInproc,
    Kind::LiveUnix,
    Kind::LiveUnixCtl,
    Kind::ExplorePor,
    Kind::ExploreDedup,
];

impl Kind {
    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SimBare => "sim-bare",
            Kind::SimVerify => "sim-verify",
            Kind::SimPosthoc => "sim-posthoc",
            Kind::LiveInproc => "live-inproc",
            Kind::LiveUnix => "live-unix",
            Kind::LiveUnixCtl => "live-unix-ctl",
            Kind::ExplorePor => "explore-por",
            Kind::ExploreDedup => "explore-dedup",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether units are simulated episodes.
    pub fn is_sim(self) -> bool {
        matches!(self, Kind::SimBare | Kind::SimVerify | Kind::SimPosthoc)
    }

    /// Whether units are live sessions.
    pub fn is_live(self) -> bool {
        matches!(self, Kind::LiveInproc | Kind::LiveUnix | Kind::LiveUnixCtl)
    }

    /// Whether units are explorations.
    pub fn is_explore(self) -> bool {
        matches!(self, Kind::ExplorePor | Kind::ExploreDedup)
    }

    /// The registry protocol the workload runs.
    pub fn protocol(self) -> &'static str {
        match self {
            Kind::LiveUnixCtl => "sync",
            Kind::ExplorePor | Kind::ExploreDedup => "async",
            _ => "causal-rst",
        }
    }

    /// The spec the workload checks, if it checks one.
    pub fn spec(self) -> Option<&'static str> {
        match self {
            Kind::SimVerify | Kind::SimPosthoc => Some("causal"),
            Kind::ExplorePor | Kind::ExploreDedup => Some("fifo"),
            _ => None,
        }
    }

    /// User messages one episode or session delivers, or one explored
    /// schedule.
    pub fn messages_per_unit(self) -> usize {
        match self {
            Kind::SimBare | Kind::SimVerify | Kind::SimPosthoc => SIM_MESSAGES,
            Kind::LiveInproc | Kind::LiveUnix => LIVE_MESSAGES,
            Kind::LiveUnixCtl => LIVE_CTL_MESSAGES,
            Kind::ExplorePor | Kind::ExploreDedup => EXPLORE_MESSAGES,
        }
    }
}

/// SplitMix64: decorrelates unit seeds from the run seed so that
/// neighbouring `--seed` values share no episodes.
fn mix(seed: u64, unit: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(unit.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The [`Setup`] of unit `unit` of a simulated or live workload.
///
/// # Panics
/// Panics for the exploration workloads, whose units are bare
/// [`Workload`]s (see [`explore_workload`]).
pub fn setup(kind: Kind, seed: u64, unit: u64) -> Setup {
    assert!(
        !kind.is_explore(),
        "exploration units are workloads, not setups"
    );
    let unit_seed = mix(seed, unit);
    let (processes, latency) = if kind.is_sim() {
        (SIM_PROCESSES, LatencyModel::Uniform { lo: 1, hi: 100 })
    } else {
        (LIVE_PROCESSES, LatencyModel::Fixed(1))
    };
    let messages = kind.messages_per_unit();
    Setup {
        processes,
        latency,
        seed: unit_seed,
        faults: FaultModel::none(),
        workload: Workload::uniform_random(processes, messages, unit_seed),
        protocol: kind.protocol().to_owned(),
        reliable: false,
        spec: kind.spec().map(str::to_owned),
        // 5 dispatches per message is the most any workload needs; the
        // default 1M limit would trip on nothing here, but a session
        // that livelocks should fail fast, not spin for a minute.
        step_limit: messages * 16,
    }
}

/// The fixed exploration shapes: `Workload::uniform_random(3, 7, s)` for
/// these `s`. Schedule-space size varies 7x with shape at a fixed
/// message count, so a time-to-verdict over random shapes would measure
/// the seed, not the explorer. The shapes are therefore frozen and the
/// run seed only *relabels* them (see [`explore_workload`]). Shape 0 is
/// the seed the CI explorer smoke and BENCH_6/8 pin.
pub const EXPLORE_POOL: [u64; 3] = [3, 4, 5];

/// Pinned outcome of exploring one pool shape (`async` vs `fifo`, POR
/// on): any drift in these counts is a behaviour change in the
/// explorer, not a performance change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    /// Schedules visited with POR on (either dedup mode). Invariant
    /// under relabelling: sleep sets visit each Mazurkiewicz trace once.
    pub schedules: usize,
    /// Distinct states in the exact seen-set. Held to the unrelabelled
    /// shape only: relabelled shapes have so far always reproduced it,
    /// but stored sleep sets depend on visit order, which depends on ids.
    pub states: usize,
    /// Distinct violating configurations. Invariant under relabelling.
    pub violating: usize,
    /// Commutative digest of the violating configurations of the
    /// unrelabelled shape (the digest mixes process and message ids).
    pub digest: u64,
}

/// [`Pinned`] outcomes of [`EXPLORE_POOL`], index by index.
pub const PINNED: [Pinned; 3] = [
    Pinned {
        schedules: 6_070,
        states: 49_318,
        violating: 4_192,
        digest: 0x9206_c673_991a_7254,
    },
    Pinned {
        schedules: 3_600,
        states: 16_557,
        violating: 3_525,
        digest: 0xd310_6085_3d77_c111,
    },
    Pinned {
        schedules: 3_492,
        states: 37_514,
        violating: 2_826,
        digest: 0xec26_6c45_9dea_379e,
    },
];

/// Pool shape `shape`, exactly as `msgorder explore --seed <s>` builds
/// it.
pub fn explore_shape(shape: usize) -> Workload {
    Workload::uniform_random(EXPLORE_PROCESSES, EXPLORE_MESSAGES, EXPLORE_POOL[shape])
}

/// Pool shape `shape` relabelled for unit `unit` of seed `seed`:
/// process ids are permuted and the send list is re-interleaved keeping
/// each sender's own order (and every send's time), so message ids
/// change too. The schedule space is isomorphic to the shape's — same
/// schedule and violation counts — but every id the engine hashes,
/// fingerprints or iterates over differs from seed to seed.
pub fn explore_workload(seed: u64, unit: u64, shape: usize) -> Workload {
    let base = explore_shape(shape);
    let mut state = mix(seed, unit * EXPLORE_POOL.len() as u64 + shape as u64);
    let mut below = |n: usize| {
        state = mix(state, 1);
        (state % n as u64) as usize
    };
    let mut perm: Vec<usize> = (0..EXPLORE_PROCESSES).collect();
    let mut senders: Vec<usize> = base.sends.iter().map(|s| s.src).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, below(i + 1));
    }
    for i in (1..senders.len()).rev() {
        senders.swap(i, below(i + 1));
    }
    let mut next = [0usize; EXPLORE_PROCESSES];
    let sends = senders
        .into_iter()
        .map(|src| {
            let at = (next[src]..base.sends.len())
                .find(|&i| base.sends[i].src == src)
                .expect("the shuffled sender sequence is a permutation of the original");
            next[src] = at + 1;
            let s = &base.sends[at];
            SendSpec {
                at: s.at,
                src: perm[s.src],
                dst: perm[s.dst],
                color: s.color.clone(),
            }
        })
        .collect();
    Workload { sends }
}

/// The serialized inputs of the first `units` units — what "same seed,
/// same inputs" means byte for byte.
pub fn serialized_inputs(kind: Kind, seed: u64, units: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for unit in 0..units {
        if kind.is_explore() {
            for shape in 0..EXPLORE_POOL.len() {
                let w = explore_workload(seed, unit, shape);
                out.extend(serde_json::to_vec(&w).expect("workloads serialize"));
            }
        } else {
            let s = setup(kind, seed, unit);
            out.extend(serde_json::to_vec(&s).expect("setups serialize"));
        }
        out.push(b'\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for k in ALL {
            assert_eq!(Kind::by_name(k.name()), Some(k));
        }
        assert_eq!(Kind::by_name("nope"), None);
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for k in ALL {
            assert_eq!(serialized_inputs(k, 7, 3), serialized_inputs(k, 7, 3));
        }
    }

    #[test]
    fn different_seeds_and_units_differ() {
        for k in ALL {
            assert_ne!(serialized_inputs(k, 7, 2), serialized_inputs(k, 8, 2));
            let two = serialized_inputs(k, 7, 2);
            let first_len = serialized_inputs(k, 7, 1).len();
            assert_ne!(two[..first_len], two[first_len..], "{}", k.name());
        }
    }

    #[test]
    fn relabelling_keeps_the_shape() {
        for shape in 0..EXPLORE_POOL.len() {
            let base = explore_shape(shape);
            let w = explore_workload(11, 2, shape);
            assert_eq!(w.len(), base.len());
            // Same multiset of send times, and per-channel message
            // counts equal up to one permutation of the process ids.
            let times = |w: &Workload| {
                let mut t: Vec<u64> = w.sends.iter().map(|s| s.at).collect();
                t.sort_unstable();
                t
            };
            assert_eq!(times(&w), times(&base));
            let channels = |w: &Workload| {
                let mut c = vec![0usize; EXPLORE_PROCESSES * EXPLORE_PROCESSES];
                for s in &w.sends {
                    c[s.src * EXPLORE_PROCESSES + s.dst] += 1;
                }
                c.sort_unstable();
                c
            };
            assert_eq!(channels(&w), channels(&base));
        }
    }
}
