//! A deterministic discrete-event network simulator.
//!
//! The paper's protocols are *inhibitory*: they decide when the
//! controllable events (send `x.s`, delivery `x.r`) may execute. The
//! simulator gives them an adversarial but reproducible environment:
//!
//! - **non-FIFO channels** — per-message latency drawn from a pluggable
//!   [`LatencyModel`], so messages reorder freely in transit;
//! - **user vs control traffic** — a protocol sends either user frames
//!   (whose four events are recorded) or control frames (counted and
//!   costed, invisible in the user's view), and every frame on the wire
//!   is journaled as a [`WireRecord`];
//! - **full run capture** — the kernel logs `x.s*`, `x.s`, `x.r*`,
//!   `x.r` into a live [`StreamingRun`](msgorder_runs::StreamingRun) as
//!   the simulation executes and [`Simulation::run`] hands that run
//!   back; [`Simulation::run_streaming`] additionally feeds every event
//!   to a [`RunObserver`] the moment it executes (online monitoring,
//!   early-exit on violation);
//! - **determinism** — all randomness flows from one seed; event ties
//!   break on a monotone sequence number.
//!
//! # Example
//!
//! ```
//! use msgorder_simnet::{Simulation, SimConfig, LatencyModel, Workload, Protocol, Ctx};
//! use msgorder_runs::{MessageId, ProcessId};
//!
//! /// The do-nothing (tagless, asynchronous) protocol.
//! struct Async;
//! impl Protocol for Async {
//!     fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
//!         ctx.send_user(msg, Vec::new());
//!     }
//!     fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: MessageId, _tag: Vec<u8>) {
//!         ctx.deliver(msg);
//!     }
//! }
//!
//! let workload = Workload::uniform_random(3, 20, 0xfeed);
//! let config = SimConfig::new(3, LatencyModel::Uniform { lo: 1, hi: 100 }, 1);
//! let result = Simulation::run_uniform(config, workload, |_| Async).expect("no protocol bug");
//! assert!(result.run.is_quiescent());
//! assert_eq!(result.stats.control_messages, 0);
//! ```
//!
//! Faulty networks (loss, duplication, partitions, crashes) are opt-in
//! via [`FaultModel`]; protocol implementation bugs surface as
//! [`SimError`] counterexamples instead of aborting the process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod explore;
mod faults;
mod host;
mod kernel;
mod latency;
mod liveness;
mod realtime;
mod slab_map;
mod stats;
mod workload;

pub use error::{SimError, SimErrorKind, SimOutcome};
pub use explore::{explore, explore_monitored, DedupMode, Exploration, ExploreOptions};
pub use faults::{AdversarialModel, CrashSchedule, FaultConfigError, FaultModel, Partition};
pub use host::{HostAction, HostEnv, HostEvent, ProtocolHost};
pub use kernel::{
    Ctx, DropReason, FaultRecord, ForgedFrame, KernelEvent, PayloadKind, Protocol, RejectReason,
    RunObserver, SimConfig, Simulation, StreamResult, TransmitDecision, WireRecord,
};
pub use latency::{LatencyModel, LatencyOverflow};
pub use liveness::{Blame, LivenessVerdict, StuckCause, StuckMessage, StuckStage};
pub use realtime::{
    DriftStats, HostDriver, HostError, InProcessHost, MonotonicClock, RealtimeKernel,
    RealtimeOutcome, WallClock,
};
pub use slab_map::SortedSlab;
pub use stats::Stats;
pub use workload::{SendSpec, Workload};

/// [`explore()`] under its pre-merge name, with the pre-merge visitor
/// type: `visit` sees each complete run as a
/// [`SystemRun`](msgorder_runs::SystemRun), without the clock index.
/// The frozen `benchmark/` package imports it.
pub fn explore_parallel_with<P, V>(
    processes: usize,
    workload: Workload,
    factory: impl Fn(usize) -> P,
    opts: &ExploreOptions,
    visit: &V,
) -> Exploration
where
    P: Protocol + Clone + std::hash::Hash + Send,
    V: Fn(&msgorder_runs::SystemRun) -> bool + Sync,
{
    explore(processes, workload, factory, opts, &|run| visit(run))
}
