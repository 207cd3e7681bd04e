//! Runnable message-ordering protocols, one per class of the paper's
//! taxonomy, plus the synthesized generic tagged protocol.
//!
//! | protocol | class | spec it enforces | overhead |
//! |---|---|---|---|
//! | [`AsyncProtocol`] | tagless | `X_async` (nothing) | none |
//! | [`FifoProtocol`] | tagged | FIFO | 8-byte sequence number |
//! | [`CausalRst`] | tagged | causal ordering | `n × n` matrix (Raynal–Schiper–Toueg) |
//! | [`CausalSes`] | tagged | causal ordering | vector clock + per-destination constraints (Schiper–Eggli–Sandoz) |
//! | [`CausalBss`] | tagged | causal *broadcast* ordering | `O(n)` vector clock (Birman–Schiper–Stephenson) |
//! | [`FlushChannels`] | tagged | F-channel flush orders | sequence number + barrier list |
//! | [`SyncProtocol`] | general | logically synchronous | **control messages** (lock rendezvous) |
//! | [`SynthesizedTagged`] | tagged | any order-≤1 forbidden predicate | causal-history tag |
//!
//! [`CausalBss`] is an example protocol outside the [`registry`]: it
//! orders *broadcasts* (the multicast shape of the paper's closing
//! remark), which no `ProtocolKind`, CLI name or recorded trace can
//! ask for; `examples/broadcast.rs` and a property test drive it
//! directly. Everything else in the table is a [`ProtocolKind`], built
//! as a variant of [`ExplorableProtocol`]: the one value the simulator,
//! the live hosts and the schedule explorer all run.
//!
//! Every protocol is verified by simulating adversarial workloads and
//! monitoring the corresponding forbidden predicate *online* while the
//! run executes ([`verify`]) — safety *and* liveness, per the paper's
//! definition of "implements". [`OnlineMonitor::halting`] halts a
//! streaming simulation at the first violating delivery, and plugs the
//! same detector into exhaustive schedule exploration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asynch;
pub mod causal_bss;
pub mod causal_rst;
pub mod causal_ses;
pub mod fifo;
pub mod flush;
pub mod link;
pub mod registry;
pub mod sync;
pub mod synthesis;
pub mod tagcodec;
pub mod verify;

pub use asynch::AsyncProtocol;
pub use causal_bss::CausalBss;
pub use causal_rst::CausalRst;
pub use causal_ses::CausalSes;
pub use fifo::FifoProtocol;
pub use flush::FlushChannels;
pub use link::{Link, RetryConfig};
pub use registry::{ExplorableProtocol, ProtocolKind};
pub use sync::SyncProtocol;
pub use synthesis::SynthesizedTagged;
pub use verify::{
    explore_violations, run_and_verify, verify_exhaustive, ExhaustiveOutcome, OnlineMonitor,
    VerifyOutcome, Violations,
};
