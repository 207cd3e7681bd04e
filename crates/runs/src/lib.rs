//! The run model of Murty & Garg's *"Characterization of Message Ordering
//! Specifications and Protocols"* (§3).
//!
//! A **message** `x` consists of four system events: the *invoke* `x.s*`,
//! the *send* `x.s`, the *receive* `x.r*` and the *delivery* `x.r`. A
//! **system run** is a decomposed poset `(H_1, ..., H_n, →)` of such
//! events; the **user's view** projects away the starred events, yielding
//! a partial order `(H, ▷)` over sends and deliveries only (Figure 4 of
//! the paper shows why the two views differ).
//!
//! The crate provides:
//!
//! - [`SystemRun`] — the run: declared messages plus the events fed so
//!   far, every prefix satisfying the paper's three run conditions,
//!   with the pending-event sets `I/S/R/D` of §3.1, causal pasts
//!   (Figure 1) and the user's-view projection.
//! - [`StreamingRun`] — that run plus a vector-clock index answering
//!   `▷` on the live prefix in O(1) (online monitoring).
//! - [`UserRun`] — the user's view: complete runs `(H, ▷)`, the
//!   elements of the paper's specification universe `X`.
//! - [`RunningJoins`] — per-destination joins of delivered send clocks,
//!   which decide the crossing pair of causal and FIFO ordering on
//!   clocks alone.
//! - [`limit_sets`] — membership tests for `X_async ⊇ X_co ⊇ X_sync`
//!   (user view, §3.4) and `X_tl ⊆ X_td ⊆ X_gn` (system view, §3.2.1).
//! - [`construct`] — the Figure 5 construction turning a user-view run
//!   back into a system run, plus the numbering schemes `N` / `T`.
//! - [`generator`] — seeded random run generation, and every distinct
//!   user view of a small message set, used by the experiments and
//!   property tests. The views are built from one order of each
//!   process's own sends and deliveries, so a process with `k_p` events
//!   costs a factor `k_p!`: keep those inputs small.
//!
//! # Example
//!
//! ```
//! use msgorder_runs::{SystemRun, limit_sets};
//!
//! # fn main() -> Result<(), msgorder_runs::RunError> {
//! // Two processes; message a then b from P0 to P1, delivered in order.
//! let mut run = SystemRun::new(2);
//! let a = run.message(0, 1);
//! let m = run.message(0, 1);
//! run.invoke(a)?.send(a)?.invoke(m)?.send(m)?;
//! run.receive(a)?.deliver(a)?.receive(m)?.deliver(m)?;
//! let user = run.users_view();
//! assert!(limit_sets::in_x_co(&user));   // causally ordered
//! assert!(limit_sets::in_x_sync(&user)); // even logically synchronous
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod construct;
pub mod display;
mod error;
pub mod generator;
mod ids;
mod joins;
pub mod lemma2;
pub mod limit_sets;
mod message;
pub mod realize;
mod streaming;
mod system;
mod users_view;
mod view;

pub use error::RunError;
pub use ids::{EventKind, MessageId, ProcessId, SystemEvent, UserEvent, UserEventKind};
pub use joins::RunningJoins;
pub use message::MessageMeta;
pub use streaming::StreamingRun;
pub use system::{PendingSets, SystemRun};
pub use users_view::{UserRun, UserRunSnapshot};
pub use view::OrderView;
