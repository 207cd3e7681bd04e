//! Partial-order substrate for the `msgorder` workspace.
//!
//! The message-ordering theory of Murty & Garg is stated entirely in terms
//! of finite partial orders ("runs are decomposed posets"). This crate
//! provides the machinery every other crate builds on:
//!
//! - [`BitSet`] — dense fixed-capacity bitsets; [`BitRow`] — one
//!   borrowed row of a flat bit matrix with the same read-only queries.
//! - [`DiGraph`] — a small adjacency-list directed multigraph with cycle
//!   detection (with a witness) and topological sorting;
//!   [`is_acyclic`] — the same verdict over a flat edge slice.
//! - [`TransitiveClosure`] — reachability of a DAG as two flat
//!   `n × ⌈n/64⌉` word matrices (descendants and ancestors), built from
//!   an edge slice in one topological pass.
//! - [`Poset`] — a validated strict partial order with comparability
//!   queries, covers, minimal elements and a linear extension.
//! - [`linear`] — linear extensions: existence, enumeration, counting and
//!   uniform-ish random sampling.
//! - [`VectorClock`] — classic Fidge/Mattern clocks, used by the causal
//!   ordering protocols and tested against explicit happened-before.
//!
//! # Example
//!
//! ```
//! use msgorder_poset::Poset;
//!
//! # fn main() -> Result<(), msgorder_poset::PosetError> {
//! // a < b, a < c, b < d, c < d  (a diamond)
//! let p = Poset::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])?;
//! assert!(p.lt(0, 3));           // transitivity
//! assert!(!p.comparable(1, 2));  // b and c are concurrent
//! assert_eq!(p.minimal_elements(), vec![0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod closure;
mod error;
mod graph;
pub mod linear;
mod poset;
mod vclock;
pub mod words;

pub use bitset::{BitRow, BitSet};
pub use closure::TransitiveClosure;
pub use error::PosetError;
pub use graph::{is_acyclic, DiGraph, EdgeId, NodeId};
pub use poset::Poset;
pub use vclock::VectorClock;
