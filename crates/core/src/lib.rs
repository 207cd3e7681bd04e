//! High-level facade over the msgorder workspace: one type ([`Spec`])
//! and one call ([`Spec::analyze`]) covering the paper's whole pipeline:
//!
//! 1. parse a forbidden predicate (or take one from the
//!    [`catalog`](msgorder_predicate::catalog));
//! 2. build the predicate graph, find the best cycle and its β vertices;
//! 3. decide the protocol class (§4.3 table);
//! 4. produce *verified* separation witnesses (Theorems 2/4);
//! 5. recommend a runnable protocol from
//!    [`msgorder_protocols`].
//!
//! ```
//! use msgorder_core::Spec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = Spec::parse("forbid x, y: x.s < y.s & y.r < x.r")?.named("causal");
//! let report = spec.analyze();
//! assert!(report.classification().is_tagged_sufficient());
//! assert_eq!(report.recommendation().name(), "synthesized");
//! println!("{}", report.render());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;
mod spec;

pub use report::AnalysisReport;
pub use spec::Spec;

// Re-export the vocabulary types users need alongside the facade.
pub use msgorder_classifier::classify::Classification;
pub use msgorder_predicate::catalog::PaperClass;
pub use msgorder_predicate::ForbiddenPredicate;
pub use msgorder_protocols::ProtocolKind;
