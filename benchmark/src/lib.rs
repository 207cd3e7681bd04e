//! The benchmark of the msgorder stack (see `README.md`).

pub mod calib;
pub mod env;
pub mod harness;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod stats;
pub mod traced;
pub mod units;
pub mod workloads;
