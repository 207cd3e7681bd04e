//! Every row of the cost table (`tests/cost_table`), printed in CI:
//!
//! ```text
//! cargo test --release --test costs -- --nocapture
//! ```

mod cost_table;

#[test]
fn every_cost_is_within_its_bound() {
    cost_table::check(|_| true);
}
