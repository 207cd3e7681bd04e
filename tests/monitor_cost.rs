//! The online monitor's order queries and clock reads in the cost table
//! (`tests/cost_table`).

mod cost_table;

/// `before` and `event_clock` per delivery stay flat from 2 000 to
/// 8 000 messages.
#[test]
fn order_queries_per_delivery_do_not_grow_with_the_run() {
    cost_table::check(|row| row.layer == "predicate" && row.operation.contains("per delivery"));
}
