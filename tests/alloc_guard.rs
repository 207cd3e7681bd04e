//! The allocation guards of the cost table (`tests/cost_table`): each
//! test checks the rows of one layer's hot path.

mod cost_table;

/// The event arena: a declared message's four events append in place.
#[test]
fn appending_declared_messages_never_allocates() {
    cost_table::check(|row| row.layer == "runs" && row.operation.starts_with("append"));
}

/// The online monitor: feeding a completed message reuses its buffers.
#[test]
fn feeding_a_declared_message_never_allocates_at_steady_state() {
    cost_table::check(|row| row.operation.starts_with("`Monitor::on_complete`"));
}

/// The simnet kernel's dispatch, and the explorer's calls by depth and
/// per state.
#[test]
fn dispatch_is_allocation_free_at_steady_state() {
    cost_table::check(|row| row.layer == "simnet");
}

/// `causal-rst`: one allocation per message, the tag buffer.
#[test]
fn causal_rst_allocates_only_the_tag_buffer_at_steady_state() {
    cost_table::check(|row| row.operation.starts_with("causal-rst dispatch"));
}

/// `explore_violations`: a leaf costs a call only when the violating
/// configurations grow.
#[test]
fn a_checked_leaf_allocates_at_most_once() {
    cost_table::check(|row| row.operation.starts_with("`explore_violations`"));
}

/// The transport: a message costs what the host types own by value.
#[test]
fn a_message_over_the_socket_allocates_only_what_the_host_types_own() {
    cost_table::check(|row| row.layer == "transport");
}
