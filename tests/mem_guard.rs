//! The post-hoc path's memory guards in the cost table
//! (`tests/cost_table`).

mod cost_table;

/// `users_view` + `in_x_co` + `in_x_sync`: calls that do not grow with
/// the run, and bytes linear in it — clocks, no closure.
#[test]
fn posthoc_limit_sets_request_under_16_mib() {
    cost_table::check(|row| {
        row.layer == "runs"
            && (row.operation.contains("users_view") || row.operation.contains("in_x_sync"))
    });
}

#[test]
fn a_cyclic_order_is_rejected_before_the_matrices_exist() {
    cost_table::check(|row| row.operation.starts_with("reject a cyclic"));
}

/// The largest single block of a post-hoc episode: no closure matrix.
#[test]
fn a_post_hoc_episode_allocates_no_closure_matrix() {
    cost_table::check(|row| row.operation.starts_with("largest allocation"));
}
