//! ASCII time diagrams for system runs — the textual cousin of the
//! paper's figures.
//!
//! Events are laid out in a global topological order (one column each);
//! each process occupies a row. Example output for the Figure 4 run:
//!
//! ```text
//! P0 | m0.s* m0.s  m1.s* m1.s
//! P1 |                         m1.r* m0.r* m0.r  m1.r
//! ```

use crate::ids::{EventKind, ProcessId, SystemEvent};
use crate::system::SystemRun;
use msgorder_poset::DiGraph;

/// Renders the run as a per-process timeline. Columns follow a
/// deterministic topological order of the causality relation; message
/// identities make the arrows reconstructible (`m3.s` on one row pairs
/// with `m3.r*` on another).
pub fn render_timeline(run: &SystemRun) -> String {
    let n = run.process_count();
    // Global topological order over all events.
    let mut events: Vec<SystemEvent> = Vec::new();
    for p in 0..n {
        events.extend(run.sequence(ProcessId(p)).iter().copied());
    }
    // Each event's place in `events`, by message and kind: every event
    // of a sequence is a declared message's, at most once.
    let mut slot = vec![usize::MAX; 4 * run.messages().len()];
    for (i, e) in events.iter().enumerate() {
        slot[4 * e.msg.0 + e.kind.index()] = i;
    }
    let index_of = |e: SystemEvent| slot[4 * e.msg.0 + e.kind.index()];
    let mut g = DiGraph::new(events.len());
    for p in 0..n {
        let seq = run.sequence(ProcessId(p));
        for w in seq.windows(2) {
            g.add_edge(index_of(w[0]), index_of(w[1]))
                .expect("in range");
        }
    }
    for meta in run.messages() {
        let s = SystemEvent::new(meta.id, EventKind::Send);
        let r = SystemEvent::new(meta.id, EventKind::Receive);
        if run.contains(s) && run.contains(r) {
            g.add_edge(index_of(s), index_of(r)).expect("in range");
        }
    }
    let order = g.topo_sort().expect("runs are acyclic");
    // column of each event (in topo position)
    let mut column = vec![0usize; events.len()];
    for (col, &ev) in order.iter().enumerate() {
        column[ev] = col;
    }
    let labels: Vec<String> = events.iter().map(|e| e.to_string()).collect();
    let col_width = labels.iter().map(|l| l.chars().count()).max().unwrap_or(1) + 1;
    let mut out = String::new();
    for p in 0..n {
        let mut row = format!("P{p} |");
        let mut cells = vec![String::new(); events.len()];
        for ev in run.sequence(ProcessId(p)) {
            let i = index_of(*ev);
            cells[column[i]] = labels[i].clone();
        }
        for cell in cells {
            let pad = col_width - cell.chars().count();
            row.push(' ');
            row.push_str(&cell);
            row.push_str(&" ".repeat(pad.saturating_sub(1)));
        }
        out.push_str(row.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_contains_every_event_once() {
        let mut run = SystemRun::new(2);
        let x = run.message(0, 1);
        let y = run.message(1, 0);
        run.transmit(x).unwrap();
        run.transmit(y).unwrap();
        let text = render_timeline(&run);
        assert_eq!(text.lines().count(), 2);
        for ev in [
            "m0.s*", "m0.s", "m0.r*", "m0.r", "m1.s*", "m1.s", "m1.r*", "m1.r",
        ] {
            assert_eq!(
                text.matches(ev).count(),
                // "m0.s" also matches inside "m0.s*": account for that
                if ev.ends_with('*') { 1 } else { 2 },
                "event {ev} should appear exactly once\n{text}"
            );
        }
    }

    #[test]
    fn rows_follow_process_order() {
        let mut run = SystemRun::new(2);
        let x = run.message(0, 1);
        run.transmit(x).unwrap();
        let text = render_timeline(&run);
        let p0 = text.lines().next().unwrap();
        let p1 = text.lines().nth(1).unwrap();
        assert!(p0.starts_with("P0 |"));
        assert!(p1.starts_with("P1 |"));
        // P0's events come in earlier columns than P1's for this run
        let send_col = p0.find("m0.s*").unwrap();
        let recv_col = p1.find("m0.r*").unwrap();
        assert!(send_col < recv_col, "{text}");
    }

    #[test]
    fn empty_run_renders_rows_only() {
        let run = SystemRun::new(3);
        let text = render_timeline(&run);
        assert_eq!(text.lines().count(), 3);
    }
}
