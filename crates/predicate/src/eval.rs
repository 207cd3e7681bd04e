//! Deciding whether a run satisfies a forbidden predicate.
//!
//! `B ≡ ∃ x1..xm : ⋀ conjuncts` is an existential query: we search for an
//! instantiation of the variables by messages of the run satisfying every
//! conjunct and constraint. Backtracking with eager constraint checking
//! keeps the `O(|M|^m)` worst case tame for the small `m` of real
//! specifications.
//!
//! Variables bind **pairwise-distinct** messages — the instantiation is
//! injective. See [`ForbiddenPredicate`] for why this is the semantics
//! the paper's theorems require.
//!
//! Two searches share the consistency check ([`OrderView`] is all it
//! needs): [`Prepared`] evaluates a whole run — a materialized
//! [`UserRun`], whose closure rows narrow its last variable, or a
//! clock-stamped `StreamingRun`, whose clocks do — and [`Monitor`]
//! evaluates *online* against a live `StreamingRun` prefix, narrowing
//! every variable with vector-clock cuts — it finds the first
//! violating instantiation at the exact delivery event completing it.
//! The monitor decides the crossing pairs of causal and FIFO ordering
//! by running joins of send clocks and searches only to name a witness.
//! On a projection of a run, which keeps clocks, [`holds`] and
//! [`find_instantiation`] decide by feeding the [`Monitor`] the
//! deliveries in one linear extension, and search the closure only to
//! name a witness.

use crate::ast::{Conjunct, Constraint, EventTerm, ForbiddenPredicate, Var};
use msgorder_runs::{MessageId, OrderView, RunningJoins, UserEvent, UserEventKind, UserRun};
use std::ops::Range;
use std::sync::Arc;

fn term_event(term: EventTerm, assignment: &[Option<MessageId>]) -> Option<UserEvent> {
    let msg = assignment[term.var.0]?;
    Some(UserEvent {
        msg,
        kind: term.kind,
    })
}

/// The process hosting user event `e`.
fn event_process<V: OrderView>(view: &V, e: UserEvent) -> usize {
    match e.kind {
        UserEventKind::Send => view.src(e.msg).0,
        UserEventKind::Deliver => view.dst(e.msg).0,
    }
}

/// Checks every conjunct/constraint whose variables are all assigned and
/// involve `just_set`, which the caller has just bound to `msg`
/// (incremental consistency check).
fn consistent<V: OrderView>(
    pred: &ForbiddenPredicate,
    view: &V,
    assignment: &[Option<MessageId>],
    just_set: Var,
    msg: MessageId,
) -> bool {
    // The process and color constraints first: they read endpoints and
    // colors, which is cheaper than any order query.
    for c in pred.constraints() {
        match c {
            Constraint::SameProcess(a, b) | Constraint::DiffProcess(a, b) => {
                if a.var != just_set && b.var != just_set {
                    continue;
                }
                if let (Some(ea), Some(eb)) =
                    (term_event(*a, assignment), term_event(*b, assignment))
                {
                    let same = event_process(view, ea) == event_process(view, eb);
                    let want_same = matches!(c, Constraint::SameProcess(_, _));
                    if same != want_same {
                        return false;
                    }
                }
            }
            Constraint::Color(v, color) => {
                if *v == just_set && !view.meta(msg).has_color(color) {
                    return false;
                }
            }
            Constraint::NotColor(v, color) => {
                if *v == just_set && view.meta(msg).has_color(color) {
                    return false;
                }
            }
        }
    }
    for c in pred.conjuncts() {
        if c.lhs.var != just_set && c.rhs.var != just_set {
            continue;
        }
        if let (Some(a), Some(b)) = (term_event(c.lhs, assignment), term_event(c.rhs, assignment)) {
            if !view.before(a, b) {
                return false;
            }
        }
    }
    true
}

/// A predicate compiled for evaluation against many runs.
///
/// Evaluation-plan construction has a run-independent part (the variable
/// assignment order and each variable's color filters, derived purely
/// from the predicate) and a run-dependent part (the candidate message
/// lists). `Prepared` hoists the former so that evaluating one
/// predicate over a corpus of runs — the shape of every experiment and
/// benchmark loop in this workspace — pays the predicate analysis once
/// instead of once per run.
#[derive(Clone)]
pub struct Prepared<'p> {
    pred: &'p ForbiddenPredicate,
    /// Variable assignment order (most-connected first).
    order: Vec<usize>,
    /// Per-variable color filters: `(color, must_have)`.
    color_filters: Vec<Vec<(&'p str, bool)>>,
    /// Whether binding `order[d]` completes a conjunct or a process
    /// constraint: only then does depth `d` ask [`consistent`] (the
    /// color constraints are already in the candidate lists).
    checked: Vec<bool>,
    /// Word-parallel narrowing plan for the last variable in `order`.
    last: Option<LastStep>,
}

/// Candidate narrowing for the variable assigned last. With every other
/// variable bound, each process constraint touching the last variable
/// pins one of its events to, or away from, a known process: the
/// search intersects the candidate mask with that process's send-bit
/// mask of the candidates' events, one word at a time, before any
/// order is asked. Then each conjunct touching the last variable pins
/// one of its events on one side of a bound event: `last.e ▷ b` means the
/// event lies in `ancestors(b)`, `a ▷ last.e` means it lies in
/// `descendants(a)`. The view narrows the candidate mask to that side
/// ([`retain_ordered`]): a closure view intersects whole rows as `u64`
/// words, a clock-stamped view runs one Fidge test per surviving
/// candidate. The mask is a sound over-approximation (conjuncts binding
/// the last variable twice are skipped, and so is everything on a view
/// that can do neither), so every survivor is still re-checked by
/// [`consistent`].
#[derive(Clone)]
struct LastStep {
    /// The variable assigned last (`order.last()`).
    var: usize,
    /// One entry per conjunct with exactly one side on the last
    /// variable: `(the last variable's event kind, the bound side's
    /// term, whether the last variable is the lhs)`.
    narrowing: Vec<(UserEventKind, EventTerm, bool)>,
    /// One entry per process constraint with exactly one side on the
    /// last variable: `(the last variable's event kind, the bound
    /// side's term, whether the processes must be equal)`.
    sites: Vec<(UserEventKind, EventTerm, bool)>,
}

/// Even bits — the send-event positions of [`UserEvent::node`] indexing,
/// where message `m`'s send sits at bit `2m`.
const SEND_BITS: u64 = 0x5555_5555_5555_5555;

/// Narrows `mask` (send-bit aligned: bit `2m` for message `m`) to the
/// messages whose `kind` event lies after `e` under `▷` (`after`) or
/// before it. A view holding a closure ANDs in `e`'s row, shifted onto
/// the send bits; a clock-stamped view costs one Fidge test per set
/// send bit — `a ▷ b ⇔ a ≠ b ∧ V(a)[p_a] ≤ V(b)[p_a]`. A view with
/// neither leaves the mask to [`consistent`]. Odd bits are left as they
/// are.
fn retain_ordered<V: OrderView>(
    view: &V,
    mask: &mut [u64],
    e: UserEvent,
    kind: UserEventKind,
    after: bool,
) {
    if let Some(row) = view.closure_row(e, after) {
        and_shifted(mask, row, kind.index());
        return;
    }
    if mask.iter().all(|&w| w & SEND_BITS == 0) {
        // Nothing left to test: read no clock.
        return;
    }
    let Some(ve) = view.event_clock(e) else {
        return;
    };
    let pe = event_process(view, e);
    for (i, word) in mask.iter_mut().enumerate() {
        let mut bits = *word & SEND_BITS;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let f = UserEvent {
                msg: MessageId((64 * i + bit) / 2),
                kind,
            };
            let ordered = f != e
                && view.event_clock(f).is_some_and(|vf| {
                    if after {
                        ve[pe] <= vf[pe]
                    } else {
                        let pf = event_process(view, f);
                        vf[pf] <= ve[pf]
                    }
                });
            if !ordered {
                *word &= !(1 << bit);
            }
        }
    }
}

/// `dst &= src >> shift` across word boundaries (`shift < 64`). Aligns a
/// closure row keyed by event node onto send-bit (`2m`) positions.
///
/// Both slices are `⌈2·|M|/64⌉` words. Each arm is one branch-free
/// loop the compiler vectorises: a word takes its low bits from itself
/// and its high bits from the next word, and the last word has no next.
fn and_shifted(dst: &mut [u64], src: &[u64], shift: usize) {
    debug_assert_eq!(dst.len(), src.len());
    if shift == 0 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d &= s;
        }
        return;
    }
    let (Some(d_last), Some(&s_last)) = (dst.last_mut(), src.last()) else {
        return;
    };
    *d_last &= s_last >> shift;
    let n = dst.len() - 1;
    for (d, w) in dst[..n].iter_mut().zip(src.windows(2)) {
        *d &= (w[0] >> shift) | (w[1] << (64 - shift));
    }
}

/// Reusable buffers for [`Prepared`]'s search: the candidate lists,
/// the assignment, the last variable's word masks and the witness. One
/// per evaluating thread makes a repeated evaluation — the explorer
/// checks every leaf — allocation-free once the buffers have seen a run
/// of the size at hand; [`Prepared::holds`] and its siblings use a fresh
/// one per call.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Per-variable candidates, color-filtered (indexed by variable).
    candidates: Vec<Vec<MessageId>>,
    search: SearchState,
}

/// The part of [`EvalScratch`] the backtracking writes to.
#[derive(Debug, Clone, Default)]
struct SearchState {
    assignment: Vec<Option<MessageId>>,
    /// Send-bit-aligned mask of the last variable's color-passing
    /// candidates (bit `2m` set iff `m` is a candidate).
    cand: Vec<u64>,
    /// Per-leaf working mask.
    combined: Vec<u64>,
    /// Where the last variable's candidates' events happen, when
    /// [`LastStep::sites`] asks: the send-bit mask of the candidates
    /// whose event of kind `k` is on process `p` at word `(2p + k)·words`.
    sites: Vec<u64>,
    /// The instantiation handed to the caller, in variable order.
    witness: Vec<MessageId>,
}

impl<'p> Prepared<'p> {
    /// Analyzes `pred` once; the result evaluates it against any run.
    pub fn new(pred: &'p ForbiddenPredicate) -> Self {
        let m = pred.var_count();
        let mut degree = vec![0usize; m];
        for c in pred.conjuncts() {
            degree[c.lhs.var.0] += 1;
            degree[c.rhs.var.0] += 1;
        }
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(degree[v]));
        let mut color_filters: Vec<Vec<(&str, bool)>> = vec![Vec::new(); m];
        for c in pred.constraints() {
            match c {
                Constraint::Color(v, color) => color_filters[v.0].push((color, true)),
                Constraint::NotColor(v, color) => color_filters[v.0].push((color, false)),
                _ => {}
            }
        }
        let bound_at = |v: Var| order.iter().position(|&o| o == v.0).expect("a variable");
        let mut checked = vec![false; m];
        for c in pred.conjuncts() {
            checked[bound_at(c.lhs.var).max(bound_at(c.rhs.var))] = true;
        }
        for c in pred.constraints() {
            if let Constraint::SameProcess(a, b) | Constraint::DiffProcess(a, b) = c {
                checked[bound_at(a.var).max(bound_at(b.var))] = true;
            }
        }
        let last = order.last().map(|&lv| {
            let mut narrowing = Vec::new();
            for c in pred.conjuncts() {
                let on_lhs = c.lhs.var.0 == lv;
                let on_rhs = c.rhs.var.0 == lv;
                if on_lhs && !on_rhs {
                    narrowing.push((c.lhs.kind, c.rhs, true));
                } else if on_rhs && !on_lhs {
                    narrowing.push((c.rhs.kind, c.lhs, false));
                }
            }
            let mut sites = Vec::new();
            for c in pred.constraints() {
                let (Constraint::SameProcess(a, b) | Constraint::DiffProcess(a, b)) = c else {
                    continue;
                };
                let same = matches!(c, Constraint::SameProcess(_, _));
                if a.var.0 == lv && b.var.0 != lv {
                    sites.push((a.kind, *b, same));
                } else if b.var.0 == lv && a.var.0 != lv {
                    sites.push((b.kind, *a, same));
                }
            }
            LastStep {
                var: lv,
                narrowing,
                sites,
            }
        });
        Prepared {
            pred,
            order,
            color_filters,
            checked,
            last,
        }
    }

    /// The run-dependent half of plan construction: the complete
    /// messages, filtered through the precomputed color filters, into
    /// `out`.
    fn fill_candidates<V: OrderView>(&self, view: &V, out: &mut Vec<Vec<MessageId>>) {
        out.resize_with(self.color_filters.len(), Vec::new);
        for (list, filters) in out.iter_mut().zip(&self.color_filters) {
            list.clear();
            list.extend((0..view.message_count()).map(MessageId).filter(|&msg| {
                view.is_message_complete(msg)
                    && filters
                        .iter()
                        .all(|&(color, want)| view.has_color(msg, color) == want)
            }));
        }
    }

    /// See [`holds`].
    pub fn holds(&self, run: &UserRun) -> bool {
        self.monitored(run)
            .unwrap_or_else(|| self.find_with(run, &mut EvalScratch::default()).is_some())
    }

    /// See [`satisfies_spec`].
    pub fn satisfies_spec(&self, run: &UserRun) -> bool {
        !self.holds(run)
    }

    /// See [`find_instantiation`].
    pub fn find_instantiation(&self, run: &UserRun) -> Option<Vec<MessageId>> {
        if self.monitored(run) == Some(false) {
            return None;
        }
        self.find_with(run, &mut EvalScratch::default())
            .map(<[MessageId]>::to_vec)
    }

    /// Decides the predicate on a projection of a run by feeding a
    /// [`Monitor`] its deliveries in the order of one linear extension
    /// ([`UserRun::delivery_order`]): each message is fed after every
    /// message whose delivery precedes its own, which is all the
    /// monitor's soundness asks, and the monitor reads only the clocks.
    /// `None` — the caller searches — for a run that keeps no clocks,
    /// and for a predicate without variables, which holds on every run
    /// without any order being asked.
    ///
    /// Decide by monitor, name by closure: the monitor's witness is the
    /// first to complete, not the first in the search order, so a run
    /// on which the predicate holds is searched again for the witness
    /// [`find_with`](Self::find_with) gives.
    fn monitored(&self, run: &UserRun) -> Option<bool> {
        let order = run.delivery_order()?;
        if self.order.is_empty() {
            return None;
        }
        let mut monitor = Monitor::compiled(self.clone());
        Some(order.iter().any(|&m| monitor.on_complete(run, m).is_some()))
    }

    /// [`find_instantiation`](Self::find_instantiation) on any
    /// [`OrderView`], in `scratch`'s buffers: the witness is borrowed
    /// from them. Only complete messages are candidates, so on a
    /// [`StreamingRun`](msgorder_runs::StreamingRun) this decides the
    /// predicate on the user's view of the run, read off its clocks; the
    /// witness then names the run's own message ids, each the
    /// [`dense_id`](msgorder_runs::SystemRun::dense_id) preimage of the
    /// witness [`users_view`](msgorder_runs::SystemRun::users_view)
    /// gives.
    pub fn find_with<'s, V: OrderView>(
        &self,
        run: &V,
        scratch: &'s mut EvalScratch,
    ) -> Option<&'s [MessageId]> {
        let found = self.search(run, scratch, &mut |_| true);
        found.then_some(&scratch.search.witness[..])
    }

    /// See [`count_instantiations`].
    pub fn count_instantiations(&self, run: &UserRun, cap: usize) -> usize {
        if cap == 0 {
            return 0;
        }
        let mut count = 0usize;
        self.search(run, &mut EvalScratch::default(), &mut |_| {
            count += 1;
            count >= cap
        });
        count
    }

    /// The one search behind every entry: fills `scratch` for `run` —
    /// the candidate lists, an empty assignment, and the last
    /// variable's candidate mask (send-bit aligned) beside a same-width
    /// working mask, sized to the `2·|M|` event nodes — then
    /// backtracks, handing each instantiation to `found` until it
    /// returns `true`. Returns whether it did.
    fn search<V: OrderView>(
        &self,
        run: &V,
        scratch: &mut EvalScratch,
        found: &mut dyn FnMut(&[MessageId]) -> bool,
    ) -> bool {
        self.fill_candidates(run, &mut scratch.candidates);
        let st = &mut scratch.search;
        st.assignment.clear();
        st.assignment.resize(self.pred.var_count(), None);
        let words = (2 * run.message_count()).div_ceil(64);
        st.cand.clear();
        st.cand.resize(words, 0);
        st.combined.clear();
        st.combined.resize(words, 0);
        st.sites.clear();
        if let Some(last) = &self.last {
            let lasts = &scratch.candidates[last.var];
            for &m in lasts {
                st.cand[(2 * m.0) / 64] |= 1 << ((2 * m.0) % 64);
            }
            if !last.sites.is_empty() {
                let ends = |m: MessageId| [run.src(m).0, run.dst(m).0];
                let procs = lasts
                    .iter()
                    .flat_map(|&m| ends(m))
                    .max()
                    .map_or(0, |p| p + 1);
                st.sites.resize(2 * procs * words, 0);
                for &m in lasts {
                    for (k, p) in ends(m).into_iter().enumerate() {
                        st.sites[(2 * p + k) * words + 2 * m.0 / 64] |= 1 << (2 * m.0 % 64);
                    }
                }
            }
        }
        self.search_user(run, &scratch.candidates, st, 0, found)
    }

    /// Backtracking search, assigning the variables in `order` from
    /// `candidates` (indexed by variable, not order position) until the
    /// last one, where the view narrows the candidate mask before
    /// [`consistent`] re-checks the survivors (see [`LastStep`]).
    fn search_user<V: OrderView>(
        &self,
        run: &V,
        candidates: &[Vec<MessageId>],
        st: &mut SearchState,
        depth: usize,
        found: &mut dyn FnMut(&[MessageId]) -> bool,
    ) -> bool {
        let Some(last) = &self.last else {
            // Arity 0 — degenerate: the empty instantiation.
            st.witness.clear();
            return found(&[]);
        };
        if depth + 1 == self.order.len() {
            return self.last_leaf(run, last, st, found);
        }
        let var = self.order[depth];
        for &msg in &candidates[var] {
            // Injective instantiation: variables bind distinct messages.
            if st.assignment.contains(&Some(msg)) {
                continue;
            }
            st.assignment[var] = Some(msg);
            if (!self.checked[depth] || consistent(self.pred, run, &st.assignment, Var(var), msg))
                && self.search_user(run, candidates, st, depth + 1, found)
            {
                return true;
            }
            st.assignment[var] = None;
        }
        false
    }

    /// The last-variable step: drop the bound messages, narrow the mask
    /// to the side of each bound event its conjuncts pin, and walk only
    /// the surviving candidates (in increasing message order, so
    /// witnesses match a plain scan of the candidate list exactly).
    fn last_leaf<V: OrderView>(
        &self,
        run: &V,
        last: &LastStep,
        st: &mut SearchState,
        found: &mut dyn FnMut(&[MessageId]) -> bool,
    ) -> bool {
        let SearchState {
            assignment,
            cand,
            combined,
            sites,
            witness,
        } = st;
        combined.copy_from_slice(cand);
        // Injectivity: drop messages already bound by earlier variables.
        for m in assignment.iter().flatten() {
            let bit = 2 * m.0;
            combined[bit / 64] &= !(1u64 << (bit % 64));
        }
        let words = combined.len();
        for &(kind, other, same) in &last.sites {
            let Some(ev) = term_event(other, assignment) else {
                continue;
            };
            // No candidate has an event on a process past the table.
            let at = (2 * event_process(run, ev) + kind.index()) * words;
            match sites.get(at..at + words) {
                Some(site) if same => combined.iter_mut().zip(site).for_each(|(c, s)| *c &= s),
                Some(site) => combined.iter_mut().zip(site).for_each(|(c, s)| *c &= !s),
                None if same => combined.fill(0),
                None => {}
            }
        }
        for &(kind, other, last_is_lhs) in &last.narrowing {
            let Some(ev) = term_event(other, assignment) else {
                continue;
            };
            retain_ordered(run, combined, ev, kind, !last_is_lhs);
        }
        for (i, &word) in combined.iter().enumerate() {
            let mut word = word & SEND_BITS;
            while word != 0 {
                let msg = MessageId((i * 64 + word.trailing_zeros() as usize) / 2);
                word &= word - 1;
                assignment[last.var] = Some(msg);
                if consistent(self.pred, run, assignment, Var(last.var), msg) {
                    // Every variable is bound here, so nothing is dropped.
                    witness.clear();
                    witness.extend(assignment.iter().flatten());
                    if found(witness) {
                        return true;
                    }
                }
                assignment[last.var] = None;
            }
        }
        false
    }
}

/// Wall-clock accounting of a [`Monitor`]'s delta searches — the
/// monitor-search histogram of `msgorder simulate --metrics`. The
/// monitor reads no clock itself: its one timed caller,
/// `protocols::verify::OnlineMonitor`, times each call that feeds a
/// message and [`record`](Self::record)s it here, so `searches ==
/// completed_seen()` while the monitor is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MonitorTimings {
    /// Delta searches executed.
    pub searches: u64,
    /// Total wall-clock nanoseconds across all searches.
    pub total_nanos: u64,
    /// The slowest single search, in nanoseconds.
    pub max_nanos: u64,
    /// `buckets[i]` counts searches whose duration `d` (ns) satisfies
    /// `floor(log2(d)) == i` (durations of 0 ns land in bucket 0) — a
    /// log₂ histogram of per-search latency.
    pub buckets: [u64; 32],
}

impl MonitorTimings {
    /// Counts one delta search that took `nanos` nanoseconds.
    pub fn record(&mut self, nanos: u64) {
        self.searches += 1;
        self.total_nanos += nanos;
        self.max_nanos = self.max_nanos.max(nanos);
        let bucket = (64 - nanos.max(1).leading_zeros() as usize - 1).min(31);
        self.buckets[bucket] += 1;
    }
}

/// An online monitor for one forbidden predicate.
///
/// Feed it each message the moment it *completes* (its delivery event
/// executes) together with an [`OrderView`] of the live prefix; it
/// reports the first satisfying instantiation of `B` at the exact
/// delivery that completes it. Soundness rests on two facts about the
/// user-view order `▷` on growing prefixes:
///
/// 1. the truth of `a ▷ b` for two present events never changes as the
///    run extends (every edge points chronologically forward), and
/// 2. any instantiation of `B` contains a message whose delivery is the
///    *last* to execute — binding the freshly completed message at each
///    variable position in turn and searching the remaining positions
///    over earlier-completed messages therefore finds every violation
///    exactly once, at its completion event.
///
/// A position `v` with a conjunct `v.r ▷ w.e` (`w ≠ v`) is never pinned:
/// every event of an earlier-completed message executed before the
/// fresh delivery, so by fact 1 that delivery cannot precede it.
///
/// # Decide by join, name by search
///
/// For the crossing pair `a.s ▷ b.s ∧ b.r ▷ a.r` — bare (causal
/// ordering) or with both sends and both deliveries on one process each
/// (FIFO) — the monitor keeps no index while the run stays clean. The
/// fresh message `x` can bind only `a`. If some fed `y` has
/// `x.s ▷ y.s ∧ y.r ▷ x.r`, then some `z` delivered at `d = dst(x)`
/// before `x` has `x.s ▷ z.s`, in every user view and with no `X_co`
/// assumption (THEORY §3.4): `▷` is generated by process order and the
/// edges `w.s ▷ w.r`, so the path `y.r ⇝ x.r` ends on `d`'s chain, and
/// its last send-to-delivery edge `z.s ▷ z.r` (`z = y` if it has none)
/// puts `z.r` before `x.r` on that chain, with `x.s ▷ y.s ⊴ z.s` and
/// `z ≠ x` (else `x.s ▷ y.s ▷ y.r ⊴ x.s`). A feed in completion order
/// has fed that `z` before `x`. So the monitor keeps, per destination,
/// the join of the fed messages' send clocks ([`RunningJoins`]) and a
/// log of the fed ids, and `x` from `s` completes a violation iff
/// `row[d][s] ≥ V(x.s)[s]`; otherwise `V(x.s)` is merged into `row[d]`
/// — under FIFO only `row[d][s]` is raised, since there `y` itself
/// shares `x`'s channel. A clean delivery costs one compare, one
/// `n`-word merge and no index work. When the check fires, the logged
/// messages are indexed in feed order and the search below runs at `x`,
/// so the witness is the one the index search names; that happens at
/// most once, because the monitor stops at its first witness. Every
/// other predicate takes the index search at every completion.
///
/// The remaining positions are not searched by scanning every
/// earlier-completed message. Under vector clocks the causal past of an
/// event is a consistent cut — a prefix of every process — and its
/// causal future a suffix of every process, so a conjunct between the
/// variable being bound and an already bound one confines the candidates
/// to index ranges of a per-process, clock-ordered index of the *fed*
/// messages' events. The ranges over-approximate, every survivor is
/// re-checked by the full consistency test, and survivors are tried in
/// completion order, so the first witness is the one a plain scan of
/// the candidate lists finds. The bounds lie near the live end of each
/// process's list, so they are searched from the end. The view must
/// stamp clocks ([`OrderView::event_clock`]).
///
/// The index holds fed messages only, never whatever else the view
/// already contains: the kernel reports deliveries in batches and a
/// replayed verdict feeds from a fully reconstructed run, and a message
/// the monitor has not been told about must not be bound. It lives here
/// and not in the run because the explorer clones the run at every
/// transition and most runs are never monitored.
///
/// Per completed message the monitor stores its id in the candidate
/// list of each variable whose color constraints it passes and two
/// index entries (a joining monitor: one log entry, beside `n × n`
/// join words), so memory grows with *arity × completed messages*,
/// never with the event count. All are reserved when the view's
/// messages are first seen, and the in-flight assignment and the pool
/// of narrowed candidates are reused, so feeding a declared message
/// does not allocate once the pool has grown to the run's in-flight
/// window. The explorer clones its monitor at every transition: the
/// compiled predicate is shared between clones and the working memory
/// is not copied.
#[derive(Clone)]
pub struct Monitor<'p> {
    prep: Arc<Prepared<'p>>,
    /// By variable: whether the freshly completed message can bind it.
    /// Not if a conjunct `v.r ▷ w.e` (`w ≠ v`) asks its delivery — the
    /// newest event — to precede an event of a message fed earlier.
    pinnable: Arc<[bool]>,
    /// While the predicate is a crossing pair and no violation has
    /// completed: the join that decides it. `candidates` and `index`
    /// stay empty until the check fires.
    joined: Option<Joined>,
    /// Per-variable candidates among completed messages (color-filtered,
    /// in completion order) — what a variable no bound conjunct touches
    /// falls back to.
    candidates: Vec<Vec<MessageId>>,
    /// Per process, the user events of fed messages it hosts.
    index: Vec<ProcessIndex>,
    /// How many of the view's declared messages `index` (or, while the
    /// monitor keeps a join, the log) has reserved room for.
    declared: usize,
    /// Completed messages seen so far (monotone; for diagnostics).
    fed: usize,
    witness: Option<Vec<MessageId>>,
    scratch: Scratch,
}

/// The crossing pairs [`Monitor`] decides by join, recognised from the
/// predicate's structure: two variables `a ≠ b` and the conjuncts
/// `a.s ▷ b.s` and `b.r ▷ a.r`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Crossing {
    /// No constraint (causal ordering).
    Causal,
    /// `proc(a.s) = proc(b.s)` and `proc(a.r) = proc(b.r)`, and nothing
    /// else (FIFO ordering).
    Fifo,
}

impl Crossing {
    fn of(pred: &ForbiddenPredicate) -> Option<Crossing> {
        use UserEventKind::Send;
        let ([c, d], 2) = (pred.conjuncts(), pred.var_count()) else {
            return None;
        };
        let (sends, deliveries) = if c.lhs.kind == Send { (c, d) } else { (d, c) };
        let (a, b) = (sends.lhs.var, sends.rhs.var);
        if a == b
            || *sends != Conjunct::new(a.s(), b.s())
            || *deliveries != Conjunct::new(b.r(), a.r())
        {
            return None;
        }
        let same = |k: &Constraint, x: EventTerm, y: EventTerm| {
            *k == Constraint::SameProcess(x, y) || *k == Constraint::SameProcess(y, x)
        };
        match pred.constraints() {
            [] => Some(Crossing::Causal),
            [k, l]
                if (same(k, a.s(), b.s()) && same(l, a.r(), b.r()))
                    || (same(l, a.s(), b.s()) && same(k, a.r(), b.r())) =>
            {
                Some(Crossing::Fifo)
            }
            _ => None,
        }
    }
}

/// What a [`Monitor`] deciding a [`Crossing`] by join keeps.
#[derive(Clone)]
struct Joined {
    shape: Crossing,
    /// Row `d`: the join of the send clocks of the logged messages
    /// delivered at `d` — every component for [`Crossing::Causal`], each
    /// sender's own for [`Crossing::Fifo`].
    joins: RunningJoins,
    /// The fed messages in feed order, indexed only if the check fires.
    log: Vec<MessageId>,
}

/// One process's sequence of user events, restricted to fed messages.
#[derive(Clone, Default)]
struct ProcessIndex {
    /// The sends and deliveries of fed messages, in process order.
    events: Vec<Indexed>,
    /// How long `events` gets once every declared message is fed — the
    /// reservation target.
    planned: usize,
    /// Working memory of [`Monitor::narrow`]: by
    /// [`UserEventKind::index`], the part of `events` where that event
    /// of the variable being narrowed can still lie.
    admissible: [Range<usize>; 2],
}

/// One indexed user event of a fed message.
#[derive(Clone, Copy)]
struct Indexed {
    /// The event's own component of its clock, `V(e)[proc(e)]` — its
    /// position among the user events of its process.
    clock: u64,
    /// The message's completion rank: its position in the feed.
    rank: usize,
    event: UserEvent,
}

/// Working memory of one delta search, kept between searches so the
/// steady state never allocates. Not monitor state: a clone starts with
/// empty scratch instead of a copy.
#[derive(Default)]
struct Scratch {
    /// The in-flight assignment, one slot per variable.
    assignment: Vec<Option<MessageId>>,
    /// A stack of narrowed candidate lists, one per variable being
    /// walked, the deepest on top; each in completion order.
    pool: Vec<Indexed>,
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

/// `list.partition_point(pred)` for a `pred` true on a prefix and false
/// after it, searched from the end: probes 1, 2, 4, … entries back until
/// one holds, then binary-searches the last gap. A boundary `d` entries
/// from the end costs `O(log d)` probes — a clock-ordered index is
/// queried near its live end.
fn partition_from_end<T>(list: &[T], mut pred: impl FnMut(&T) -> bool) -> usize {
    let mut hi = list.len();
    let mut step = 1;
    while step <= list.len() {
        let at = list.len() - step;
        if pred(&list[at]) {
            return at + 1 + list[at + 1..hi].partition_point(pred);
        }
        hi = at;
        step *= 2;
    }
    list[..hi].partition_point(pred)
}

impl<'p> Monitor<'p> {
    /// Compiles `pred` into an online monitor.
    pub fn new(pred: &'p ForbiddenPredicate) -> Self {
        Monitor::compiled(Prepared::new(pred))
    }

    /// A monitor that never decides by join: every completion runs the
    /// index search. The reference the join is tested against.
    #[doc(hidden)]
    pub fn indexed(pred: &'p ForbiddenPredicate) -> Self {
        Monitor {
            joined: None,
            ..Monitor::new(pred)
        }
    }

    /// A monitor for the predicate `prep` was compiled from.
    fn compiled(prep: Prepared<'p>) -> Self {
        let pred = prep.pred;
        let mut pinnable = vec![true; pred.var_count()];
        for c in pred.conjuncts() {
            if c.lhs.kind == UserEventKind::Deliver && c.lhs.var != c.rhs.var {
                pinnable[c.lhs.var.0] = false;
            }
        }
        Monitor {
            joined: Crossing::of(pred).map(|shape| Joined {
                shape,
                joins: RunningJoins::default(),
                log: Vec::new(),
            }),
            prep: Arc::new(prep),
            pinnable: pinnable.into(),
            candidates: vec![Vec::new(); pred.var_count()],
            index: Vec::new(),
            declared: 0,
            fed: 0,
            witness: None,
            scratch: Scratch::default(),
        }
    }

    /// The monitored predicate.
    pub fn predicate(&self) -> &'p ForbiddenPredicate {
        self.prep.pred
    }

    fn passes_filters<V: OrderView>(&self, view: &V, var: usize, m: MessageId) -> bool {
        self.prep.color_filters[var]
            .iter()
            .all(|&(color, want)| view.meta(m).has_color(color) == want)
    }

    /// Notifies the monitor that message `m` just completed (its `x.r`
    /// executed). Returns the witness instantiation if the predicate is
    /// now (or was already) satisfied. Message ids are in `view`'s
    /// numbering.
    ///
    /// Calling order must follow completion order, and every message
    /// that completes must be fed (a crossing pair decided by join
    /// relies on both); after the first witness the monitor stops
    /// searching and keeps reporting it. A message whose send or
    /// delivery `view` has no clock for is not complete in that view:
    /// the call changes nothing.
    pub fn on_complete<V: OrderView>(&mut self, view: &V, m: MessageId) -> Option<&[MessageId]> {
        let (Some(sent), Some(delivered)) = (
            view.event_clock(UserEvent::send(m)),
            view.event_clock(UserEvent::deliver(m)),
        ) else {
            return self.witness.as_deref();
        };
        if self.witness.is_none() {
            self.reserve(view, sent.len());
            if !self.joined(view, m, sent) {
                self.search_at(view, m, sent, delivered);
            }
            self.fed += 1;
        }
        self.witness.as_deref()
    }

    /// Decides `m` by the join while the monitor keeps one: `true` if no
    /// violation completes at `m`, which is then logged. `false` when
    /// the search must run at `m` — the monitor keeps no join, or the
    /// check fired. Firing indexes the logged messages in feed order,
    /// with the ranks they were fed at, exactly as the search would have
    /// indexed them, and drops the join for good.
    fn joined<V: OrderView>(&mut self, view: &V, m: MessageId, sent: &[u64]) -> bool {
        let Some(joined) = &mut self.joined else {
            return false;
        };
        let (s, d) = (view.src(m).0, view.dst(m).0);
        if !joined.joins.covers(d, s, sent) {
            match joined.shape {
                Crossing::Causal => joined.joins.merge(d, sent),
                Crossing::Fifo => joined.joins.raise(d, s, sent),
            }
            joined.log.push(m);
            return true;
        }
        let log = std::mem::take(&mut joined.log);
        (self.joined, self.declared) = (None, 0);
        self.reserve(view, sent.len());
        for (rank, &z) in log.iter().enumerate() {
            // Fed, so both clocks are stamped.
            if let (Some(sent), Some(delivered)) = (
                view.event_clock(UserEvent::send(z)),
                view.event_clock(UserEvent::deliver(z)),
            ) {
                self.admit(view, z, rank, sent, delivered);
            }
        }
        false
    }

    /// The index search at `m`: pins `m` at each variable it can bind
    /// and searches the other positions over the indexed messages; if
    /// no witness completes, indexes `m`.
    fn search_at<V: OrderView>(&mut self, view: &V, m: MessageId, sent: &[u64], delivered: &[u64]) {
        for v in 0..self.prep.pred.var_count() {
            if !self.pinnable[v] || !self.passes_filters(view, v, m) {
                continue;
            }
            // Pin `m` at `v` and search the other positions.
            self.scratch.assignment[v] = Some(m);
            if consistent(self.prep.pred, view, &self.scratch.assignment, Var(v), m)
                && self.search(view, v, 0)
            {
                return;
            }
            self.scratch.assignment[v] = None;
        }
        self.admit(view, m, self.fed, sent, delivered);
    }

    /// Adds `m`, fed at position `rank`, to the candidate list of each
    /// variable it passes the filters of, and its two events to their
    /// processes' index lists.
    fn admit<V: OrderView>(
        &mut self,
        view: &V,
        m: MessageId,
        rank: usize,
        sent: &[u64],
        delivered: &[u64],
    ) {
        for v in 0..self.prep.pred.var_count() {
            if self.passes_filters(view, v, m) {
                self.candidates[v].push(m);
            }
        }
        for (event, clock) in [
            (UserEvent::send(m), sent),
            (UserEvent::deliver(m), delivered),
        ] {
            let p = event_process(view, event);
            let entry = Indexed {
                clock: clock[p],
                rank,
                event,
            };
            // A delivery lands at the end; a send as far from it as
            // events after it belong to messages fed earlier.
            let list = &mut self.index[p].events;
            let at = partition_from_end(list, |e| e.clock < entry.clock);
            list.insert(at, entry);
        }
    }

    /// Sizes the assignment for this predicate and, when `view` has
    /// declared messages since the last call, reserves room for all of
    /// them, so that feeding them allocates nothing: a log entry each
    /// and `n × n` join words while the monitor keeps a join, index and
    /// candidate room for `n` processes otherwise.
    fn reserve<V: OrderView>(&mut self, view: &V, n: usize) {
        self.scratch
            .assignment
            .resize(self.prep.pred.var_count(), None);
        let declared = view.message_count();
        if let Some(joined) = &mut self.joined {
            if self.declared < declared {
                if joined.joins.rows() < n {
                    joined.joins = RunningJoins::new(n, n);
                }
                let log = &mut joined.log;
                log.reserve(declared.saturating_sub(log.len()));
                self.declared = declared;
            }
            return;
        }
        if self.index.len() < n {
            self.index.resize_with(n, ProcessIndex::default);
        }
        if self.declared >= declared {
            return;
        }
        for id in (self.declared..declared).map(MessageId) {
            self.index[view.src(id).0].planned += 1;
            self.index[view.dst(id).0].planned += 1;
        }
        self.declared = declared;
        for process in &mut self.index {
            let room = process.planned.saturating_sub(process.events.len());
            process.events.reserve(room);
        }
        for list in &mut self.candidates {
            list.reserve(declared.saturating_sub(list.len()));
        }
    }

    /// Binds the variables from position `depth` of the assignment order
    /// on, skipping `pinned`; at the leaf the full assignment becomes
    /// the witness.
    fn search<V: OrderView>(&mut self, view: &V, pinned: usize, depth: usize) -> bool {
        let Some(&var) = self.prep.order.get(depth) else {
            // Every variable is bound here, so nothing is dropped.
            self.witness = Some(self.scratch.assignment.iter().flatten().copied().collect());
            return true;
        };
        if var == pinned {
            return self.search(view, pinned, depth + 1);
        }
        if let Some(narrowed) = self.narrow(view, var) {
            // Deeper levels push their own lists above this one and pop
            // them again, so it stays put while it is walked.
            let found = narrowed
                .clone()
                .any(|i| self.bind(view, pinned, depth, var, self.scratch.pool[i].event.msg));
            self.scratch.pool.truncate(narrowed.start);
            found
        } else {
            // Lent out for the walk: deeper levels bind other variables.
            let all = std::mem::take(&mut self.candidates[var]);
            let found = all
                .iter()
                .any(|&msg| self.bind(view, pinned, depth, var, msg));
            self.candidates[var] = all;
            found
        }
    }

    /// Tries `msg` for the variable at `depth` and, if consistent, the
    /// rest of the order below it.
    fn bind<V: OrderView>(
        &mut self,
        view: &V,
        pinned: usize,
        depth: usize,
        var: usize,
        msg: MessageId,
    ) -> bool {
        // Injective instantiation: variables bind distinct messages.
        if self.scratch.assignment.contains(&Some(msg)) {
            return false;
        }
        self.scratch.assignment[var] = Some(msg);
        if consistent(
            self.prep.pred,
            view,
            &self.scratch.assignment,
            Var(var),
            msg,
        ) && self.search(view, pinned, depth + 1)
        {
            return true;
        }
        self.scratch.assignment[var] = None;
        false
    }

    /// Pushes a superset of the fed messages that can still bind `var`
    /// on the pool, in completion order, and returns where. Returns
    /// `None` — pool untouched — if no conjunct relates `var` to a bound
    /// variable.
    ///
    /// Each conjunct with `var` on one side and a bound event `b` on
    /// the other confines one event of `var` on every process `p`:
    /// `var.e ▷ b` to the prefix of `p` with local clock `≤ V(b)[p]`
    /// (the cut below `b`), `b ▷ var.e` to the suffix of `p` starting
    /// at the first event whose clock has seen `b`,
    /// `V(e)[proc(b)] ≥ V(b)[proc(b)]` — clocks only grow along a
    /// process, so both bounds are [`partition_from_end`] searches,
    /// cheap when `b` is recent. Of `var`'s send and delivery, the
    /// one left with the shorter stretch of index is enumerated.
    fn narrow<V: OrderView>(&mut self, view: &V, var: usize) -> Option<Range<usize>> {
        let mut confined = [false; 2];
        for c in self.prep.pred.conjuncts() {
            let (kind, other, var_first) = match (c.lhs.var.0 == var, c.rhs.var.0 == var) {
                (true, false) => (c.lhs.kind, c.rhs, true),
                (false, true) => (c.rhs.kind, c.lhs, false),
                _ => continue,
            };
            let Some(bound) = term_event(other, &self.scratch.assignment) else {
                continue;
            };
            let Some(clock) = view.event_clock(bound) else {
                continue;
            };
            let k = kind.index();
            if !confined[k] {
                confined[k] = true;
                for process in &mut self.index {
                    process.admissible[k] = 0..process.events.len();
                }
            }
            let at = event_process(view, bound);
            for (process, &cut) in self.index.iter_mut().zip(clock) {
                let (range, list) = (&mut process.admissible[k], &process.events);
                if var_first {
                    range.end = range.end.min(partition_from_end(list, |e| e.clock <= cut));
                } else {
                    let seen = |e: &Indexed| {
                        view.event_clock(e.event)
                            .is_some_and(|v| v[at] >= clock[at])
                    };
                    range.start = range.start.max(partition_from_end(list, |e| !seen(e)));
                }
            }
        }
        let left = |k: usize| {
            self.index
                .iter()
                .map(|p| p.admissible[k].len())
                .sum::<usize>()
        };
        let k = match confined {
            [false, false] => return None,
            [true, false] => 0,
            [false, true] => 1,
            [true, true] => usize::from(left(1) < left(0)),
        };
        let pool = &mut self.scratch.pool;
        let from = pool.len();
        for process in &self.index {
            if let Some(stretch) = process.events.get(process.admissible[k].clone()) {
                pool.extend(stretch.iter().filter(|e| e.event.kind.index() == k));
            }
        }
        pool[from..].sort_unstable_by_key(|e| e.rank);
        Some(from..pool.len())
    }

    /// Whether a satisfying instantiation has been found.
    pub fn violated(&self) -> bool {
        self.witness.is_some()
    }

    /// The first satisfying instantiation, if any (message per variable,
    /// ids in the monitored view's numbering).
    pub fn witness(&self) -> Option<&[MessageId]> {
        self.witness.as_deref()
    }

    /// Number of completed messages fed before (and including) the
    /// violation, or all of them if none.
    pub fn completed_seen(&self) -> usize {
        self.fed
    }

    /// Current partial-match state size: total candidate-list entries
    /// across variables (bounded by arity × completed messages).
    pub fn live_state(&self) -> usize {
        match &self.joined {
            // Every variable would list every logged message: the
            // shapes that join have no color filter.
            Some(joined) => self.prep.pred.var_count() * joined.log.len(),
            None => self.candidates.iter().map(Vec::len).sum(),
        }
    }
}

/// Whether the run satisfies `B` — i.e. some instantiation of the
/// variables makes every conjunct and constraint true. A run satisfying
/// `B` violates the specification `X_B`.
pub fn holds(pred: &ForbiddenPredicate, run: &UserRun) -> bool {
    Prepared::new(pred).holds(run)
}

/// Whether the run belongs to the specification set `X_B` (no
/// instantiation satisfies `B`).
pub fn satisfies_spec(pred: &ForbiddenPredicate, run: &UserRun) -> bool {
    !holds(pred, run)
}

/// One satisfying instantiation (message per variable), if any.
pub fn find_instantiation(pred: &ForbiddenPredicate, run: &UserRun) -> Option<Vec<MessageId>> {
    Prepared::new(pred).find_instantiation(run)
}

/// Counts satisfying instantiations, stopping at `cap` (use
/// `usize::MAX` for an exact count on small runs).
pub fn count_instantiations(pred: &ForbiddenPredicate, run: &UserRun, cap: usize) -> usize {
    Prepared::new(pred).count_instantiations(run, cap)
}

/// Whether `assignment` (one message per variable, in declaration
/// order) is a genuine witness: pairwise distinct and satisfying every
/// conjunct and constraint of `pred` on `view`. Works against both a
/// materialized [`UserRun`] and a live streaming prefix — the check
/// used to validate witnesses reported by the online [`Monitor`].
pub fn check_instantiation<V: OrderView>(
    pred: &ForbiddenPredicate,
    view: &V,
    assignment: &[MessageId],
) -> bool {
    if assignment.len() != pred.var_count() {
        return false;
    }
    let slots: Vec<Option<MessageId>> = assignment.iter().copied().map(Some).collect();
    assignment
        .iter()
        .enumerate()
        .all(|(v, m)| !assignment[..v].contains(m) && consistent(pred, view, &slots, Var(v), *m))
}

/// Semantic implication over a family of runs: `stronger ⇒ weaker` holds
/// on `runs` iff every run satisfying `stronger` also satisfies
/// `weaker`. Returns the first counterexample index otherwise.
///
/// Used to validate Lemma 4 reductions (`B ⇒ B'`) against exhaustive
/// small-run enumerations — a semantic spot-check of the syntactic
/// contraction.
pub fn implies_on_runs<'a, I>(
    stronger: &ForbiddenPredicate,
    weaker: &ForbiddenPredicate,
    runs: I,
) -> Result<(), usize>
where
    I: IntoIterator<Item = &'a UserRun>,
{
    let stronger = Prepared::new(stronger);
    let weaker = Prepared::new(weaker);
    for (i, run) in runs.into_iter().enumerate() {
        if stronger.holds(run) && !weaker.holds(run) {
            return Err(i);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgorder_runs::{MessageMeta, ProcessId};

    fn meta(endpoints: &[(usize, usize)]) -> Vec<MessageMeta> {
        endpoints
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| MessageMeta::new(MessageId(i), ProcessId(s), ProcessId(d)))
            .collect()
    }

    fn causal() -> ForbiddenPredicate {
        ForbiddenPredicate::parse("forbid x, y: x.s < y.s & y.r < x.r").unwrap()
    }

    /// m0 overtaken by m1.
    fn overtaking_run() -> UserRun {
        UserRun::new(
            meta(&[(0, 1), (0, 1)]),
            [
                (UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))),
                (
                    UserEvent::deliver(MessageId(1)),
                    UserEvent::deliver(MessageId(0)),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn causal_predicate_detects_overtaking() {
        let run = overtaking_run();
        assert!(holds(&causal(), &run));
        assert!(!satisfies_spec(&causal(), &run));
        let inst = find_instantiation(&causal(), &run).unwrap();
        assert_eq!(inst, vec![MessageId(0), MessageId(1)]);
    }

    #[test]
    fn causal_predicate_passes_ordered_run() {
        let run = UserRun::new(
            meta(&[(0, 1), (0, 1)]),
            [
                (UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))),
                (
                    UserEvent::deliver(MessageId(0)),
                    UserEvent::deliver(MessageId(1)),
                ),
            ],
        )
        .unwrap();
        assert!(!holds(&causal(), &run));
        assert!(satisfies_spec(&causal(), &run));
    }

    #[test]
    fn fifo_constraints_restrict_scope() {
        let fifo = ForbiddenPredicate::parse(
            "forbid x, y: x.s < y.s & y.r < x.r \
             where proc(x.s) = proc(y.s), proc(x.r) = proc(y.r)",
        )
        .unwrap();
        // Same overtaking shape but on different channels: m0: P0->P1,
        // m1: P2->P1... senders differ, so FIFO is NOT violated.
        let run = UserRun::new(
            meta(&[(0, 1), (2, 1)]),
            [
                (UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))),
                (
                    UserEvent::deliver(MessageId(1)),
                    UserEvent::deliver(MessageId(0)),
                ),
            ],
        )
        .unwrap();
        assert!(!holds(&fifo, &run), "different senders: FIFO unaffected");
        assert!(holds(&causal(), &run), "causal ordering still violated");
    }

    #[test]
    fn color_constraint_scopes_to_marked_messages() {
        let red_flush =
            ForbiddenPredicate::parse("forbid x, y: x.s < y.s & y.r < x.r where color(y) = red")
                .unwrap();
        // overtaking by an uncolored message: allowed
        let plain = overtaking_run();
        assert!(!holds(&red_flush, &plain));
        // overtaking by a red message: forbidden pattern present
        let mut metas = meta(&[(0, 1), (0, 1)]);
        metas[1].color = Some("red".into());
        let red = UserRun::new(
            metas,
            [
                (UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))),
                (
                    UserEvent::deliver(MessageId(1)),
                    UserEvent::deliver(MessageId(0)),
                ),
            ],
        )
        .unwrap();
        assert!(holds(&red_flush, &red));
    }

    #[test]
    fn instantiation_is_injective() {
        // B ≡ x.s < y.r: a single message cannot bind both variables, so
        // a one-message run never satisfies B...
        let p = ForbiddenPredicate::parse("forbid x, y: x.s < y.r").unwrap();
        let one = UserRun::new(meta(&[(0, 1)]), []).unwrap();
        assert!(!holds(&p, &one));
        // ...but two related messages do.
        let two = UserRun::new(
            meta(&[(0, 1), (0, 1)]),
            [(
                UserEvent::send(MessageId(0)),
                UserEvent::deliver(MessageId(1)),
            )],
        )
        .unwrap();
        assert!(holds(&p, &two));
        let inst = find_instantiation(&p, &two).unwrap();
        assert_ne!(inst[0], inst[1]);
    }

    #[test]
    fn crown_needs_two_distinct_messages() {
        // The sync crown must not fire via x1 = x2 (Lemma 3.1 semantics).
        let crown = ForbiddenPredicate::parse("forbid x, y: x.s < y.r & y.s < x.r").unwrap();
        let one = UserRun::new(meta(&[(0, 1)]), []).unwrap();
        assert!(!holds(&crown, &one));
    }

    #[test]
    fn count_instantiations_exact() {
        // x.s < y.r on a two-message concurrent run: no cross pair is
        // related, so zero; after relating m0 to m1: exactly one.
        let p = ForbiddenPredicate::parse("forbid x, y: x.s < y.r").unwrap();
        let conc = UserRun::new(meta(&[(0, 1), (0, 1)]), []).unwrap();
        assert_eq!(count_instantiations(&p, &conc, usize::MAX), 0);
        let related = UserRun::new(
            meta(&[(0, 1), (0, 1)]),
            [(
                UserEvent::send(MessageId(0)),
                UserEvent::deliver(MessageId(1)),
            )],
        )
        .unwrap();
        assert_eq!(count_instantiations(&p, &related, usize::MAX), 1);
    }

    #[test]
    fn count_respects_cap() {
        let p = ForbiddenPredicate::parse("forbid x: x.s < x.r").unwrap();
        let run = UserRun::new(meta(&[(0, 1), (0, 1), (0, 1)]), []).unwrap();
        assert_eq!(count_instantiations(&p, &run, 2), 2);
        assert_eq!(count_instantiations(&p, &run, usize::MAX), 3);
    }

    #[test]
    fn count_cap_edge_semantics() {
        // Three messages, each satisfying the unary predicate: the true
        // count is 3 (UserRun::new inserts every x.s ▷ x.r edge).
        let p = ForbiddenPredicate::parse("forbid x: x.s < x.r").unwrap();
        let run = UserRun::new(meta(&[(0, 1), (0, 1), (0, 1)]), []).unwrap();
        // cap = 0 counts nothing, even though instantiations exist.
        assert_eq!(count_instantiations(&p, &run, 0), 0);
        // cap exactly equal to the true count reports the true count.
        assert_eq!(count_instantiations(&p, &run, 3), 3);
        // cap smaller than the true count stops at the cap.
        assert_eq!(count_instantiations(&p, &run, 1), 1);
        // cap = 0 on a run with no instantiations is also 0.
        let none = ForbiddenPredicate::parse("forbid x, y: x.r < y.s & y.r < x.s").unwrap();
        assert_eq!(count_instantiations(&none, &run, 0), 0);
    }

    #[test]
    fn empty_run_never_satisfies() {
        let run = UserRun::new(vec![], []).unwrap();
        assert!(!holds(&causal(), &run));
        let trivial = ForbiddenPredicate::parse("forbid x: x.s < x.r").unwrap();
        assert!(!holds(&trivial, &run), "no message to bind");
    }

    #[test]
    fn diff_process_constraint() {
        let p = ForbiddenPredicate::parse("forbid x, y: x.s < y.s where proc(x.s) != proc(y.s)")
            .unwrap();
        // both from P0: constraint fails
        let run = UserRun::new(
            meta(&[(0, 1), (0, 1)]),
            [(UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1)))],
        )
        .unwrap();
        assert!(!holds(&p, &run));
        // from different processes
        let run2 = UserRun::new(
            meta(&[(0, 1), (2, 1)]),
            [(UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1)))],
        )
        .unwrap();
        assert!(holds(&p, &run2));
    }

    #[test]
    fn implication_checker() {
        use msgorder_runs::generator::{random_user_run, GenParams};
        // causal ⇒ B1 (they are equivalent, so both directions hold);
        // causal does NOT imply fifo's restricted form... actually a
        // causal violation on one channel IS a fifo violation; the
        // non-implication direction: fifo-violation ⇒ causal-violation
        // but not vice versa. Check: causal ⇏ fifo on runs violating
        // causal across channels.
        let runs: Vec<_> = (0..60)
            .map(|seed| random_user_run(GenParams::new(3, 6, seed)))
            .collect();
        let b2 = ForbiddenPredicate::parse("forbid x, y: x.s < y.s & y.r < x.r").unwrap();
        let b1 = ForbiddenPredicate::parse("forbid x, y: x.s < y.r & y.r < x.r").unwrap();
        assert!(implies_on_runs(&b2, &b1, runs.iter()).is_ok());
        assert!(implies_on_runs(&b1, &b2, runs.iter()).is_ok());
        let fifo = ForbiddenPredicate::parse(
            "forbid x, y: x.s < y.s & y.r < x.r \
             where proc(x.s) = proc(y.s), proc(x.r) = proc(y.r)",
        )
        .unwrap();
        assert!(
            implies_on_runs(&fifo, &b2, runs.iter()).is_ok(),
            "a FIFO violation is a causal violation"
        );
        assert!(
            implies_on_runs(&b2, &fifo, runs.iter()).is_err(),
            "cross-channel causal violations are not FIFO violations"
        );
    }

    #[test]
    fn monitor_detects_fifo_violation_at_completing_delivery() {
        use msgorder_runs::StreamingRun;
        let fifo = ForbiddenPredicate::parse(
            "forbid x, y: x.s < y.s & y.r < x.r \
             where proc(x.s) = proc(y.s), proc(x.r) = proc(y.r)",
        )
        .unwrap();
        let mut mon = Monitor::new(&fifo);
        let mut s = StreamingRun::new(2);
        let x = s.message(0, 1);
        let y = s.message(0, 1);
        s.invoke(x).unwrap().send(x).unwrap();
        s.invoke(y).unwrap().send(y).unwrap();
        s.receive(x).unwrap().receive(y).unwrap();
        // y overtakes x: the violation is completed by x's delivery.
        s.deliver(y).unwrap();
        assert_eq!(mon.on_complete(&s, y), None);
        assert!(!mon.violated());
        s.deliver(x).unwrap();
        let witness = mon.on_complete(&s, x).expect("violation now complete");
        assert_eq!(witness, &[x, y]);
        assert!(mon.violated());
        assert_eq!(mon.completed_seen(), 2);
        // The verdict is sticky and reported without further search.
        assert_eq!(mon.on_complete(&s, x), Some(&[x, y][..]));
    }

    #[test]
    fn crossing_pairs_are_recognised_by_structure() {
        let shape = |text: &str| Crossing::of(&ForbiddenPredicate::parse(text).unwrap());
        assert_eq!(Crossing::of(&causal()), Some(Crossing::Causal));
        assert_eq!(Crossing::of(&crate::catalog::fifo()), Some(Crossing::Fifo));
        // Names, conjunct order and a constraint's sides do not matter.
        assert_eq!(
            shape("forbid u, v: u.r < v.r & v.s < u.s"),
            Some(Crossing::Causal)
        );
        assert_eq!(
            shape(
                "forbid x, y: x.s < y.s & y.r < x.r \
                 where proc(y.r) = proc(x.r), proc(y.s) = proc(x.s)"
            ),
            Some(Crossing::Fifo)
        );
        for other in [
            crate::catalog::causal_b1(),
            crate::catalog::k_weaker_causal(1),
            crate::catalog::session_fifo(),
            crate::catalog::global_forward_flush(),
            crate::catalog::receive_second_before_first(),
            crate::catalog::mutual_deliver(),
        ] {
            assert_eq!(Crossing::of(&other), None, "{other}");
        }
        assert_eq!(
            shape("forbid x, y: x.s < y.s & y.r < x.r where proc(x.s) = proc(y.s)"),
            None,
            "one constraint of FIFO's two"
        );
        assert_eq!(shape("forbid x, y: x.s < y.s & x.r < y.r"), None);
    }

    #[test]
    fn monitor_respects_color_filters() {
        use msgorder_runs::StreamingRun;
        let red_flush =
            ForbiddenPredicate::parse("forbid x, y: x.s < y.s & y.r < x.r where color(y) = red")
                .unwrap();
        // Overtaking by an uncolored message: the monitor must stay quiet.
        let mut mon = Monitor::new(&red_flush);
        let mut s = StreamingRun::new(2);
        let x = s.message(0, 1);
        let y = s.message(0, 1);
        s.invoke(x).unwrap().send(x).unwrap();
        s.invoke(y).unwrap().send(y).unwrap();
        s.receive(x).unwrap().receive(y).unwrap();
        s.deliver(y).unwrap();
        mon.on_complete(&s, y);
        s.deliver(x).unwrap();
        assert_eq!(mon.on_complete(&s, x), None);
        // Neither message is red, so only the unconstrained variable's
        // candidate list fills up.
        assert_eq!(mon.live_state(), 2, "both messages in x's list only");

        // Same shape with a red overtaker: detected.
        let mut mon = Monitor::new(&red_flush);
        let mut s = StreamingRun::new(2);
        let x = s.message(0, 1);
        let y = s.message_colored(0, 1, "red");
        s.invoke(x).unwrap().send(x).unwrap();
        s.invoke(y).unwrap().send(y).unwrap();
        s.receive(x).unwrap().receive(y).unwrap();
        s.deliver(y).unwrap();
        mon.on_complete(&s, y);
        s.deliver(x).unwrap();
        assert_eq!(mon.on_complete(&s, x), Some(&[x, y][..]));
    }

    /// xorshift64* — deterministic schedule driver.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut v = self.0;
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            self.0 = v;
            v.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    #[test]
    fn monitor_matches_posthoc_on_random_runs() {
        use msgorder_runs::StreamingRun;
        let preds = [
            ForbiddenPredicate::parse("forbid x, y: x.s < y.s & y.r < x.r").unwrap(),
            ForbiddenPredicate::parse(
                "forbid x, y: x.s < y.s & y.r < x.r \
                 where proc(x.s) = proc(y.s), proc(x.r) = proc(y.r)",
            )
            .unwrap(),
            ForbiddenPredicate::parse("forbid x1, x2, x3: x1.s < x2.s & x2.s < x3.s & x3.r < x1.r")
                .unwrap(),
        ];
        for seed in 0..30u64 {
            let mut rng = Rng(0xace0_ba5e ^ (seed << 1) | 1);
            let (n, m) = (3, 6);
            let mut s = StreamingRun::new(n);
            for _ in 0..m {
                let (src, dst) = (rng.below(n), rng.below(n));
                s.message(src, dst);
            }
            let mut monitors: Vec<Monitor<'_>> = preds.iter().map(Monitor::new).collect();
            let mut stage = vec![0usize; m];
            loop {
                let enabled: Vec<usize> = (0..m).filter(|&i| stage[i] < 4).collect();
                if enabled.is_empty() {
                    break;
                }
                let i = enabled[rng.below(enabled.len())];
                let msg = MessageId(i);
                match stage[i] {
                    0 => s.invoke(msg).unwrap(),
                    1 => s.send(msg).unwrap(),
                    2 => s.receive(msg).unwrap(),
                    _ => s.deliver(msg).unwrap(),
                };
                stage[i] += 1;
                if stage[i] == 4 {
                    for mon in &mut monitors {
                        mon.on_complete(&s, msg);
                    }
                }
            }
            // The run completed fully, so user-run ids equal original ids.
            let user = s.users_view();
            for (pred, mon) in preds.iter().zip(&monitors) {
                assert_eq!(
                    mon.violated(),
                    holds(pred, &user),
                    "online/post-hoc divergence on seed {seed}"
                );
                if let Some(w) = mon.witness() {
                    // Re-check the witness against the post-hoc view.
                    for c in pred.conjuncts() {
                        let a = UserEvent {
                            msg: w[c.lhs.var.0],
                            kind: c.lhs.kind,
                        };
                        let b = UserEvent {
                            msg: w[c.rhs.var.0],
                            kind: c.rhs.kind,
                        };
                        assert!(user.before(a, b), "witness conjunct fails post-hoc");
                    }
                }
                assert!(mon.live_state() <= pred.var_count() * m);
            }
        }
    }

    /// Backtracking search assigning the variables in `order` from
    /// `candidates` (indexed by variable, not order position). Variables
    /// already bound in `assignment` before the call are left untouched —
    /// [`ScanMonitor`] uses this to pin its freshly completed message at
    /// one position and search only the rest. The reference both
    /// narrowed searches must match.
    fn search<V: OrderView>(
        pred: &ForbiddenPredicate,
        view: &V,
        order: &[usize],
        candidates: &[Vec<MessageId>],
        assignment: &mut Vec<Option<MessageId>>,
        depth: usize,
        found: &mut dyn FnMut(&[MessageId]) -> bool,
    ) -> bool {
        if depth == order.len() {
            let full: Vec<MessageId> = assignment.iter().map(|a| a.expect("complete")).collect();
            return found(&full);
        }
        let var = order[depth];
        for &msg in &candidates[var] {
            // Injective instantiation: variables bind distinct messages.
            if assignment.contains(&Some(msg)) {
                continue;
            }
            assignment[var] = Some(msg);
            if consistent(pred, view, assignment, Var(var), msg)
                && search(pred, view, order, candidates, assignment, depth + 1, found)
            {
                return true;
            }
            assignment[var] = None;
        }
        false
    }

    /// The monitor as it was before the clock index: the freshly
    /// completed message pinned at each variable, every other variable
    /// scanned over all earlier-completed candidates with [`search`].
    /// Kept as the oracle [`Monitor`]'s witnesses are compared against.
    struct ScanMonitor<'p> {
        prep: Prepared<'p>,
        /// For each variable `v`: the assignment order of the *other*
        /// variables (most-connected first), used when `v` is pinned to
        /// the freshly completed message.
        order_without: Vec<Vec<usize>>,
        candidates: Vec<Vec<MessageId>>,
        witness: Option<Vec<MessageId>>,
    }

    impl<'p> ScanMonitor<'p> {
        fn new(pred: &'p ForbiddenPredicate) -> Self {
            let prep = Prepared::new(pred);
            let order_without = (0..pred.var_count())
                .map(|v| {
                    prep.order
                        .iter()
                        .copied()
                        .filter(|&o| o != v)
                        .collect::<Vec<_>>()
                })
                .collect();
            let candidates = vec![Vec::new(); pred.var_count()];
            ScanMonitor {
                prep,
                order_without,
                candidates,
                witness: None,
            }
        }

        fn passes_filters<V: OrderView>(&self, view: &V, var: usize, m: MessageId) -> bool {
            self.prep.color_filters[var]
                .iter()
                .all(|&(color, want)| view.meta(m).has_color(color) == want)
        }

        fn on_complete<V: OrderView>(&mut self, view: &V, m: MessageId) -> Option<&[MessageId]> {
            if self.witness.is_none() {
                let vars = self.prep.pred.var_count();
                let mut assignment = vec![None; vars];
                for v in 0..vars {
                    if !self.passes_filters(view, v, m) {
                        continue;
                    }
                    assignment[v] = Some(m);
                    let mut result = None;
                    if consistent(self.prep.pred, view, &assignment, Var(v), m)
                        && search(
                            self.prep.pred,
                            view,
                            &self.order_without[v],
                            &self.candidates,
                            &mut assignment,
                            0,
                            &mut |a| {
                                result = Some(a.to_vec());
                                true
                            },
                        )
                    {
                        self.witness = result;
                        break;
                    }
                    assignment[v] = None;
                }
                if self.witness.is_none() {
                    for v in 0..vars {
                        if self.passes_filters(view, v, m) {
                            self.candidates[v].push(m);
                        }
                    }
                }
            }
            self.witness.as_deref()
        }
    }

    /// A random schedule of `m` messages started in id order with at
    /// most `window` of them in flight: `(message, stage)` steps, stage
    /// `0..4` = `s*`, `s`, `r*`, `r`.
    fn windowed_schedule(rng: &mut Rng, m: usize, window: usize) -> Vec<(usize, usize)> {
        let mut stage = vec![0usize; m];
        let mut started = 0;
        let mut steps = Vec::with_capacity(4 * m);
        loop {
            let mut enabled: Vec<usize> = (0..started).filter(|&i| stage[i] < 4).collect();
            if enabled.len() < window && started < m {
                enabled.push(started);
            }
            if enabled.is_empty() {
                return steps;
            }
            let i = enabled[rng.below(enabled.len())];
            started = started.max(i + 1);
            steps.push((i, stage[i]));
            stage[i] += 1;
        }
    }

    /// Replays `steps` into `run`, handing each completion to `feed`
    /// only once `lag()` further completions are in the view, and the
    /// rest — everything, if `lag()` is never reached — in completion
    /// order after the last step.
    fn replay_feeding(
        run: &mut msgorder_runs::StreamingRun,
        steps: &[(usize, usize)],
        mut lag: impl FnMut() -> usize,
        mut feed: impl FnMut(&msgorder_runs::StreamingRun, MessageId),
    ) {
        let mut fed = 0usize;
        let mut hold = lag();
        for &(i, stage) in steps {
            let msg = MessageId(i);
            match stage {
                0 => run.invoke(msg).unwrap(),
                1 => run.send(msg).unwrap(),
                2 => run.receive(msg).unwrap(),
                _ => run.deliver(msg).unwrap(),
            };
            if run.completed().len() > fed.saturating_add(hold) {
                for &done in &run.completed()[fed..] {
                    feed(run, done);
                }
                fed = run.completed().len();
                hold = lag();
            }
        }
        for &done in &run.completed()[fed..] {
            feed(run, done);
        }
    }

    /// Declares `m` messages over `n` processes for the witness
    /// differentials. From message `plain` on, every fifth is red, and
    /// two more colors give the catalog's color-restricted entries
    /// messages to bind.
    fn declare_colored(
        rng: &mut Rng,
        n: usize,
        m: usize,
        plain: usize,
    ) -> msgorder_runs::StreamingRun {
        let mut declared = msgorder_runs::StreamingRun::new(n);
        for i in 0..m {
            let (src, dst) = (rng.below(n), rng.below(n));
            match if i < plain { 0 } else { i % 5 } {
                4 => declared.message_colored(src, dst, "red"),
                1 => declared.message_colored(src, dst, "s1"),
                2 => declared.message_colored(src, dst, "handoff"),
                _ => declared.message(src, dst),
            };
        }
        declared
    }

    /// The hand-written differential predicates, then every catalog
    /// entry.
    fn differential_predicates() -> (Vec<ForbiddenPredicate>, Vec<ForbiddenPredicate>) {
        let hand = [
            "forbid x, y: x.s < y.s & y.r < x.r",
            "forbid x, y: x.s < y.s & y.r < x.r \
             where proc(x.s) = proc(y.s), proc(x.r) = proc(y.r)",
            "forbid x1, x2, x3: x1.s < x2.s & x2.s < x3.s & x3.r < x1.r",
            "forbid x, y: x.s < y.r & y.s < x.r",
            "forbid x, y: x.s < y.s & y.r < x.r where color(y) = red",
            // `z` touches nothing bound when it is reached: the
            // full-candidate-list fallback.
            "forbid x, y, z: x.s < y.s & z.r < x.r",
            "forbid x, y: x.r < y.s",
        ]
        .map(|p| ForbiddenPredicate::parse(p).unwrap());
        let catalog = crate::catalog::all().into_iter().map(|e| e.predicate);
        (hand.into(), catalog.collect())
    }

    /// Replays `steps` over a clone of `declared` once per feed — `live`,
    /// one completion at a time; `batched`, with the view ahead of the
    /// feed (how the kernel notifies observers); `late`, from the
    /// finished run (how a recorded trace is re-verified) — and asserts
    /// that the clock-index monitor, and the monitor that decides a
    /// crossing pair by join, report the full scan's witness after every
    /// completion and that the feeds agree. Returns the witness.
    fn assert_full_scan_witness(
        rng: &mut Rng,
        declared: &msgorder_runs::StreamingRun,
        steps: &[(usize, usize)],
        pred: &ForbiddenPredicate,
        seed: u64,
        feeds: &[&str],
    ) -> Option<Vec<MessageId>> {
        let mut witnesses = Vec::new();
        for &feed in feeds {
            let mut run = declared.clone();
            let (mut joined, mut indexed) = (Monitor::new(pred), Monitor::indexed(pred));
            let mut scan = ScanMonitor::new(pred);
            let lag = || match feed {
                "live" => 0,
                "batched" => 1 + rng.below(3),
                _ => usize::MAX,
            };
            replay_feeding(&mut run, steps, lag, |view, done| {
                let want = scan.on_complete(view, done);
                assert_eq!(
                    indexed.on_complete(view, done),
                    want,
                    "seed {seed}, {pred}, {feed} feed: witness after {done:?}"
                );
                assert_eq!(
                    joined.on_complete(view, done),
                    want,
                    "seed {seed}, {pred}, {feed} feed: joined witness after {done:?}"
                );
            });
            let scanned: usize = scan.candidates.iter().map(Vec::len).sum();
            assert_eq!(indexed.live_state(), scanned);
            assert_eq!(joined.live_state(), scanned);
            witnesses.push(indexed.witness().map(<[_]>::to_vec));
        }
        for (feed, witness) in feeds.iter().zip(&witnesses) {
            assert_eq!(witness, &witnesses[0], "seed {seed}, {pred}: {feed}");
        }
        witnesses.swap_remove(0)
    }

    /// The clock-index monitor finds, after *every* completion and on
    /// every feed, exactly the witness the full scan finds, for the
    /// hand-written predicates on every run and for every catalog entry
    /// on every run of at most 8 messages and every eighth longer one.
    /// The scan pins one variable and walks the rest, about
    /// `m^(arity − 1)` steps per completion, so the entries of four and
    /// five variables skip the longer runs.
    #[test]
    fn monitor_witness_is_the_full_scan_witness_on_every_feed() {
        let (hand, catalog) = differential_predicates();
        let (mut violating, mut clean) = (0, 0);
        let mut catalog_runs = vec![0; catalog.len()];
        for seed in 0..400u64 {
            let mut rng = Rng(0xd1ff_0bad ^ (seed << 1) | 1);
            let n = 2 + rng.below(3);
            let m = 4 + rng.below(40);
            let window = 1 + rng.below(6);
            let declared = declare_colored(&mut rng, n, m, 0);
            let steps = windowed_schedule(&mut rng, m, window);
            let picked = (0..catalog.len())
                .filter(|&i| m <= 8 || (seed % 8 == 0 && catalog[i].var_count() <= 3))
                .inspect(|&i| catalog_runs[i] += 1);
            for pred in hand.iter().chain(picked.map(|i| &catalog[i])) {
                let feeds = ["live", "batched", "late"];
                match assert_full_scan_witness(&mut rng, &declared, &steps, pred, seed, &feeds) {
                    Some(_) => violating += 1,
                    None => clean += 1,
                }
            }
        }
        assert!(
            violating >= 1000 && clean >= 1000,
            "one verdict is vacuous: {violating} violating, {clean} clean"
        );
        assert!(
            catalog_runs.iter().all(|&runs| runs >= 30),
            "a catalog entry is checked on too few runs: {catalog_runs:?}"
        );
    }

    /// The same differential, fed live, on runs of hundreds of messages
    /// with up to 64 in flight, for every two-variable predicate: index
    /// lists long enough that the searches from the end gallop far back.
    /// Colors start halfway, so a color-restricted entry's first witness
    /// is found over long lists, and the unsatisfiable entries keep both
    /// monitors searching to the last completion.
    #[test]
    fn monitor_witness_is_the_full_scan_witness_on_long_runs() {
        let (hand, catalog) = differential_predicates();
        let mut clean = 0;
        for seed in 0..6u64 {
            let mut rng = Rng(0x1046_5eed ^ (seed << 1) | 1);
            let n = 2 + rng.below(3);
            let m = 300 + rng.below(301);
            let window = 1 + rng.below(64);
            let declared = declare_colored(&mut rng, n, m, m / 2);
            let steps = windowed_schedule(&mut rng, m, window);
            for pred in hand.iter().chain(&catalog).filter(|p| p.var_count() == 2) {
                if assert_full_scan_witness(&mut rng, &declared, &steps, pred, seed, &["live"])
                    .is_none()
                {
                    clean += 1;
                }
            }
        }
        assert!(clean >= 18, "only {clean} runs stayed clean to the end");
    }

    #[test]
    fn partition_from_end_is_partition_point() {
        for len in 0..=70usize {
            let list: Vec<usize> = (0..len).collect();
            for boundary in 0..=len {
                let mut probes = 0u32;
                let at = partition_from_end(&list, |&x| {
                    probes += 1;
                    x < boundary
                });
                assert_eq!(
                    at,
                    list.partition_point(|&x| x < boundary),
                    "len {len}, boundary {boundary}"
                );
                // Probes grow with the distance from the end, not the length.
                let from_end = len - boundary;
                assert!(
                    probes <= 2 * (usize::BITS - from_end.leading_zeros()) + 1,
                    "len {len}, boundary {boundary}: {probes} probes"
                );
            }
        }
    }

    #[test]
    fn monitor_ignores_a_message_the_view_has_not_completed() {
        use msgorder_runs::StreamingRun;
        let pred = causal();
        let mut mon = Monitor::new(&pred);
        let mut s = StreamingRun::new(2);
        let x = s.message(0, 1);
        let y = s.message(0, 1);
        s.invoke(x).unwrap().send(x).unwrap();
        s.transmit(y).unwrap();
        // `x` is sent but not delivered, `MessageId(7)` was never
        // declared: neither has both clocks, neither is fed.
        assert_eq!(mon.on_complete(&s, x), None);
        assert_eq!(mon.on_complete(&s, MessageId(7)), None);
        assert_eq!((mon.completed_seen(), mon.live_state()), (0, 0));
        // A view without clocks completes nothing.
        assert_eq!(mon.on_complete(&overtaking_run(), MessageId(0)), None);
        assert_eq!(mon.completed_seen(), 0);
        // Properly fed, the overtaking is found — and then reported even
        // for a message that is not in the view.
        assert_eq!(mon.on_complete(&s, y), None);
        s.receive(x).unwrap().deliver(x).unwrap();
        assert_eq!(mon.on_complete(&s, x), Some(&[x, y][..]));
        assert_eq!(mon.on_complete(&s, MessageId(7)), Some(&[x, y][..]));
        assert_eq!(mon.completed_seen(), 2);
    }

    /// The generic [`search`] driven directly over the run as an
    /// [`OrderView`] — the reference the word-mask last step must match.
    fn generic_reference(
        prep: &Prepared<'_>,
        run: &UserRun,
        cap: usize,
    ) -> (Option<Vec<MessageId>>, usize) {
        let mut candidates = Vec::new();
        prep.fill_candidates(run, &mut candidates);
        let mut assignment = vec![None; prep.pred.var_count()];
        let mut first = None;
        let mut count = 0usize;
        search(
            prep.pred,
            run,
            &prep.order,
            &candidates,
            &mut assignment,
            0,
            &mut |a| {
                if first.is_none() {
                    first = Some(a.to_vec());
                }
                count += 1;
                count >= cap
            },
        );
        (first, count)
    }

    #[test]
    fn and_shifted_is_a_right_shift_across_words() {
        let src = [
            0x8000_0000_0000_0001u64,
            0xdead_beef_0123_4567,
            0xffff_0000_ffff_0000,
            0x0000_0000_0000_0003,
        ];
        const DST: u64 = 0xf0f0_f0f0_ffff_ffff;
        for len in 0..=src.len() {
            let src = &src[..len];
            for shift in 0..64 {
                let mut dst = vec![DST; len];
                and_shifted(&mut dst, src, shift);
                for (i, &d) in dst.iter().enumerate() {
                    let next = if shift == 0 {
                        0
                    } else {
                        src.get(i + 1).map_or(0, |w| w << (64 - shift))
                    };
                    assert_eq!(
                        d,
                        DST & ((src[i] >> shift) | next),
                        "len {len} shift {shift} word {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn word_mask_leaf_matches_generic_search() {
        use msgorder_runs::generator::{random_user_run, GenParams};
        let preds = [
            ForbiddenPredicate::parse("forbid x, y: x.s < y.s & y.r < x.r").unwrap(),
            ForbiddenPredicate::parse(
                "forbid x, y: x.s < y.s & y.r < x.r \
                 where proc(x.s) = proc(y.s), proc(x.r) = proc(y.r)",
            )
            .unwrap(),
            ForbiddenPredicate::parse("forbid x1, x2, x3: x1.s < x2.s & x2.s < x3.s & x3.r < x1.r")
                .unwrap(),
            ForbiddenPredicate::parse("forbid x: x.s < x.r").unwrap(),
            ForbiddenPredicate::parse("forbid x, y: x.s < y.r & y.s < x.r").unwrap(),
            ForbiddenPredicate::parse("forbid x, y: x.s < y.s & y.r < x.r where color(y) = red")
                .unwrap(),
            // The last variable, `z`, pinned to one process and away
            // from another.
            ForbiddenPredicate::parse(
                "forbid x, y, z: x.s < y.r & z.s < x.r \
                 where proc(x.s) != proc(z.r), proc(y.s) = proc(z.s)",
            )
            .unwrap(),
        ];
        // One scratch for every run and predicate, so a stale buffer shows.
        let mut scratch = EvalScratch::default();
        for seed in 0..40u64 {
            // Every fourth run spans two closure words per row.
            let msgs = if seed % 4 == 3 { 40 } else { 8 };
            let mut run = random_user_run(GenParams::new(3, msgs, seed));
            if seed % 2 == 0 && !run.is_empty() {
                // Exercise the color-filtered candidate mask too.
                let mut metas = run.messages().to_vec();
                let pick = (seed as usize / 2) % metas.len();
                metas[pick].color = Some("red".into());
                run = UserRun::new(metas, run.relation_pairs()).unwrap();
            }
            for pred in &preds {
                let prep = Prepared::new(pred);
                let (want_first, want_count) = generic_reference(&prep, &run, usize::MAX);
                assert_eq!(
                    prep.find_instantiation(&run),
                    want_first,
                    "witness diverges on seed {seed} / {pred}"
                );
                assert_eq!(
                    prep.find_with(&run, &mut scratch)
                        .map(<[MessageId]>::to_vec),
                    want_first,
                    "reused scratch diverges on seed {seed} / {pred}"
                );
                assert_eq!(
                    prep.count_instantiations(&run, usize::MAX),
                    want_count,
                    "count diverges on seed {seed} / {pred}"
                );
            }
        }
    }

    #[test]
    fn three_variable_chain() {
        // k-weaker causal with k = 1: s1 < s2 < s3 & r3 < r1.
        let p =
            ForbiddenPredicate::parse("forbid x1, x2, x3: x1.s < x2.s & x2.s < x3.s & x3.r < x1.r")
                .unwrap();
        let run = UserRun::new(
            meta(&[(0, 1), (0, 1), (0, 1)]),
            [
                (UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))),
                (UserEvent::send(MessageId(1)), UserEvent::send(MessageId(2))),
                (
                    UserEvent::deliver(MessageId(2)),
                    UserEvent::deliver(MessageId(0)),
                ),
            ],
        )
        .unwrap();
        assert!(holds(&p, &run));
        // out of order by only one message: x2 overtaking x1 is fine for k=1
        let mild = UserRun::new(
            meta(&[(0, 1), (0, 1)]),
            [
                (UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))),
                (
                    UserEvent::deliver(MessageId(1)),
                    UserEvent::deliver(MessageId(0)),
                ),
            ],
        )
        .unwrap();
        assert!(!holds(&p, &mild));
    }
}
