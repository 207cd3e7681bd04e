//! [`OrderView`] — the causality interface shared by materialized and
//! streaming runs.
//!
//! Deciding a forbidden predicate takes two questions about a run:
//! *does user event `a` precede user event `b` under `▷`?* and *what
//! are message `m`'s endpoints and color?* Abstracting those queries
//! lets the same consistency check run post-hoc against a
//! [`UserRun`](crate::UserRun) (Fidge clocks on a projection of a run,
//! a bitset transitive closure otherwise) and online
//! against a [`StreamingRun`](crate::StreamingRun) (vector clocks on the
//! live prefix) without materializing the full poset. The online
//! monitor additionally reads the clocks themselves
//! ([`event_clock`](OrderView::event_clock)) to look only where a match
//! can be.

use crate::ids::{MessageId, ProcessId, UserEvent};
use crate::message::MessageMeta;

/// Read-only causality queries over the user's view of a run.
///
/// Implementations must answer [`before`](OrderView::before) with the
/// strict order `▷` of §3.3: process order among user events, the edges
/// `x.s ▷ x.r`, and transitivity. For streaming implementations the
/// relation is over the *live prefix*; because every edge points from an
/// earlier to a later appended event, the answer for two present events
/// never changes as the run grows.
pub trait OrderView {
    /// The strict order `a ▷ b`; `false` if either event is absent.
    fn before(&self, a: UserEvent, b: UserEvent) -> bool;

    /// Metadata (endpoints, color) of message `m`.
    ///
    /// # Panics
    /// May panic if `m` was never declared.
    fn meta(&self, m: MessageId) -> &MessageMeta;

    /// Number of declared messages (bound for message ids).
    fn message_count(&self) -> usize;

    /// The sending process of `m`. Implementations holding endpoints in
    /// struct-of-arrays form override this to skip the [`MessageMeta`]
    /// indirection on the evaluator's hot path.
    fn src(&self, m: MessageId) -> ProcessId {
        self.meta(m).src
    }

    /// The receiving process of `m` (see [`src`](OrderView::src)).
    fn dst(&self, m: MessageId) -> ProcessId {
        self.meta(m).dst
    }

    /// Whether `m` carries `color`.
    fn has_color(&self, m: MessageId, color: &str) -> bool {
        self.meta(m).has_color(color)
    }

    /// The Fidge/Mattern clock stamped on user event `e` — one word per
    /// process, `V(e)[p]` counting the user events of `p` in `e`'s
    /// causal past (`e` included) — or `None` if `e` has not occurred.
    /// Views that answer [`before`](OrderView::before) from a closure
    /// alone keep no clocks and leave this at its default, `None` for
    /// every event.
    fn event_clock(&self, _e: UserEvent) -> Option<&[u64]> {
        None
    }

    /// Whether both of `m`'s user events have occurred: the user's view
    /// holds only complete messages. The default asks `x.s ▷ x.r`,
    /// which holds exactly when both events are present.
    fn is_message_complete(&self, m: MessageId) -> bool {
        self.before(UserEvent::send(m), UserEvent::deliver(m))
    }

    /// `e`'s row of the transitive closure of `▷`, indexed by
    /// [`UserEvent::node`]: its descendants if `after`, else its
    /// ancestors. A view that holds a closure hands it out so a search
    /// can intersect whole words; views that answer from clocks leave
    /// this at its default, `None`.
    fn closure_row(&self, _e: UserEvent, _after: bool) -> Option<&[u64]> {
        None
    }
}

impl OrderView for crate::UserRun {
    fn before(&self, a: UserEvent, b: UserEvent) -> bool {
        crate::UserRun::before(self, a, b)
    }

    fn meta(&self, m: MessageId) -> &MessageMeta {
        self.message(m)
    }

    fn message_count(&self) -> usize {
        self.len()
    }

    fn event_clock(&self, e: UserEvent) -> Option<&[u64]> {
        crate::UserRun::event_clock(self, e)
    }

    fn is_message_complete(&self, _m: MessageId) -> bool {
        true
    }

    /// Builds a projection's closure on the first call: a whole-run
    /// search narrows by rows.
    fn closure_row(&self, e: UserEvent, after: bool) -> Option<&[u64]> {
        let closure = self.closure();
        let row = if after {
            closure.descendants(e.node())
        } else {
            closure.ancestors(e.node())
        };
        Some(row.words())
    }
}

impl<V: OrderView + ?Sized> OrderView for &V {
    fn before(&self, a: UserEvent, b: UserEvent) -> bool {
        (**self).before(a, b)
    }

    fn meta(&self, m: MessageId) -> &MessageMeta {
        (**self).meta(m)
    }

    fn message_count(&self) -> usize {
        (**self).message_count()
    }

    fn src(&self, m: MessageId) -> ProcessId {
        (**self).src(m)
    }

    fn dst(&self, m: MessageId) -> ProcessId {
        (**self).dst(m)
    }

    fn has_color(&self, m: MessageId, color: &str) -> bool {
        (**self).has_color(m, color)
    }

    fn event_clock(&self, e: UserEvent) -> Option<&[u64]> {
        (**self).event_clock(e)
    }

    fn is_message_complete(&self, m: MessageId) -> bool {
        (**self).is_message_complete(m)
    }

    fn closure_row(&self, e: UserEvent, after: bool) -> Option<&[u64]> {
        (**self).closure_row(e, after)
    }
}
