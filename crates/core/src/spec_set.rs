//! Multi-predicate specifications: intersections `∩ X_Bi`.
//!
//! Several specifications in the paper are naturally families rather
//! than single predicates — `X_sync` itself is defined by forbidding
//! crowns of *every* size `k ≥ 2` (§3.4). Since each `X_Bi` sits above
//! one of the three limit sets, the intersection's class is simply the
//! *most demanding* member's class:
//!
//! - implementable ⟺ `X_sync ⊆ ∩ X_Bi` ⟺ every member implementable;
//! - tagged sufficient ⟺ `X_co ⊆ ∩ X_Bi` ⟺ every member tagged-or-less;
//! - tagless sufficient ⟺ every member tagless.

use crate::spec::Spec;
use msgorder_classifier::classify::classify;
use msgorder_predicate::catalog::{self, PaperClass};
use msgorder_predicate::{ForbiddenPredicate, ParseError};
use msgorder_protocols::ProtocolKind;
use std::fmt;

/// A specification given as a set of forbidden predicates; the intended
/// behaviour set is the intersection of the members' `X_B`s.
#[derive(Debug, Clone)]
pub struct SpecSet {
    name: String,
    members: Vec<ForbiddenPredicate>,
}

impl SpecSet {
    /// An empty set (the universal specification `X_async`).
    pub fn new(name: &str) -> SpecSet {
        SpecSet {
            name: name.to_owned(),
            members: Vec::new(),
        }
    }

    /// Builds from predicates.
    pub fn from_predicates<I>(name: &str, preds: I) -> SpecSet
    where
        I: IntoIterator<Item = ForbiddenPredicate>,
    {
        SpecSet {
            name: name.to_owned(),
            members: preds.into_iter().collect(),
        }
    }

    /// Parses each source string with the predicate DSL.
    ///
    /// # Errors
    /// Returns the first member's parse error.
    pub fn parse_all<'a, I>(name: &str, sources: I) -> Result<SpecSet, ParseError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut members = Vec::new();
        for src in sources {
            members.push(ForbiddenPredicate::parse(src)?);
        }
        Ok(SpecSet {
            name: name.to_owned(),
            members,
        })
    }

    /// The bounded approximation of full logical synchrony: forbid every
    /// crown of size `2..=max_k`. (The exact `X_sync` is the limit
    /// `max_k → ∞`; each finite family is already control-message
    /// class.)
    pub fn logical_synchrony(max_k: usize) -> SpecSet {
        SpecSet {
            name: format!("logical-synchrony(k<={max_k})"),
            members: (2..=max_k).map(catalog::sync_crown).collect(),
        }
    }

    /// Adds a member.
    #[must_use]
    pub fn and(mut self, pred: ForbiddenPredicate) -> SpecSet {
        self.members.push(pred);
        self
    }

    /// The member predicates.
    pub fn members(&self) -> &[ForbiddenPredicate] {
        &self.members
    }

    /// The name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The combined protocol class: the most demanding member's class.
    /// An empty set is `X_async` — tagless.
    pub fn combined_class(&self) -> PaperClass {
        let mut worst = PaperClass::Tagless;
        for pred in &self.members {
            let class = classify(pred).classification.protocol_class();
            worst = match (worst, class) {
                (_, PaperClass::Unimplementable) | (PaperClass::Unimplementable, _) => {
                    PaperClass::Unimplementable
                }
                (_, PaperClass::General) | (PaperClass::General, _) => PaperClass::General,
                (_, PaperClass::Tagged) | (PaperClass::Tagged, _) => PaperClass::Tagged,
                _ => PaperClass::Tagless,
            };
        }
        worst
    }

    /// The recommended runnable protocol for the intersection.
    pub fn recommendation(&self) -> ProtocolKind {
        match self.combined_class() {
            PaperClass::Tagless => ProtocolKind::Async,
            PaperClass::Tagged => ProtocolKind::Synthesized(self.members.clone()),
            PaperClass::General => ProtocolKind::Sync,
            PaperClass::Unimplementable => ProtocolKind::Async,
        }
    }

    /// Per-member analysis reports.
    pub fn member_reports(&self) -> Vec<crate::report::AnalysisReport> {
        self.members
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Spec::from_predicate(p.clone())
                    .named(&format!("{}[{i}]", self.name))
                    .analyze()
            })
            .collect()
    }

    /// A multi-line rendering: member table + combined verdict.
    pub fn render(&self) -> String {
        let mut s = format!(
            "=== {} (intersection of {} members) ===\n",
            self.name,
            self.members.len()
        );
        for (i, pred) in self.members.iter().enumerate() {
            let class = classify(pred).classification.protocol_class();
            s.push_str(&format!("  [{i}] {pred}\n        -> {class}\n"));
        }
        s.push_str(&format!("combined : {}\n", self.combined_class()));
        s.push_str(&format!("protocol : {}\n", self.recommendation().name()));
        s
    }
}

impl fmt::Display for SpecSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_is_tagless() {
        let s = SpecSet::new("anything-goes");
        assert_eq!(s.combined_class(), PaperClass::Tagless);
        assert_eq!(s.recommendation().name(), "async");
    }

    #[test]
    fn tagged_members_stay_tagged() {
        let s = SpecSet::from_predicates(
            "fifo+flush",
            [catalog::fifo(), catalog::global_forward_flush()],
        );
        assert_eq!(s.combined_class(), PaperClass::Tagged);
        assert_eq!(s.recommendation().name(), "synthesized");
    }

    #[test]
    fn one_general_member_forces_control_messages() {
        let s = SpecSet::from_predicates("causal+crown", [catalog::causal()])
            .and(catalog::sync_crown(2));
        assert_eq!(s.combined_class(), PaperClass::General);
        assert_eq!(s.recommendation().name(), "sync");
    }

    #[test]
    fn unimplementable_member_poisons_the_set() {
        let s = SpecSet::from_predicates(
            "mixed",
            [catalog::fifo(), catalog::receive_second_before_first()],
        );
        assert_eq!(s.combined_class(), PaperClass::Unimplementable);
    }

    #[test]
    fn logical_synchrony_family() {
        let s = SpecSet::logical_synchrony(5);
        assert_eq!(s.members().len(), 4);
        assert_eq!(s.combined_class(), PaperClass::General);
    }

    #[test]
    fn parse_all_and_render() {
        let s = SpecSet::parse_all(
            "pair",
            [
                "forbid x, y: x.s < y.s & y.r < x.r",
                "forbid x, y: x.s < y.s & y.r < x.r where color(y) = red",
            ],
        )
        .unwrap();
        assert_eq!(s.members().len(), 2);
        let text = s.render();
        assert!(text.contains("combined : tagging sufficient"));
        assert!(text.contains("[1]"));
        assert_eq!(s.member_reports().len(), 2);
    }

    #[test]
    fn parse_all_propagates_errors() {
        assert!(SpecSet::parse_all("bad", ["forbid x: x.s <"]).is_err());
    }
}
