//! Aggregated analysis reports.

use crate::spec::Spec;
use msgorder_classifier::classify::{Classification, Report as ClassifyReport};
use msgorder_classifier::witness::{verify_witness, Witness, WitnessKind};
use msgorder_protocols::ProtocolKind;
use serde::Serialize;

/// Everything [`Spec::analyze`] learned about a specification.
#[derive(Debug)]
pub struct AnalysisReport {
    spec: Spec,
    classify: ClassifyReport,
    witnesses: Vec<Witness>,
}

/// The serializable summary row (what EXP-T1 exports as JSON).
#[derive(Debug, Clone, Serialize)]
pub struct SummaryRow {
    /// Specification name.
    pub name: String,
    /// The predicate, rendered in the DSL.
    pub predicate: String,
    /// Vertices of the predicate graph.
    pub vertices: usize,
    /// Edges (conjuncts).
    pub edges: usize,
    /// Number of elementary cycles reported (capped).
    pub cycles: usize,
    /// Minimum order over all cycles, if any.
    pub min_order: Option<usize>,
    /// Verdict string (the §4.3 table column).
    pub verdict: String,
    /// The recommended runnable protocol.
    pub protocol: String,
    /// Number of verified separation witnesses.
    pub witnesses: usize,
}

impl AnalysisReport {
    pub(crate) fn new(spec: Spec, classify: ClassifyReport, witnesses: Vec<Witness>) -> Self {
        AnalysisReport {
            spec,
            classify,
            witnesses,
        }
    }

    /// The specification analyzed.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The classification (protocol class + witness cycle).
    pub fn classification(&self) -> &Classification {
        &self.classify.classification
    }

    /// The full classifier report (graph, cycles, min order).
    pub fn classifier_report(&self) -> &ClassifyReport {
        &self.classify
    }

    /// The Theorem 2/4 separation witnesses.
    pub fn witnesses(&self) -> &[Witness] {
        &self.witnesses
    }

    /// Re-checks every witness against its claims.
    ///
    /// # Errors
    /// Returns the first failed obligation, naming the witness kind.
    pub fn verify_witnesses(&self) -> Result<(), String> {
        for w in &self.witnesses {
            verify_witness(self.spec.predicate(), w).map_err(|e| format!("{:?}: {e}", w.kind))?;
        }
        Ok(())
    }

    /// The runnable protocol this workspace recommends for the class.
    ///
    /// - tagless → the do-nothing [`ProtocolKind::Async`];
    /// - tagged → the [`ProtocolKind::Synthesized`] protocol derived
    ///   from this very predicate;
    /// - control messages → the lock-server [`ProtocolKind::Sync`]
    ///   (which implements `X_sync`, the strongest implementable set);
    /// - not implementable → `None`... except there is always an answer
    ///   here: the method returns `Sync` with `implementable == false`
    ///   callers should check [`Classification::is_implementable`]
    ///   first; for uniformity we still hand back `Async` so callers can
    ///   run *something* and watch it fail.
    pub fn recommendation(&self) -> ProtocolKind {
        match &self.classify.classification {
            Classification::TaglessSufficient { .. } => ProtocolKind::Async,
            Classification::TaggedSufficient { .. } => {
                ProtocolKind::Synthesized(vec![self.spec.predicate().clone()])
            }
            Classification::RequiresControlMessages { .. } => ProtocolKind::Sync,
            Classification::NotImplementable => ProtocolKind::Async,
        }
    }

    /// The flat summary row.
    pub fn summary(&self) -> SummaryRow {
        SummaryRow {
            name: self.spec.name().to_owned(),
            predicate: self.spec.predicate().to_string(),
            vertices: self.classify.graph.as_ref().map_or(0, |g| g.vertex_count()),
            edges: self.classify.graph.as_ref().map_or(0, |g| g.edge_count()),
            cycles: self.classify.cycles.len(),
            min_order: self.classify.min_order,
            verdict: self.classify.classification.to_string(),
            protocol: self.recommendation().name().to_owned(),
            witnesses: self.witnesses.len(),
        }
    }

    /// A human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("=== {} ===\n", self.spec.name()));
        s.push_str(&self.classify.render());
        for w in &self.witnesses {
            let kind = match w.kind {
                WitnessKind::SyncViolation => "run in X_sync violating the spec",
                WitnessKind::CausalViolation => "run in X_co violating the spec",
                WitnessKind::AsyncViolation => "run in X_async violating the spec",
            };
            s.push_str(&format!("witness   : {kind}\n"));
            for line in w.run.render().lines() {
                s.push_str(&format!("            {line}\n"));
            }
        }
        s.push_str(&format!("protocol  : {}\n", self.recommendation().name()));
        s
    }

    /// The summary as a JSON value.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self.summary()).expect("summary serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgorder_predicate::catalog;

    fn analyze(name: &str) -> AnalysisReport {
        let entry = catalog::by_name(name).expect("catalog entry");
        Spec::from_predicate(entry.predicate).named(name).analyze()
    }

    #[test]
    fn causal_report_recommends_synthesized() {
        let r = analyze("causal");
        assert!(r.classification().is_tagged_sufficient());
        assert_eq!(r.recommendation().name(), "synthesized");
        r.verify_witnesses().unwrap();
        assert_eq!(r.witnesses().len(), 1);
    }

    #[test]
    fn handoff_report_recommends_sync() {
        let r = analyze("handoff");
        assert!(!r.classification().is_tagged_sufficient());
        assert_eq!(r.recommendation().name(), "sync");
        r.verify_witnesses().unwrap();
    }

    #[test]
    fn mutual_send_recommends_async() {
        let r = analyze("mutual-send");
        assert!(r.classification().is_tagless_sufficient());
        assert_eq!(r.recommendation().name(), "async");
    }

    #[test]
    fn summary_row_fields() {
        let r = analyze("fifo");
        let s = r.summary();
        assert_eq!(s.name, "fifo");
        assert_eq!(s.vertices, 2);
        assert_eq!(s.edges, 2);
        assert_eq!(s.min_order, Some(1));
        assert_eq!(s.protocol, "synthesized");
        assert_eq!(s.witnesses, 1);
    }

    #[test]
    fn render_includes_witness_and_protocol() {
        let r = analyze("causal");
        let text = r.render();
        assert!(text.contains("verdict"));
        assert!(text.contains("witness"));
        assert!(text.contains("protocol  : synthesized"));
    }

    #[test]
    fn json_roundtrip() {
        let r = analyze("sync-crown-2");
        let v = r.to_json();
        assert_eq!(v["name"], "sync-crown-2");
        assert_eq!(v["min_order"], 2);
        assert_eq!(v["protocol"], "sync");
    }
}
