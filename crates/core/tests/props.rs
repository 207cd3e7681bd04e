//! Property tests for the facade.

use msgorder_core::Spec;
use msgorder_predicate::catalog;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Spec::parse is total (errors, never panics).
    #[test]
    fn spec_parse_total(input in "\\PC{0,60}") {
        let _ = Spec::parse(&input);
    }

    /// Analysis of any catalog entry is internally consistent and the
    /// rendered report mentions its own verdict.
    #[test]
    fn analysis_consistent(idx in 0usize..20) {
        let entries = catalog::all();
        let entry = &entries[idx % entries.len()];
        let report = Spec::from_predicate(entry.predicate.clone())
            .named(entry.name)
            .analyze();
        prop_assert_eq!(report.classification().protocol_class(), entry.expected);
        report.verify_witnesses().unwrap();
        let rendered = report.render();
        prop_assert!(rendered.contains(&report.classification().to_string()));
        let json = report.to_json();
        prop_assert_eq!(json["name"].as_str(), Some(entry.name));
    }
}
