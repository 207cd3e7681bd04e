//! The predicate-analysis subcommands: `classify`, `explain`, `file`,
//! `catalog`, `witness` and `dot`.

use msgorder::classifier::classify::classify as classify_predicate;
use msgorder::classifier::dot::to_dot;
use msgorder::core::Spec;
use msgorder::predicate::{catalog as spec_catalog, ForbiddenPredicate};
use msgorder::trace::parse_spec;

fn predicate_arg(args: &[String]) -> Result<ForbiddenPredicate, String> {
    let src = args
        .first()
        .ok_or_else(|| "expected a predicate argument".to_owned())?;
    parse_spec(src).map_err(|e| e.to_string())
}

pub fn classify(args: &[String]) -> Result<(), String> {
    let pred = predicate_arg(args)?;
    let report = Spec::from_predicate(pred).named("cli").analyze();
    print!("{}", report.render());
    Ok(())
}

pub fn explain(args: &[String]) -> Result<(), String> {
    let pred = predicate_arg(args)?;
    let e = msgorder::classifier::explain::explain(&pred);
    print!("{}", e.render());
    if !e.witnesses_verified() {
        return Err("a witness failed verification".into());
    }
    Ok(())
}

pub fn file(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("expected a spec-file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let specs = msgorder::predicate::parse::parse_file(&text).map_err(|e| e.to_string())?;
    if specs.is_empty() {
        return Err("no specs in file".into());
    }
    println!("{:<24} {:>9}  {:<28}", "spec", "min-order", "verdict");
    println!("{}", "-".repeat(64));
    for (name, pred) in specs {
        let report = classify_predicate(&pred);
        println!(
            "{:<24} {:>9}  {:<28}",
            name,
            report.min_order.map_or("-".to_owned(), |o| o.to_string()),
            report.classification.to_string()
        );
    }
    Ok(())
}

pub fn catalog() -> Result<(), String> {
    println!(
        "{:<28} {:>9}  {:<28} {:<20}",
        "specification", "min-order", "verdict", "paper reference"
    );
    println!("{}", "-".repeat(92));
    for entry in spec_catalog::all() {
        let report = classify_predicate(&entry.predicate);
        println!(
            "{:<28} {:>9}  {:<28} {:<20}",
            entry.name,
            report.min_order.map_or("-".to_owned(), |o| o.to_string()),
            report.classification.to_string(),
            entry.paper_ref
        );
    }
    Ok(())
}

pub fn witness(args: &[String]) -> Result<(), String> {
    let pred = predicate_arg(args)?;
    let report = Spec::from_predicate(pred).named("cli").analyze();
    report.verify_witnesses()?;
    if report.witnesses().is_empty() {
        println!("no separation witness needed: the trivial protocol already suffices.");
        return Ok(());
    }
    for w in report.witnesses() {
        println!("witness kind: {:?}", w.kind);
        println!("{}", w.run.render());
    }
    Ok(())
}

pub fn dot(args: &[String]) -> Result<(), String> {
    let pred = predicate_arg(args)?;
    let report = classify_predicate(&pred);
    let Some(graph) = &report.graph else {
        return Err("predicate is unsatisfiable after normalization; no graph".into());
    };
    let best = report.cycles.iter().min_by_key(|c| (c.order(), c.len()));
    print!("{}", to_dot(graph, best));
    Ok(())
}
