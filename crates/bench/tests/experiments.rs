//! The experiment runner end to end: every in-runner `assert!` on a
//! paper claim holds (the process exits 0), the digest holds exactly the
//! experiments' results, and a filter naming no experiment is refused
//! without touching an existing digest.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh working directory, so the runner never writes into the
/// caller's `target/`.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "msgorder-experiments-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creates the scratch dir");
    dir
}

fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("runs the experiments binary")
}

#[test]
fn every_experiment_passes_and_the_digest_holds_only_results() {
    let dir = scratch_dir("all");
    std::fs::create_dir(dir.join("target")).expect("creates target/");
    let out = run(&dir, &[]);
    assert!(
        out.status.success(),
        "experiments failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("================ EXP-T1 ================"));
    let ids: BTreeSet<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("================ "))
        .filter_map(|l| l.strip_suffix(" ================"))
        .collect();
    let digest = std::fs::read(dir.join("target/experiments.json")).expect("writes the digest");
    let digest: BTreeMap<String, serde_json::Value> =
        serde_json::from_slice(&digest).expect("the digest is a JSON object");
    assert_eq!(
        digest.keys().map(String::as_str).collect::<BTreeSet<_>>(),
        ids
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_filter_matching_no_experiment_fails_and_keeps_the_digest() {
    let dir = scratch_dir("nomatch");
    std::fs::create_dir(dir.join("target")).expect("creates target/");
    let digest = dir.join("target/experiments.json");
    std::fs::write(&digest, b"{\"EXP-T1\": \"kept\"}").expect("writes the old digest");

    let out = run(&dir, &["zz"]);
    assert!(!out.status.success(), "a filter matching nothing must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`zz` matches no experiment"), "{stderr}");
    assert!(
        stderr.contains("EXP-T1") && stderr.contains("EXP-O1"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run");
    assert_eq!(std::fs::read(&digest).unwrap(), b"{\"EXP-T1\": \"kept\"}");
    let _ = std::fs::remove_dir_all(&dir);
}
