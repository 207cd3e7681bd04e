//! The experiment runner end to end: every in-runner `assert!` on a
//! paper claim holds (the process exits 0), the printed tables do not
//! depend on the batch engine's width, and a filter naming no
//! experiment is refused without touching an existing digest.

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

fn run(dir: &Path, threads: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .env("MSGORDER_THREADS", threads)
        .output()
        .expect("runs the experiments binary")
}

/// Stdout minus the lines that legitimately vary: the engine banner and
/// the per-experiment wall-clock lines.
fn tables(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.starts_with("[batch engine:"))
        .filter(|l| !(l.starts_with("[EXP-") && l.ends_with(" ms]")))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn every_experiment_passes_and_prints_the_same_tables_at_one_and_two_threads() {
    let dir = scratch_dir("all");
    let outs: Vec<Output> = ["1", "2"].iter().map(|t| run(&dir, t, &[])).collect();
    for (out, threads) in outs.iter().zip([1, 2]) {
        assert!(
            out.status.success(),
            "experiments failed at {threads} thread(s):\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let (one, two) = (tables(&outs[0]), tables(&outs[1]));
    assert!(one.contains("================ EXP-T1 ================"));
    assert!(one == two, "stdout differs between 1 and 2 threads");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_filter_matching_no_experiment_fails_and_keeps_the_digest() {
    let dir = scratch_dir("nomatch");
    std::fs::create_dir(dir.join("target")).expect("creates target/");
    let digest = dir.join("target/experiments.json");
    std::fs::write(&digest, b"{\"EXP-T1\": \"kept\"}").expect("writes the old digest");

    let out = run(&dir, "1", &["zz"]);
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
