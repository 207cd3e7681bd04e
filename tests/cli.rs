//! End-to-end tests of the `msgorder` CLI binary.

use std::process::Command;

fn msgorder(args: &[&str]) -> (bool, String, String) {
    let exe = env!("CARGO_BIN_EXE_msgorder");
    let out = Command::new(exe).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = msgorder(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("classify"));
}

#[test]
fn classify_dsl_predicate() {
    let (ok, stdout, _) = msgorder(&["classify", "forbid x, y: x.s < y.s & y.r < x.r"]);
    assert!(ok);
    assert!(stdout.contains("tagging sufficient"));
    assert!(stdout.contains("min order : 1"));
}

#[test]
fn classify_catalog_name() {
    let (ok, stdout, _) = msgorder(&["classify", "handoff"]);
    assert!(ok);
    assert!(stdout.contains("control messages required"));
}

#[test]
fn classify_rejects_bad_dsl() {
    let (ok, _, stderr) = msgorder(&["classify", "forbid x: x.s <"]);
    assert!(!ok);
    assert!(stderr.contains("error"));
}

#[test]
fn catalog_lists_everything() {
    let (ok, stdout, _) = msgorder(&["catalog"]);
    assert!(ok);
    for name in ["fifo", "causal", "handoff", "receive-second-before-first"] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn witness_for_tagless_spec_says_none_needed() {
    let (ok, stdout, _) = msgorder(&["witness", "mutual-send"]);
    assert!(ok);
    assert!(stdout.contains("no separation witness needed"));
}

#[test]
fn witness_for_causal_prints_run() {
    let (ok, stdout, _) = msgorder(&["witness", "causal"]);
    assert!(ok);
    assert!(stdout.contains("AsyncViolation"));
    assert!(stdout.contains("▷"));
}

#[test]
fn dot_outputs_graphviz() {
    let (ok, stdout, _) = msgorder(&["dot", "causal"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("β"));
}

#[test]
fn simulate_with_verification() {
    let (ok, stdout, _) = msgorder(&[
        "simulate",
        "--protocol",
        "causal-rst",
        "--processes",
        "3",
        "--messages",
        "10",
        "--seed",
        "2",
        "--spec",
        "causal",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("live          : true"));
    assert!(stdout.contains("spec          : satisfied"));
    assert!(stdout.contains("in X_co       : true"));
}

#[test]
fn simulate_timeline_renders() {
    let (ok, stdout, _) = msgorder(&[
        "simulate",
        "--protocol",
        "fifo",
        "--processes",
        "2",
        "--messages",
        "2",
        "--timeline",
    ]);
    assert!(ok);
    assert!(stdout.contains("time diagram:"));
    assert!(stdout.contains("P0 |"));
    assert!(stdout.contains("m0.s*"));
}

#[test]
fn simulate_synthesized_requires_spec() {
    let (ok, _, stderr) = msgorder(&["simulate", "--protocol", "synthesized"]);
    assert!(!ok);
    assert!(stderr.contains("requires --spec"));
}

#[test]
fn explain_renders_argument() {
    let (ok, stdout, _) = msgorder(&["explain", "causal"]);
    assert!(ok);
    assert!(stdout.contains("because"));
    assert!(stdout.contains("Theorems 3.2/4.3"));
    assert!(stdout.contains("[verified]"));
}

#[test]
fn file_command_classifies_spec_file() {
    let dir = std::env::temp_dir().join("msgorder-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("specs.mo");
    std::fs::write(
        &path,
        "a = forbid x, y: x.s < y.s & y.r < x.r\n\n\
         b = forbid x, y: x.s < y.r & y.s < x.r\n",
    )
    .unwrap();
    let (ok, stdout, _) = msgorder(&["file", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("tagging sufficient"));
    assert!(stdout.contains("control messages required"));
}

#[test]
fn file_command_missing_path_fails() {
    let (ok, _, stderr) = msgorder(&["file", "/nonexistent/specs.mo"]);
    assert!(!ok);
    assert!(stderr.contains("error"));
}

#[test]
fn unknown_command_fails() {
    let (ok, _, stderr) = msgorder(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn unknown_protocol_fails() {
    let (ok, _, stderr) = msgorder(&["simulate", "--protocol", "quantum"]);
    assert!(!ok);
    assert!(stderr.contains("unknown protocol"));
}

#[test]
fn simulate_record_then_replay_round_trips() {
    let dir = std::env::temp_dir().join("msgorder-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.jsonl");
    let path = path.to_str().unwrap();
    let (ok, stdout, stderr) = msgorder(&[
        "simulate",
        "--protocol",
        "fifo",
        "--processes",
        "3",
        "--messages",
        "8",
        "--seed",
        "6",
        "--spec",
        "fifo",
        "--reliable",
        "--drop",
        "0.3",
        "--record",
        path,
    ]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("trace         :"), "{stdout}");
    assert!(stdout.contains("fingerprint"), "{stdout}");

    let (ok, stdout, stderr) = msgorder(&["replay", path]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("fingerprint   : ok"), "{stdout}");
    assert!(stdout.contains("events identical"), "{stdout}");
    assert!(stdout.contains("REPLAY OK"), "{stdout}");
}

#[test]
fn replay_flags_a_tampered_trace() {
    let dir = std::env::temp_dir().join("msgorder-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tampered.jsonl");
    let (ok, _, _) = msgorder(&[
        "simulate",
        "--protocol",
        "fifo",
        "--processes",
        "3",
        "--messages",
        "5",
        "--seed",
        "8",
        "--record",
        path.to_str().unwrap(),
    ]);
    assert!(ok);
    // Corrupt one wire delay in place.
    let text = std::fs::read_to_string(&path).unwrap();
    let tampered = text.replacen("\"delay\":", "\"delay\":1", 1);
    assert_ne!(text, tampered, "tampering must change the file");
    std::fs::write(&path, tampered).unwrap();
    let (ok, stdout, stderr) = msgorder(&["replay", path.to_str().unwrap()]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("MISMATCH"), "{stdout}");
    assert!(stderr.contains("diverged"), "{stderr}");
}

#[test]
fn simulate_metrics_report() {
    let (ok, stdout, stderr) = msgorder(&[
        "simulate",
        "--protocol",
        "causal-rst",
        "--processes",
        "3",
        "--messages",
        "10",
        "--seed",
        "2",
        "--spec",
        "causal",
        "--online",
        "--metrics",
    ]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("metrics:"), "{stdout}");
    assert!(stdout.contains("delivery latency"), "{stdout}");
    assert!(stdout.contains("monitor searches"), "{stdout}");
    assert!(stdout.contains("histogram (ticks):"), "{stdout}");
}

#[test]
fn simulate_metrics_report_lists_rejected_frames() {
    let (ok, stdout, stderr) = msgorder(&[
        "simulate",
        "--protocol",
        "causal-rst",
        "--spec",
        "causal",
        "--corrupt",
        "0.3",
        "--reliable",
        "--seed",
        "1",
        "--metrics",
    ]);
    assert!(ok, "{stdout}{stderr}");
    // The run summary (kernel stats) and the metrics block (registry)
    // must tell the same story about the frames the protocol refused.
    let summary = stdout
        .lines()
        .find_map(|l| l.strip_prefix("rejected      : "))
        .expect("adversarial summary line");
    assert_ne!(summary, "0", "seed 1 corrupts frames the protocol rejects");
    assert!(
        stdout.contains(&format!(
            "rejected frames     {summary} (malformed {summary})"
        )),
        "{stdout}"
    );
}

#[test]
fn replay_metrics_from_recorded_events() {
    let dir = std::env::temp_dir().join("msgorder-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.jsonl");
    let path = path.to_str().unwrap();
    let (ok, _, _) = msgorder(&[
        "simulate",
        "--protocol",
        "sync",
        "--processes",
        "3",
        "--messages",
        "6",
        "--seed",
        "1",
        "--record",
        path,
    ]);
    assert!(ok);
    let (ok, stdout, _) = msgorder(&["replay", path, "--metrics"]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("metrics (from the recorded events):"),
        "{stdout}"
    );
    assert!(stdout.contains("wire frames"), "{stdout}");
}

#[test]
fn golden_trace_replays() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace-v3.jsonl");
    let (ok, stdout, stderr) = msgorder(&["replay", golden]);
    assert!(ok, "golden trace must keep replaying: {stdout}{stderr}");
    assert!(stdout.contains("REPLAY OK"), "{stdout}");
    assert!(stdout.contains("events identical"), "{stdout}");
}

#[test]
fn shrink_minimizes_a_stalled_trace_end_to_end() {
    let dir = std::env::temp_dir().join("msgorder-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let raw = dir.join("shrink-raw.jsonl");
    let raw = raw.to_str().unwrap();
    let min = dir.join("shrink-min.jsonl");
    let min = min.to_str().unwrap();
    // Reliable FIFO wedged by a permanent crash under drop: non-live.
    let (ok, stdout, _) = msgorder(&[
        "simulate",
        "--protocol",
        "fifo",
        "--reliable",
        "--processes",
        "3",
        "--messages",
        "12",
        "--seed",
        "3",
        "--drop",
        "0.15",
        "--crash",
        "1:1",
        "--record",
        raw,
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("live          : false"), "{stdout}");
    assert!(stdout.contains("liveness      : "), "{stdout}");
    let (ok, stdout, stderr) = msgorder(&["shrink", raw, "--out", min]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("verdict class : non-live:"), "{stdout}");
    // The minimized artifact replays bit-exactly and keeps its verdict.
    let (ok, stdout, _) = msgorder(&["replay", min]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("REPLAY OK"), "{stdout}");
    assert!(stdout.contains("recorded stall:"), "{stdout}");
}

#[test]
fn golden_shrunk_trace_replays_and_reshrinks_to_itself() {
    let dir = std::env::temp_dir().join(format!("msgorder-cli-reshrink-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["shrunk-v3", "shrunk-adversarial-v3"] {
        let golden = format!("{}/tests/golden/{name}.jsonl", env!("CARGO_MANIFEST_DIR"));
        let (ok, stdout, stderr) = msgorder(&["replay", &golden]);
        assert!(
            ok,
            "golden minimized trace {name} must keep replaying: {stdout}{stderr}"
        );
        assert!(stdout.contains("REPLAY OK"), "{name}: {stdout}");
        assert!(stdout.contains("events identical"), "{name}: {stdout}");
        // Shrinking a fixpoint is a byte-stable no-op.
        let out = dir.join(format!("{name}.jsonl"));
        let out = out.to_str().unwrap();
        let (ok, stdout, stderr) = msgorder(&["shrink", &golden, "--out", out]);
        assert!(ok, "{name}: {stdout}{stderr}");
        assert!(stdout.contains("(0% reduction)"), "{name}: {stdout}");
        assert_eq!(
            std::fs::read(&golden).unwrap(),
            std::fs::read(out).unwrap(),
            "re-shrinking the golden minimized trace {name} must reproduce it byte-for-byte"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `line` with the value of the first `"key":` replaced by `value`: a
/// scalar runs to the next `,` or `}`, an array to its `]`.
fn with_field(line: &str, key: &str, value: &str) -> String {
    let at = line.find(&format!("\"{key}\":")).expect("key present") + key.len() + 3;
    let rest = &line[at..];
    let len = match rest.strip_prefix('[') {
        Some(inner) => inner.find(']').expect("flat array") + 2,
        None => rest.find([',', '}']).expect("scalar ends"),
    };
    format!("{}{value}{}", &line[..at], &rest[len..])
}

#[test]
fn hand_edited_trace_headers_are_errors_not_panics() {
    use msgorder::trace::{Trace, TraceError};
    type Edit = fn(&str) -> String;
    let edits: [(&str, Edit); 9] = [
        ("no processes", |h| with_field(h, "processes", "0")),
        ("absurd process count", |h| {
            with_field(h, "processes", "4000000000")
        }),
        ("send to a stranger", |h| with_field(h, "dst", "7")),
        ("send from a stranger", |h| with_field(h, "src", "7")),
        ("empty latency range", |h| {
            with_field(&with_field(h, "lo", "900"), "hi", "800")
        }),
        ("crash of a stranger", |h| {
            with_field(h, "crashes", r#"[{"process":9,"at":1,"restart":null}]"#)
        }),
        ("partition from a stranger", |h| {
            with_field(h, "partitions", r#"[{"a":0,"b":9,"from":1,"until":5}]"#)
        }),
        ("reliable without a reliable variant", |h| {
            with_field(
                &with_field(h, "protocol", r#""causal-ses""#),
                "reliable",
                "true",
            )
        }),
        ("synthesized for a spec tagging cannot enforce", |h| {
            let h = with_field(h, "protocol", r#""synthesized""#);
            with_field(
                &with_field(&h, "reliable", "false"),
                "spec",
                r#""sync-crown-2""#,
            )
        }),
    ];
    let dir = std::env::temp_dir().join(format!("msgorder-cli-headers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for golden in ["trace-v3", "shrunk-v3", "shrunk-adversarial-v3"] {
        let path = format!("{}/tests/golden/{golden}.jsonl", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap();
        Trace::from_jsonl(&text).expect("the untouched golden loads");
        let (ok, stdout, stderr) = msgorder(&["replay", &path]);
        assert!(
            ok && stdout.contains("REPLAY OK"),
            "{golden}: {stdout}{stderr}"
        );
        let (header, events) = text.split_once('\n').expect("header line");
        for (what, edit) in edits {
            let edited = format!("{}\n{events}", edit(header));
            assert!(
                matches!(Trace::from_jsonl(&edited), Err(TraceError::Setup(_))),
                "{golden}, {what}: from_jsonl must reject the header"
            );
            let file = dir.join(format!("{golden}.jsonl"));
            std::fs::write(&file, &edited).unwrap();
            let file = file.to_str().unwrap();
            for sub in ["replay", "shrink"] {
                let (ok, _, stderr) = msgorder(&[sub, file]);
                assert!(!ok, "{golden}, {what}: {sub} must fail");
                assert!(
                    stderr.contains("error: invalid setup:") && !stderr.contains("panicked"),
                    "{golden}, {what}: {sub}: {stderr}"
                );
            }
        }
        // A header of another schema version is refused by its number.
        for old in ["1", "2"] {
            let edited = format!("{}\n{events}", with_field(header, "version", old));
            assert!(
                matches!(Trace::from_jsonl(&edited), Err(TraceError::Schema(_))),
                "{golden}: from_jsonl must refuse version {old}"
            );
            let file = dir.join(format!("{golden}.jsonl"));
            std::fs::write(&file, &edited).unwrap();
            let (ok, _, stderr) = msgorder(&["replay", file.to_str().unwrap()]);
            assert!(
                !ok && stderr.contains(&format!("trace version {old} (this build reads 3)"))
                    && !stderr.contains("panicked"),
                "{golden}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_sweep_reports_shrunk_findings() {
    let (ok, stdout, stderr) = msgorder(&["chaos", "--trials", "12", "--seed", "7"]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("12 trial(s)"), "{stdout}");
    assert!(stdout.contains("distinct failure mode"), "{stdout}");
}

#[test]
fn chaos_rejects_unknown_protocol() {
    let (ok, _, stderr) = msgorder(&["chaos", "--trials", "1", "--protocol", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("not in the registry"), "{stderr}");
}

#[test]
fn fault_flags_are_validated() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["simulate", "--partition", "0:0:5:10"],
            "invalid partition P0<->P0",
        ),
        (
            &["simulate", "--partition", "0:9:5:10"],
            "invalid partition P0<->P9",
        ),
        (
            &["simulate", "--partition", "0:1:10:10"],
            "invalid partition P0<->P1 over [10, 10)",
        ),
        (&["simulate", "--crash", "9:50"], "invalid crash of P9"),
        (
            &["simulate", "--crash", "1:50:20"],
            "invalid crash of P1 at t=50 (restart t=20)",
        ),
        (&["simulate", "--drop", "1.5"], "not in [0, 1]"),
        (&["simulate", "--dup", "-0.1"], "not in [0, 1]"),
        // Flags and trace headers share `Setup::validate`.
        (
            &["simulate", "--processes", "300"],
            "error: invalid setup: 300 processes (at most 256)",
        ),
        // Every subcommand with fault flags rejects them the same way.
        (&["explore", "--dup", "-0.1"], "--dup: probability -0.1 not"),
        (
            &["soak", "--drop", "1.5"],
            "--drop: probability 1.5 not in [0, 1]",
        ),
        (&["soak", "--dup", "-0.1"], "--dup: probability -0.1 not"),
        (&["soak", "--drop", "nan"], "--drop: probability NaN not"),
        (
            &["soak", "--processes", "1"],
            "error: --processes must be at least 2",
        ),
        (
            &["soak", "--protocol", "async", "--reliable"],
            "--reliable is not supported for `async`",
        ),
    ];
    for (args, needle) in cases {
        let (ok, _, stderr) = msgorder(args);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn explore_reduction_preserves_the_violation_set() {
    let base = [
        "explore",
        "--protocol",
        "async",
        "--spec",
        "fifo",
        "--processes",
        "2",
        "--messages",
        "4",
        "--seed",
        "1",
    ];
    let run = |extra: &[&str]| {
        let mut args: Vec<&str> = base.to_vec();
        args.extend_from_slice(extra);
        let (ok, stdout, stderr) = msgorder(&args);
        assert!(ok, "{args:?}: {stdout}{stderr}");
        let grab = |label: &str| {
            stdout
                .lines()
                .find(|l| l.starts_with(label))
                .unwrap_or_else(|| panic!("no `{label}` line in {stdout}"))
                .to_owned()
        };
        (grab("digest"), grab("schedules"))
    };
    let (full_digest, full_schedules) = run(&["--por", "off"]);
    let (por_digest, por_schedules) = run(&["--por", "on"]);
    let (par_digest, _) = run(&["--por", "on", "--threads", "2"]);
    let (dedup_digest, _) = run(&["--por", "on", "--dedup", "exact"]);
    assert_eq!(
        full_digest, por_digest,
        "reduction changed the violation set"
    );
    assert_eq!(full_digest, par_digest, "threads changed the violation set");
    assert_eq!(full_digest, dedup_digest, "dedup changed the violation set");
    assert_ne!(full_schedules, por_schedules, "reduction did not reduce");
}

#[test]
fn explore_flags_are_validated() {
    let cases: &[(&[&str], &str)] = &[
        (&["explore", "--por", "maybe"], "expected `on` or `off`"),
        (&["explore", "--dedup", "huge"], "expected `off` or `exact`"),
        (
            &["explore", "--dedup", "compact"],
            "expected `off` or `exact`",
        ),
        (
            &["explore", "--max-states", "10"],
            "unknown flag `--max-states`",
        ),
        (&["explore", "--spill", "/tmp"], "unknown flag `--spill`"),
        (
            &["explore", "--dedup", "exact", "--drop", "0.1"],
            "quiet fault model: the probabilistic fault stream is part of the configuration \
             but cannot be keyed (remove --drop/--dup)",
        ),
        (&["explore", "--drop", "1.5"], "not in [0, 1]"),
        (
            &[
                "explore",
                "--protocol",
                "synthesized",
                "--spec",
                "sync-crown-2",
            ],
            "cannot enforce spec `sync-crown-2` (control messages required)",
        ),
        (
            &[
                "simulate",
                "--protocol",
                "synthesized",
                "--spec",
                "sync-crown-2",
            ],
            "cannot enforce spec `sync-crown-2` (control messages required)",
        ),
        (
            &["explore", "--threads", "0"],
            "--threads must be at least 1",
        ),
        (
            &["explore", "--threads", "100000000000"],
            "error: --threads must be at most 256 (the explorer's worker ceiling), \
             got 100000000000\n",
        ),
        (
            &["explore", "--processes", "1"],
            "--processes must be at least 2",
        ),
        // Refused before the world allocates per process.
        (
            &["explore", "--processes", "100000000", "--messages", "2"],
            "error: invalid setup: 100000000 processes (at most 256)",
        ),
        (
            &["soak", "--processes", "100000000", "--duration", "1s"],
            "error: invalid setup: 100000000 processes (at most 256)",
        ),
        // Refused before the workload allocates per message.
        (
            &["explore", "--processes", "2", "--messages", "1000000000"],
            "error: invalid setup: 1000000000 messages (at most 4194304 over 2 processes",
        ),
        (
            &["simulate", "--messages", "1000000000"],
            "error: invalid setup: 1000000000 messages (at most 2097152 over 4 processes",
        ),
    ];
    for (args, needle) in cases {
        let (ok, _, stderr) = msgorder(args);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn chaos_confirm_flag_annotates_table() {
    let (ok, stdout, stderr) = msgorder(&[
        "chaos",
        "--trials",
        "12",
        "--seed",
        "7",
        "--no-shrink",
        "--confirm",
        "--protocol",
        "async",
    ]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("inherent"), "{stdout}");
}

/// The verdict is a property of the run, not of the flags that observed
/// it: bare, with `--metrics`, and halted by `--online`, the same
/// violating run names the same witness, in workload message ids.
#[test]
fn simulate_witness_is_the_same_through_every_observer() {
    let base = [
        "simulate",
        "--protocol",
        "async",
        "--spec",
        "fifo",
        "--processes",
        "3",
        "--messages",
        "10",
        "--seed",
        "3",
    ];
    let run = |extra: &[&str]| {
        let mut args = base.to_vec();
        args.extend_from_slice(extra);
        let (ok, stdout, stderr) = msgorder(&args);
        assert!(ok, "{args:?}: {stdout}{stderr}");
        let verdict = stdout
            .lines()
            .find(|l| l.starts_with("spec          : "))
            .unwrap_or_else(|| panic!("{args:?} prints no verdict: {stdout}"))
            .to_owned();
        (verdict, stdout)
    };
    // The witness itself is pinned in `PINS`.
    let (bare, bare_stdout) = run(&[]);
    assert!(bare.contains("VIOLATED by ["), "{bare}");
    assert!(!bare_stdout.contains("detected at"), "only --online halts");
    assert_eq!(run(&["--metrics"]).0, bare);
    let (online, stdout) = run(&["--online"]);
    assert_eq!(online, bare);
    assert!(stdout.contains("detected at   : event "), "{stdout}");
}

/// Every pinned output of the binary: `(command line, lines stdout
/// contains, lines the recorded trace contains)`. `TRACE` stands for a
/// fresh trace path; a recorded trace must also replay with `REPLAY OK`.
/// The explorer rows print one configuration set whatever the thread
/// count, reduction or seen-set: one engine behind every mode.
const PINS: &[(&str, &[&str], &[&str])] = &[
    // Record/replay round trip under drops and retransmission.
    (
        "simulate --protocol causal-rst --processes 3 --messages 12 --seed 11 --spec causal \
         --reliable --drop 0.2 --record TRACE",
        &[],
        &[],
    ),
    // A crash-deferred request re-enters the event heap.
    (
        "simulate --protocol causal-rst --processes 3 --messages 20 --seed 4 --spec causal \
         --crash 1:40:150 --record TRACE",
        &["fingerprint 174530aec7ef4d99"],
        &["DeferredToRestart"],
    ),
    // Post-hoc limit sets at episode scale.
    (
        "simulate --protocol causal-rst --processes 4 --messages 2000 --seed 3 --spec causal",
        &[
            "in X_co       : true",
            "in X_sync     : false",
            "spec          : satisfied",
        ],
        &[],
    ),
    // `--online` stops at the violating delivery; the halted run replays.
    (
        "simulate --protocol async --spec fifo --processes 3 --messages 10 --seed 3 --online \
         --record TRACE",
        &["spec          : VIOLATED by [3, 9]", "detected at"],
        &[],
    ),
    // The metrics report is rendered from the registry. Every corrupted
    // ack is refused as malformed too.
    (
        "simulate --protocol causal-rst --spec causal --corrupt 0.3 --reliable --seed 1 --metrics",
        &["rejected frames     14 (malformed 14)", "delivery latency"],
        &[],
    ),
    // Chaos sweeps, seeded and bounded.
    (
        "chaos --trials 25 --seed 7 --step-limit 100000",
        &["25 trial(s)"],
        &[],
    ),
    (
        "chaos --trials 25 --seed 7 --step-limit 100000 --adversarial",
        &["25 trial(s)", "adversarial"],
        &[],
    ),
    // The explorer, POR on 2 threads.
    (
        "explore --protocol async --spec fifo --processes 3 --messages 5 --seed 3 --por on \
         --threads 2",
        &[
            "schedules     : 165",
            "violations    : 74 schedule(s), 74 distinct configuration(s)",
            "digest        : 0x9aa73789c8e1ba4b",
        ],
        &[],
    ),
    // The benchmark's pool shape 0, from the function the harness times.
    (
        "explore --protocol async --spec fifo --processes 3 --messages 7 --seed 3 --por on",
        &[
            "schedules     : 6070",
            "sleep-skipped : 9979",
            "4192 distinct configuration(s)",
            "digest        : 0x9206c673991a7254",
        ],
        &[],
    ),
    // The benchmark's pool shapes 1 and 2.
    (
        "explore --protocol async --spec fifo --processes 3 --messages 7 --seed 4 --por on",
        &[
            "schedules     : 3600",
            "sleep-skipped : 1584",
            "3525 distinct configuration(s)",
            "digest        : 0xd31060853d77c111",
        ],
        &[],
    ),
    (
        "explore --protocol async --spec fifo --processes 3 --messages 7 --seed 5 --por on",
        &[
            "schedules     : 3492",
            "sleep-skipped : 8156",
            "2826 distinct configuration(s)",
            "digest        : 0xec266c459dea379e",
        ],
        &[],
    ),
    // Every leaf has an undelivered message: the user's view renumbers
    // the complete ones densely.
    (
        "explore --protocol fifo --spec causal --messages 4 --drop 0.3",
        &[
            "schedules     : 288",
            "non-live      : 288",
            "3 schedule(s), 1 distinct configuration(s)",
            "digest        : 0x807d2665aee358c4",
        ],
        &[],
    ),
    // An unmarked flush channel is asynchronous: the `async` pin.
    (
        "explore --protocol flush --spec fifo --processes 3 --messages 7 --seed 3 --por on",
        &[
            "schedules     : 6070",
            "4192 distinct configuration(s)",
            "digest        : 0x9206c673991a7254",
        ],
        &[],
    ),
    // `synthesized(causal)` is safe on the same space.
    (
        "explore --protocol synthesized --spec causal --processes 3 --messages 7 --seed 3 \
         --por on",
        &[
            "schedules     : 6070",
            "0 schedule(s), 0 distinct configuration(s)",
        ],
        &[],
    ),
    // The exact seen-set on 1 and 2 threads: same counts and digest.
    (
        "explore --protocol async --spec fifo --processes 3 --messages 7 --seed 3 --dedup exact",
        &[
            "schedules     : 6070",
            "states        : 49318",
            "4192 distinct configuration(s)",
            "digest        : 0x9206c673991a7254",
        ],
        &[],
    ),
    (
        "explore --protocol async --spec fifo --processes 3 --messages 7 --seed 3 --dedup exact \
         --threads 2",
        &[
            "schedules     : 6070",
            "states        : 49318",
            "4192 distinct configuration(s)",
            "digest        : 0x9206c673991a7254",
        ],
        &[],
    ),
    (
        "explore --protocol async --spec fifo --processes 3 --messages 8 --seed 3 --dedup exact",
        &[
            "schedules     : 39915",
            "states        : 368191",
            "digest        : 0xe75afed4965824d7",
        ],
        &[],
    ),
];

#[test]
fn every_pinned_output_holds() {
    let dir = std::env::temp_dir().join(format!("msgorder-cli-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (line, stdout_has, trace_has)) in PINS.iter().enumerate() {
        let trace = dir.join(format!("pin-{i}.jsonl"));
        let trace = trace.to_str().unwrap();
        let args: Vec<&str> = line
            .split_whitespace()
            .map(|a| if a == "TRACE" { trace } else { a })
            .collect();
        let (ok, stdout, stderr) = msgorder(&args);
        assert!(ok, "{line}: {stdout}{stderr}");
        for needle in *stdout_has {
            assert!(stdout.contains(needle), "{line}: no `{needle}` in {stdout}");
        }
        if args.contains(&trace) {
            let text = std::fs::read_to_string(trace).unwrap();
            for needle in *trace_has {
                assert!(text.contains(needle), "{line}: no `{needle}` in the trace");
            }
            let (ok, stdout, stderr) = msgorder(&["replay", trace]);
            assert!(
                ok && stdout.contains("REPLAY OK"),
                "{line}: replay: {stdout}{stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(subcommand, flags that take a value, boolean flags)` — everything
/// the parsers accept.
const FLAGS: &[(&str, &[&str], &[&str])] = &[
    (
        "simulate",
        &[
            "--protocol",
            "--spec",
            "--processes",
            "--messages",
            "--seed",
            "--drop",
            "--dup",
            "--corrupt",
            "--forge",
            "--replay-stale",
            "--reorder",
            "--partition",
            "--crash",
            "--record",
        ],
        &["--timeline", "--reliable", "--online", "--metrics"],
    ),
    (
        "explore",
        &[
            "--protocol",
            "--spec",
            "--processes",
            "--messages",
            "--seed",
            "--por",
            "--threads",
            "--dedup",
            "--cap",
            "--max-depth",
            "--drop",
            "--dup",
        ],
        &[],
    ),
    ("replay", &[], &["--metrics"]),
    ("shrink", &["--out"], &[]),
    (
        "chaos",
        &["--trials", "--seed", "--protocol", "--step-limit", "--out"],
        &["--no-shrink", "--confirm", "--adversarial"],
    ),
    (
        "serve",
        &[
            "--transport",
            "--protocol",
            "--spec",
            "--processes",
            "--messages",
            "--seed",
            "--step-limit",
            "--tick-us",
            "--record",
            "--metrics-addr",
            "--metrics-out",
            "--wire-chaos",
        ],
        &["--reliable", "--spawn"],
    ),
    ("client", &["--connect", "--node", "--wire-chaos"], &[]),
    (
        "soak",
        &[
            "--duration",
            "--protocol",
            "--spec",
            "--processes",
            "--messages",
            "--seed",
            "--drop",
            "--dup",
            "--step-limit",
            "--max-episodes",
            "--metrics-addr",
            "--metrics-out",
            "--report",
            "--max-rss-growth-mb",
        ],
        &["--reliable", "--adversarial", "--no-rotate"],
    ),
];

/// The `--flag` tokens of `text`.
fn flag_tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
        .filter(|t| t.starts_with("--"))
}

/// One flag path: every subcommand accepts exactly its row of [`FLAGS`],
/// rejects a missing value and a foreign flag with the same two
/// messages, and `msgorder help` documents exactly what is parsed.
#[test]
fn every_flag_is_parsed_and_documented() {
    let (_, help, _) = msgorder(&["help"]);
    let universe: std::collections::BTreeSet<&str> = FLAGS
        .iter()
        .flat_map(|(_, valued, boolean)| valued.iter().chain(boolean.iter()).copied())
        .collect();
    // Parsing fails before anything runs, so no row starts a session.
    let error_of = |args: &[&str]| {
        let (ok, _, stderr) = msgorder(args);
        assert!(!ok, "{args:?} must fail");
        stderr
    };
    for (sub, valued, boolean) in FLAGS {
        let own: std::collections::BTreeSet<&str> =
            valued.iter().chain(boolean.iter()).copied().collect();
        for flag in *valued {
            let stderr = error_of(&[sub, flag]);
            let needle = format!("flag {flag} needs a value");
            assert!(stderr.contains(&needle), "{sub} {flag}: {stderr}");
        }
        for flag in *boolean {
            let stderr = error_of(&[sub, flag, "--no-such-flag"]);
            let needle = "unknown flag `--no-such-flag`";
            assert!(stderr.contains(needle), "{sub} {flag}: {stderr}");
        }
        for flag in universe.difference(&own) {
            let stderr = error_of(&[sub, flag]);
            let needle = format!("unknown flag `{flag}`");
            assert!(stderr.contains(&needle), "{sub} {flag}: {stderr}");
        }
        // The subcommand's help section: its `msgorder <sub>` usage line
        // plus the indented option lines that start with a flag, up to
        // the next subcommand.
        let header = format!("  msgorder {sub} ");
        let documented: std::collections::BTreeSet<&str> = help
            .lines()
            .skip_while(|l| !l.starts_with(&header))
            .enumerate()
            .take_while(|(i, l)| *i == 0 || !(l.starts_with("  msgorder ") || l.is_empty()))
            .flat_map(|(i, l)| {
                let first = l.split_whitespace().next().unwrap_or_default();
                flag_tokens(if i == 0 { l } else { first })
            })
            .collect();
        assert_eq!(documented, own, "`msgorder help` vs the {sub} parser");
    }
}
