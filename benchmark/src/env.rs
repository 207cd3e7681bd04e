//! What the harness records about, and asks of, the machine: core
//! count, CPU pinning, toolchain and commit, peak memory, CPU time, and
//! the allocator settings every measured child runs under.

use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::process::Command;

/// The environment a result was taken in; stored with every result so
/// an unpinned or differently built run is flagged, not hidden.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// `std::thread::available_parallelism` of the harness process.
    pub nproc: usize,
    /// The CPU every measured child is confined to, when `taskset`
    /// exists. `None` means the run was **unpinned**: on this box the
    /// same binary then reads up to 4x slower on socket workloads,
    /// depending on which cores the kernel and peer threads land on.
    pub pinned_cpu: Option<usize>,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD` (with `-dirty` when the tree has changes),
    /// or `unknown` outside a git checkout.
    pub commit: String,
}

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

impl Machine {
    /// Probes the machine.
    pub fn probe() -> Machine {
        let commit = stdout_of(Command::new("git").args(["rev-parse", "HEAD"]))
            .filter(|c| !c.is_empty())
            .map_or_else(
                || "unknown".to_owned(),
                |c| {
                    let dirty = stdout_of(Command::new("git").args(["status", "--porcelain"]))
                        .is_some_and(|s| !s.is_empty());
                    if dirty {
                        format!("{c}-dirty")
                    } else {
                        c
                    }
                },
            );
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pinned_cpu: pin_target(),
            rustc: stdout_of(Command::new("rustc").arg("--version"))
                .unwrap_or_else(|| "unknown".to_owned()),
            commit,
        }
    }
}

/// The CPUs this process may run on, from `Cpus_allowed_list`.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// The CPU to confine children to: the highest-numbered allowed one
/// (CPU 0 takes most interrupts), if `taskset` is installed. Dispatch
/// is a blocking ping-pong, so the kernel thread and the peers lose
/// nothing on one core, and the cross-core wake-up regime disappears.
fn pin_target() -> Option<usize> {
    let works = Command::new("taskset")
        .arg("--version")
        .output()
        .is_ok_and(|o| o.status.success());
    if works {
        allowed_cpus().into_iter().max()
    } else {
        None
    }
}

/// How glibc's allocator is set for a measured child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocator {
    /// Keep freed memory in the process (`mmap` and trim thresholds of
    /// 1 GiB). Every unit allocates and frees a few MiB; with default
    /// thresholds each unit re-faults those pages, and on this VM that
    /// page-fault cost swings by 25 % with host load — the largest
    /// single source of run-to-run noise (see `README.md`). Used for
    /// every *timed* child. Peak memory then depends on heap layout
    /// (a `realloc` that cannot grow in place holds old and new block
    /// at once), so it is not read from these children.
    KeepFreed,
    /// Map every block of 128 KiB or more on its own and return it on
    /// free (a fixed `mmap` threshold, which also switches glibc's
    /// adaptive threshold off). `VmHWM` is then the peak live set to
    /// the page, independent of layout. Used for the one child whose
    /// peak memory is reported.
    PageExact,
}

/// A command that runs `exe` under `allocator`, confined to `cpus` when
/// given.
pub fn measured_command(
    exe: &std::path::Path,
    cpus: Option<&str>,
    allocator: Allocator,
) -> Command {
    let mut cmd = match cpus {
        Some(cpus) => {
            let mut c = Command::new("taskset");
            c.args(["-c", cpus]).arg(exe);
            c
        }
        None => Command::new(exe),
    };
    match allocator {
        Allocator::KeepFreed => cmd
            .env("MALLOC_MMAP_THRESHOLD_", "1073741824")
            .env("MALLOC_TRIM_THRESHOLD_", "1073741824")
            .env("MALLOC_TOP_PAD_", "67108864"),
        Allocator::PageExact => cmd.env("MALLOC_MMAP_THRESHOLD_", "131072"),
    };
    cmd
}

/// `benchmark/out/`: trace files, result files and sockets. Found from
/// the manifest directory baked in at build time, so it is right from
/// any working directory as long as the checkout has not moved.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set size of this process, in KiB (`VmHWM`).
pub fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// `(user, system)` CPU seconds of this process and its threads so far,
/// from `/proc/self/stat` (clock ticks of 10 ms).
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3,
    // utime 14, stime 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) / 100.0, ticks(12) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_probes_read_something() {
        assert!(vm_hwm_kib() > 0);
        assert!(!allowed_cpus().is_empty());
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
    }
}
