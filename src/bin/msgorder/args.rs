//! The one flag path: an argument cursor ([`Args`]) and the flag groups
//! the subcommands share — [`Session`] (what to run), [`Faults`] (what
//! the network does to it) and [`MetricsExport`] (where its registry is
//! published). A group parses its flags, validates them, and builds the
//! library value (`Setup`, `ProtocolKind`, parsed spec, `FaultModel`,
//! exporters) once, so every subcommand rejects bad input with the same
//! message.

use msgorder::predicate::ForbiddenPredicate;
use msgorder::protocols::ProtocolKind;
use msgorder::simnet::{CrashSchedule, FaultModel, LatencyModel, Partition, Workload};
use msgorder::trace::{parse_spec, FileExporter, Setup, SetupError, SharedRegistry, TraceError};
use msgorder::transport::{Endpoint, MetricsExporter};
use std::fmt::Display;
use std::str::FromStr;

/// A cursor over a subcommand's arguments that remembers the flag it
/// last yielded, so value and parse errors name it.
pub struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Args<'a> {
    pub fn new(args: &'a [String]) -> Args<'a> {
        Args {
            rest: args.iter(),
            flag: "",
        }
    }

    /// Advances to the next argument and makes it the current flag.
    pub fn next(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }

    /// The current flag's value (the next argument).
    pub fn value(&mut self) -> Result<&'a str, String> {
        let flag = self.flag;
        self.rest
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("flag {flag} needs a value"))
    }

    /// The current flag's value, parsed.
    pub fn parse<T: FromStr<Err: Display>>(&mut self) -> Result<T, String> {
        field(self.flag, self.value()?)
    }

    /// The current flag's value as a probability in `[0, 1]`.
    fn probability(&mut self) -> Result<f64, String> {
        let p: f64 = self.parse()?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("{}: probability {p} not in [0, 1]", self.flag));
        }
        Ok(p)
    }

    /// The error for a flag no group and no subcommand arm accepted.
    pub fn unknown(&self) -> String {
        format!("unknown flag `{}`", self.flag)
    }
}

/// `--protocol --spec --processes --messages --seed`, plus `--reliable`
/// and `--step-limit` for the subcommands that opt in: one protocol
/// session on one seeded uniform workload.
pub struct Session {
    pub protocol: String,
    pub spec: Option<String>,
    pub processes: usize,
    pub messages: usize,
    pub seed: u64,
    pub reliable: bool,
    pub step_limit: usize,
    takes_reliable: bool,
    takes_step_limit: bool,
}

impl Session {
    /// A session with the subcommand's defaults.
    pub fn new(protocol: &str, processes: usize, messages: usize, seed: u64) -> Session {
        Session {
            protocol: protocol.to_owned(),
            spec: None,
            processes,
            messages,
            seed,
            reliable: false,
            step_limit: 1_000_000,
            takes_reliable: false,
            takes_step_limit: false,
        }
    }

    /// Also accept `--reliable`.
    pub fn with_reliable(mut self) -> Session {
        self.takes_reliable = true;
        self
    }

    /// Also accept `--step-limit`.
    pub fn with_step_limit(mut self) -> Session {
        self.takes_step_limit = true;
        self
    }

    /// Consumes the current flag if it is one of this group's.
    pub fn take(&mut self, args: &mut Args) -> Result<bool, String> {
        match args.flag {
            "--protocol" => self.protocol = args.value()?.to_owned(),
            "--spec" => self.spec = Some(args.value()?.to_owned()),
            "--processes" => self.processes = args.parse()?,
            "--messages" => self.messages = args.parse()?,
            "--seed" => self.seed = args.parse()?,
            "--reliable" if self.takes_reliable => self.reliable = true,
            "--step-limit" if self.takes_step_limit => self.step_limit = args.parse()?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Validates the session against `faults` and resolves its protocol
    /// and spec (a catalog name or a `forbid …` DSL predicate;
    /// `synthesized` is built from the spec, which must be one tagging
    /// can enforce).
    pub fn resolve(
        &self,
        faults: &FaultModel,
    ) -> Result<(ProtocolKind, Option<ForbiddenPredicate>), String> {
        let spec = self
            .spec
            .as_deref()
            .map(parse_spec)
            .transpose()
            .map_err(|e| e.to_string())?;
        let kind = ProtocolKind::by_name(&self.protocol, spec.as_ref()).ok_or_else(|| {
            if self.protocol == "synthesized" {
                "--protocol synthesized requires --spec".to_owned()
            } else {
                format!("unknown protocol `{}`", self.protocol)
            }
        })?;
        if self.processes < 2 {
            return Err("--processes must be at least 2".into());
        }
        // The trace header's ceilings, checked before any subcommand
        // allocates per process or per message.
        if self.processes > Setup::MAX_PROCESSES {
            let e = SetupError::TooManyProcesses(self.processes);
            return Err(TraceError::Setup(e).to_string());
        }
        if self.messages > Setup::max_messages(self.processes) {
            let e = SetupError::TooManyMessages {
                messages: self.messages,
                processes: self.processes,
            };
            return Err(TraceError::Setup(e).to_string());
        }
        if self.step_limit == 0 {
            return Err("--step-limit must be positive".into());
        }
        if self.reliable && !kind.supports_retransmission() {
            return Err(format!(
                "--reliable is not supported for `{}` (use fifo, causal-rst, sync or sync-batched)",
                kind.name()
            ));
        }
        if let Some(class) = kind.untaggable_spec() {
            let spec = self.spec.clone().unwrap_or_default();
            return Err(SetupError::UntaggableSpec { spec, class }.to_string());
        }
        // Structurally nonsensical schedules fail here instead of
        // silently doing nothing (out-of-range endpoints never match a
        // link) or panicking deep in the kernel.
        faults
            .validate_for(self.processes)
            .map_err(|e| e.to_string())?;
        Ok((kind, spec))
    }

    /// The `Setup` of this session under `latency` and `faults`, held to
    /// the checks a trace header is ([`Setup::validate`]).
    pub fn into_setup(self, latency: LatencyModel, faults: FaultModel) -> Result<Setup, String> {
        let setup = Setup {
            processes: self.processes,
            latency,
            seed: self.seed,
            faults,
            workload: Workload::uniform_random(self.processes, self.messages, self.seed),
            protocol: self.protocol,
            reliable: self.reliable,
            spec: self.spec,
            step_limit: self.step_limit,
        };
        setup
            .validate()
            .map_err(|e| TraceError::Setup(e).to_string())?;
        Ok(setup)
    }
}

/// `--drop --dup`, plus the adversarial probabilities and the
/// `--partition`/`--crash` schedules for `simulate`: the fault model.
#[derive(Default)]
pub struct Faults {
    pub model: FaultModel,
    full: bool,
}

impl Faults {
    /// Every fault flag (the default takes only `--drop`/`--dup`).
    pub fn full() -> Faults {
        Faults {
            full: true,
            ..Faults::default()
        }
    }

    /// Consumes the current flag if it is one of this group's.
    pub fn take(&mut self, args: &mut Args) -> Result<bool, String> {
        let m = &mut self.model;
        match args.flag {
            "--drop" => m.drop = args.probability()?,
            "--dup" => m.duplicate = args.probability()?,
            _ if !self.full => return Ok(false),
            "--corrupt" => m.adversarial.corrupt = args.probability()?,
            "--forge" => m.adversarial.forge = args.probability()?,
            "--replay-stale" => m.adversarial.replay_stale = args.probability()?,
            "--reorder" => m.adversarial.reorder = args.probability()?,
            "--partition" => m.partitions.push(parse_partition(args.value()?)?),
            "--crash" => m.crashes.push(parse_crash(args.value()?)?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Parses one value, labelling a failure with `what` (a flag, or one
/// `:`-separated field of a schedule flag).
fn field<T: FromStr<Err: Display>>(what: &str, s: &str) -> Result<T, String> {
    s.parse().map_err(|e| format!("{what}: {e}"))
}

/// `A:B:FROM:UNTIL` — sever the A<->B link for `FROM <= t < UNTIL`.
fn parse_partition(s: &str) -> Result<Partition, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let [a, b, from, until] = parts.as_slice() else {
        return Err(format!("--partition: expected A:B:FROM:UNTIL, got `{s}`"));
    };
    Ok(Partition {
        a: field("--partition endpoint", a)?,
        b: field("--partition endpoint", b)?,
        from: field("--partition from", from)?,
        until: field("--partition until", until)?,
    })
}

/// `P:AT[:RESTART]` — crash process P at tick AT, optionally restarting.
fn parse_crash(s: &str) -> Result<CrashSchedule, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let (process, at, restart) = match parts.as_slice() {
        [p, at] => (p, at, None),
        [p, at, r] => (p, at, Some(r)),
        _ => return Err(format!("--crash: expected P:AT[:RESTART], got `{s}`")),
    };
    Ok(CrashSchedule {
        process: field("--crash process", process)?,
        at: field("--crash at", at)?,
        restart: restart.map(|r| field("--crash restart", r)).transpose()?,
    })
}

/// `--metrics-addr --metrics-out`: where `serve` and `soak` publish
/// their registry while they run.
#[derive(Default)]
pub struct MetricsExport {
    addr: Option<String>,
    out: Option<String>,
}

impl MetricsExport {
    /// Consumes the current flag if it is one of this group's.
    pub fn take(&mut self, args: &mut Args) -> Result<bool, String> {
        match args.flag {
            "--metrics-addr" => self.addr = Some(args.value()?.to_owned()),
            "--metrics-out" => self.out = Some(args.value()?.to_owned()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Starts the HTTP endpoint and the once-a-second snapshot writer,
    /// both reading `registry`. The address is a full `tcp:`/`unix:`
    /// endpoint or a bare `HOST:PORT` (which implies TCP).
    pub fn start(self, registry: &SharedRegistry) -> Result<Exporters, String> {
        let http = self
            .addr
            .map(|addr| {
                let ep = if addr.starts_with("tcp:") || addr.starts_with("unix:") {
                    Endpoint::parse(&addr)?
                } else {
                    Endpoint::parse(&format!("tcp:{addr}"))?
                };
                let l = ep.listen().map_err(|e| format!("{ep}: {e}"))?;
                let exporter =
                    MetricsExporter::start(l, registry.clone()).map_err(|e| e.to_string())?;
                println!("metrics       : http on {}", exporter.endpoint());
                Ok::<_, String>(exporter)
            })
            .transpose()?;
        let period = std::time::Duration::from_secs(1);
        let file = self.out.map(|path| {
            let fx = FileExporter::start(path.clone().into(), registry.clone(), period);
            (fx, path)
        });
        Ok(Exporters { http, file })
    }
}

/// The running exporters of a [`MetricsExport`].
pub struct Exporters {
    pub http: Option<MetricsExporter>,
    file: Option<(FileExporter, String)>,
}

impl Exporters {
    /// Whether anything reads the registry (else feeding it is wasted).
    pub fn active(&self) -> bool {
        self.http.is_some() || self.file.is_some()
    }

    /// Shuts the endpoint down and writes the final snapshot.
    pub fn stop(self) {
        if let Some(http) = self.http {
            http.shutdown();
        }
        if let Some((fx, path)) = self.file {
            fx.stop();
            println!("metrics file  : {path}");
        }
    }
}
