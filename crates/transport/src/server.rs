//! The serving side: a [`SocketHost`] that drives remote protocol
//! instances over framed connections, and [`serve`], which runs a whole
//! live session under the realtime kernel and assembles the recorded
//! trace.
//!
//! The server is the *kernel* side of the [`ProtocolHost`] split: it
//! owns time, scheduling, journaling, and fault accounting; each peer
//! process owns exactly one protocol instance's ordering state. A
//! dispatch is one blocking round-trip — [`EventMsg`] out,
//! [`ActionMsg`] back — which preserves the atomicity the realtime
//! kernel needs for bit-exact replay.
//!
//! Reconnection: when a connection drops mid-round-trip, the server
//! keeps the in-flight event and waits (bounded) for the peer's
//! supervisor to dial back in with a [`ControlMsg::Hello`]; the event
//! is resent and the peer's one-deep reply cache answers duplicates
//! without reprocessing. A peer that lost its protocol state (fresh
//! `resume: 0` against a mid-run sequence number) cannot resume and is
//! rejected.
//!
//! [`ProtocolHost`]: msgorder_simnet::ProtocolHost
//! [`ActionMsg`]: crate::wire::ActionMsg

use crate::endpoint::{Endpoint, Listener};
use crate::wire::{bad_data, ControlMsg, EventMsg, FramedConn, Incoming, WIRE_VERSION};
use msgorder_simnet::{
    DriftStats, HostAction, HostDriver, HostError, HostEvent, RealtimeKernel, SimError,
    StreamResult,
};
use msgorder_trace::{assemble_trace, Recorder, Setup, Trace, TraceError};
use std::cmp::Ordering;
use std::io;
use std::time::{Duration, Instant};

/// What can go wrong running a live session.
#[derive(Debug)]
pub enum TransportError {
    /// A socket-level failure (bind, accept, handshake I/O).
    Io(io::Error),
    /// A peer broke the handshake protocol.
    Handshake(String),
    /// Trace assembly or setup validation failed.
    Trace(TraceError),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o: {e}"),
            TransportError::Handshake(m) => write!(f, "handshake: {m}"),
            TransportError::Trace(e) => write!(f, "trace: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> TransportError {
        TransportError::Io(e)
    }
}

impl From<TraceError> for TransportError {
    fn from(e: TraceError) -> TransportError {
        TransportError::Trace(e)
    }
}

/// Options for [`serve`].
#[derive(Debug)]
pub struct ServeOptions {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// The run to execute: workload, protocol, spec, seed, step limit.
    /// Becomes the recorded trace's header verbatim, so the trace
    /// replays in the simulator with no extra context.
    pub setup: Setup,
    /// Wall-clock duration of one virtual tick; `ZERO` free-runs.
    pub tick: Duration,
    /// How long to wait for all peers to dial in (and to dial back in
    /// after a connection drop).
    pub handshake_timeout: Duration,
    /// Per-connection read timeout for one round-trip.
    pub io_timeout: Duration,
    /// When set, the server's outgoing links inject deterministic
    /// CRC-corrupt frame copies (seeded per node from this value) so a
    /// loopback run exercises the reject-and-resync path over real
    /// sockets.
    pub wire_chaos: Option<u64>,
}

impl ServeOptions {
    /// Defaults: free-running tick, 30 s handshake patience, 30 s
    /// round-trip timeout, no wire chaos.
    pub fn new(endpoint: Endpoint, setup: Setup) -> ServeOptions {
        ServeOptions {
            endpoint,
            setup,
            tick: Duration::ZERO,
            handshake_timeout: Duration::from_secs(30),
            io_timeout: Duration::from_secs(30),
            wire_chaos: None,
        }
    }
}

/// The outcome of one live session.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The assembled trace — replayable in the simulator bit-exact.
    pub trace: Trace,
    /// The raw streaming outcome, exactly as the simulator would
    /// return it.
    pub outcome: Result<StreamResult, SimError>,
    /// Wall-clock pacing accounting.
    pub drift: DriftStats,
    /// Incoming frames the server discarded for CRC mismatch (summed
    /// over all links, including ones replaced by a reconnect).
    pub crc_rejected: u64,
    /// Corrupt frame copies injected by [`ServeOptions::wire_chaos`].
    pub chaos_injected: u64,
}

/// A [`HostDriver`] whose protocol instances live in other OS
/// processes, one framed connection per process.
pub struct SocketHost {
    listener: Listener,
    setup: Setup,
    links: Vec<Option<FramedConn>>,
    seqs: Vec<u64>,
    handshake_timeout: Duration,
    io_timeout: Duration,
    wire_chaos: Option<u64>,
    // Counters carried over from links torn down by a reconnect, so
    // the session totals survive connection churn.
    retired_crc_rejected: u64,
    retired_chaos_injected: u64,
}

impl SocketHost {
    /// A host for `setup.processes` peers on `listener`. Call
    /// [`await_peers`](SocketHost::await_peers) before running the
    /// kernel.
    pub fn new(listener: Listener, opts: &ServeOptions) -> io::Result<SocketHost> {
        listener.set_nonblocking(true)?;
        let n = opts.setup.processes;
        Ok(SocketHost {
            listener,
            setup: opts.setup.clone(),
            links: (0..n).map(|_| None).collect(),
            seqs: vec![0; n],
            handshake_timeout: opts.handshake_timeout,
            io_timeout: opts.io_timeout,
            wire_chaos: opts.wire_chaos,
            retired_crc_rejected: 0,
            retired_chaos_injected: 0,
        })
    }

    /// Total incoming frames discarded for CRC mismatch, across every
    /// link this host has held.
    pub fn crc_rejected(&self) -> u64 {
        self.retired_crc_rejected
            + self
                .links
                .iter()
                .flatten()
                .map(FramedConn::crc_rejected)
                .sum::<u64>()
    }

    /// Total corrupt frame copies injected by wire chaos.
    pub fn chaos_injected(&self) -> u64 {
        self.retired_chaos_injected
            + self
                .links
                .iter()
                .flatten()
                .map(FramedConn::chaos_injected)
                .sum::<u64>()
    }

    /// Accepts and handshakes connections until every process has one.
    ///
    /// # Errors
    /// [`TransportError::Handshake`] when the timeout passes first or a
    /// peer announces another wire version, an out-of-range node or a
    /// stale resume point.
    pub fn await_peers(&mut self) -> Result<(), TransportError> {
        let deadline = Instant::now() + self.handshake_timeout;
        while self.links.iter().any(Option::is_none) {
            self.accept_one(deadline)?;
        }
        Ok(())
    }

    /// Accepts one connection and completes its handshake, filling
    /// `self.links` at whichever node dialed in.
    fn accept_one(&mut self, deadline: Instant) -> Result<(), TransportError> {
        // A peer usually dials within microseconds of the last one, so
        // the first polls come fast; an idle wait backs off to 5 ms.
        let mut pause = Duration::from_micros(20);
        let conn = loop {
            match self.listener.accept() {
                Ok(conn) => break conn,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        let missing: Vec<usize> = self
                            .links
                            .iter()
                            .enumerate()
                            .filter_map(|(i, l)| l.is_none().then_some(i))
                            .collect();
                        return Err(TransportError::Handshake(format!(
                            "timed out waiting for processes {missing:?} to connect"
                        )));
                    }
                    std::thread::sleep(pause);
                    pause = (pause * 2).min(Duration::from_millis(5));
                }
                Err(e) => return Err(TransportError::Io(e)),
            }
        };
        conn.set_read_timeout(Some(self.io_timeout))?;
        let mut framed = FramedConn::new(conn);
        let hello = framed.recv()?;
        let Incoming::Control(ControlMsg::Hello {
            node,
            resume,
            version,
        }) = hello
        else {
            return Err(TransportError::Handshake(format!(
                "expected Hello, got {hello:?}"
            )));
        };
        if version != WIRE_VERSION {
            return Err(TransportError::Handshake(format!(
                "process {node} speaks wire version {version}, this build only {WIRE_VERSION}"
            )));
        }
        if node >= self.links.len() {
            return Err(TransportError::Handshake(format!(
                "process id {node} out of range (expected < {})",
                self.links.len()
            )));
        }
        // A surviving peer resumes at the in-flight event (reply lost:
        // one past it). Anything older means the peer lost its protocol
        // state and the run cannot continue correctly.
        if resume != self.seqs[node] && resume != self.seqs[node] + 1 {
            return Err(TransportError::Handshake(format!(
                "process {node} resumed at seq {resume}, expected {} — protocol state lost",
                self.seqs[node]
            )));
        }
        // The handshake runs in plain framing; every frame after the
        // Welcome is checksummed.
        framed.send_control(&ControlMsg::Welcome {
            setup: self.setup.clone(),
            version: WIRE_VERSION,
        })?;
        framed.enable_crc();
        if let Some(seed) = self.wire_chaos {
            framed.enable_chaos(seed ^ node as u64);
        }
        self.links[node] = Some(framed);
        Ok(())
    }

    /// Tells every connected peer the run is over.
    pub fn farewell(&mut self) {
        for link in self.links.iter_mut().flatten() {
            let _ = link.send_control(&ControlMsg::Bye);
        }
    }

    /// One blocking round-trip on an established link.
    fn round_trip(link: &mut FramedConn, msg: &EventMsg) -> io::Result<Vec<HostAction>> {
        link.send_event(msg)?;
        loop {
            let reply = match link.recv()? {
                Incoming::Actions(reply) => reply,
                other => return Err(bad_data(format!("expected an action batch, got {other:?}"))),
            };
            match reply.seq.cmp(&msg.seq) {
                Ordering::Equal => return Ok(reply.actions),
                // A stale reply from before a reconnect: drain and re-read.
                Ordering::Less => {}
                // Nothing past the in-flight event has been sent yet.
                Ordering::Greater => {
                    return Err(bad_data(format!(
                        "reply seq {} is ahead of the in-flight event {}",
                        reply.seq, msg.seq
                    )))
                }
            }
        }
    }
}

impl HostDriver for SocketHost {
    fn dispatch(
        &mut self,
        node: usize,
        ev: HostEvent,
        now: u64,
    ) -> Result<Vec<HostAction>, HostError> {
        if node >= self.links.len() {
            return Err(HostError::new(node, "process id out of range"));
        }
        let seq = self.seqs[node];
        let msg = EventMsg { seq, now, ev };
        let mut last_io: Option<io::Error> = None;
        // One reconnect window per dispatch: a dropped connection gets
        // the full handshake timeout for the peer's supervisor to dial
        // back; a second failure on the fresh link fails the node.
        for _ in 0..2 {
            if self.links[node].is_none() {
                let deadline = Instant::now() + self.handshake_timeout;
                while self.links[node].is_none() {
                    if let Err(e) = self.accept_one(deadline) {
                        return Err(HostError::new(
                            node,
                            format!("reconnect failed after {last_io:?}: {e}"),
                        ));
                    }
                }
            }
            let Some(link) = self.links[node].as_mut() else {
                return Err(HostError::new(node, "connection lost during reconnect"));
            };
            match SocketHost::round_trip(link, &msg) {
                Ok(actions) => {
                    self.seqs[node] = seq + 1;
                    return Ok(actions);
                }
                Err(e) => {
                    if let Some(dead) = self.links[node].take() {
                        self.retired_crc_rejected += dead.crc_rejected();
                        self.retired_chaos_injected += dead.chaos_injected();
                    }
                    last_io = Some(e);
                }
            }
        }
        let detail = last_io.map_or_else(|| "no i/o error recorded".to_string(), |e| e.to_string());
        Err(HostError::new(
            node,
            format!("round-trip failed twice: {detail}"),
        ))
    }
}

/// Runs one live session end to end: listen, handshake all peers, run
/// the workload under the realtime kernel, record every kernel event,
/// and assemble the replayable trace.
///
/// # Errors
/// Bind/handshake failures and trace assembly errors. A *protocol*
/// failure (or a peer dying mid-run) is not an error here — it is the
/// structured counterexample in [`ServeOutcome::outcome`], recorded in
/// the trace like any simulated failure.
pub fn serve(opts: &ServeOptions) -> Result<ServeOutcome, TransportError> {
    let spec = opts.setup.spec_predicate()?;
    let listener = opts.endpoint.listen()?;
    serve_on(listener, opts, spec.as_ref())
}

/// [`serve`] on an already-bound listener (lets callers bind port 0 and
/// learn the real address before peers dial in).
pub fn serve_on(
    listener: Listener,
    opts: &ServeOptions,
    spec: Option<&msgorder_predicate::ForbiddenPredicate>,
) -> Result<ServeOutcome, TransportError> {
    serve_on_observed(listener, opts, spec, None)
}

/// [`serve_on`], additionally fanning the live kernel event stream out
/// to `extra` (a metrics feed, an online monitor, …). The recorder
/// always sees the full run; if the extra observer halts the run, the
/// trace captures the halted prefix.
pub fn serve_on_observed(
    listener: Listener,
    opts: &ServeOptions,
    spec: Option<&msgorder_predicate::ForbiddenPredicate>,
    extra: Option<&mut dyn msgorder_simnet::RunObserver>,
) -> Result<ServeOutcome, TransportError> {
    let mut host = SocketHost::new(listener, opts)?;
    host.await_peers()?;
    let kernel = RealtimeKernel::new(opts.setup.config(), &opts.setup.workload)
        .with_step_limit(opts.setup.step_limit)
        .with_tick(opts.tick);
    let mut recorder = Recorder::with_capacity(opts.setup.workload.len() * 8);
    let out = match extra {
        Some(x) => {
            let mut fan = msgorder_trace::Fanout(vec![&mut recorder, x]);
            kernel.run(&mut host, &mut fan)
        }
        None => kernel.run(&mut host, &mut recorder),
    };
    host.farewell();
    let trace = assemble_trace(&opts.setup, recorder.events, &out.outcome, spec)?;
    Ok(ServeOutcome {
        trace,
        outcome: out.outcome,
        drift: out.drift,
        crc_rejected: host.crc_rejected(),
        chaos_injected: host.chaos_injected(),
    })
}
