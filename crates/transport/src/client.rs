//! The peer side: one OS process hosting one protocol instance behind
//! a framed connection.
//!
//! The client is intentionally dumb about time and ordering — it is the
//! *protocol* side of the [`ProtocolHost`] split. It dials the server
//! (with supervisor backoff), learns the run's [`Setup`](msgorder_trace::Setup) from the
//! `Welcome`, instantiates its registry protocol, and then answers each
//! [`EventMsg`] with one [`ActionMsg`] until `Bye`. Reconnection keeps
//! the protocol state and the last reply, so a resent in-flight event
//! is answered from cache instead of reprocessed.
//!
//! [`ProtocolHost`]: msgorder_simnet::ProtocolHost
//! [`EventMsg`]: crate::wire::EventMsg

use crate::endpoint::Endpoint;
use crate::server::TransportError;
use crate::supervisor::{connect_with_retry, Backoff};
use crate::wire::{bad_data, ActionMsg, ControlMsg, FramedConn, Incoming, WIRE_VERSION};
use msgorder_protocols::ProtocolKind;
use msgorder_simnet::{HostEnv, Protocol, ProtocolHost};
use std::io;
use std::time::Duration;

/// Options for [`run_client`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// The server to dial.
    pub endpoint: Endpoint,
    /// This process's id.
    pub node: usize,
    /// Reconnect policy.
    pub backoff: Backoff,
    /// Per-read socket timeout.
    pub io_timeout: Duration,
    /// When set, this client's outgoing frames inject deterministic
    /// CRC-corrupt copies (seeded per node), so the *server* exercises
    /// and counts its reject-and-resync path.
    pub wire_chaos: Option<u64>,
}

impl ClientOptions {
    /// Defaults: standard backoff, 60 s read patience (the server may
    /// legitimately be waiting on other peers between our events), no
    /// wire chaos.
    pub fn new(endpoint: Endpoint, node: usize) -> ClientOptions {
        ClientOptions {
            endpoint,
            node,
            backoff: Backoff::default(),
            io_timeout: Duration::from_secs(60),
            wire_chaos: None,
        }
    }
}

/// Summary of one completed client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientReport {
    /// Events processed (cache hits for resent duplicates excluded).
    pub processed: u64,
    /// Connections established (1 = no reconnects were needed).
    pub connects: u32,
    /// Incoming frames discarded for CRC mismatch, across every
    /// connection of the session.
    pub crc_rejected: u64,
}

/// The client's protocol instance plus its host environment.
struct Instance {
    protocol: Box<dyn Protocol>,
    env: HostEnv,
}

/// Dials the server and serves one protocol instance until the server
/// says `Bye`.
///
/// # Errors
/// Dial/handshake failures, an announced setup that fails
/// [`Setup::validate`](msgorder_trace::Setup::validate) or names an
/// unknown protocol, or a connection loss the backoff budget could not
/// outlast.
pub fn run_client(opts: &ClientOptions) -> Result<ClientReport, TransportError> {
    let mut instance: Option<Instance> = None;
    let mut cache: Option<ActionMsg> = None;
    let mut next_seq: u64 = 0;
    let mut report = ClientReport {
        processed: 0,
        connects: 0,
        crc_rejected: 0,
    };
    loop {
        let conn = connect_with_retry(&opts.endpoint, &opts.backoff)?;
        conn.set_read_timeout(Some(opts.io_timeout))?;
        report.connects += 1;
        let mut framed = FramedConn::new(conn);
        framed.send_control(&ControlMsg::Hello {
            node: opts.node,
            resume: next_seq,
            version: WIRE_VERSION,
        })?;
        let welcome = framed.recv()?;
        let Incoming::Control(ControlMsg::Welcome { setup, version }) = welcome else {
            return Err(TransportError::Handshake(format!(
                "expected Welcome, got {welcome:?}"
            )));
        };
        if version != WIRE_VERSION {
            return Err(TransportError::Handshake(format!(
                "server speaks wire version {version}, this build only {WIRE_VERSION}"
            )));
        }
        // The setup sizes and indexes everything below (the protocol's
        // per-process state, the workload the environment admits events
        // against), so a malformed one is refused before it is trusted.
        setup
            .validate()
            .map_err(|e| TransportError::Handshake(format!("invalid setup: {e}")))?;
        framed.enable_crc();
        if let Some(seed) = opts.wire_chaos {
            framed.enable_chaos(seed ^ opts.node as u64);
        }
        if instance.is_none() {
            let spec = setup.spec_predicate()?;
            let kind = ProtocolKind::by_name(&setup.protocol, spec.as_ref()).ok_or_else(|| {
                TransportError::Handshake(format!(
                    "setup names unknown protocol {:?}",
                    setup.protocol
                ))
            })?;
            if opts.node >= setup.processes {
                return Err(TransportError::Handshake(format!(
                    "node {} out of range for a {}-process run",
                    opts.node, setup.processes
                )));
            }
            instance = Some(Instance {
                protocol: kind.instantiate_with(setup.processes, opts.node, setup.reliable),
                env: HostEnv::new(opts.node, setup.processes, &setup.workload),
            });
        }
        let Some(inst) = instance.as_mut() else {
            return Err(TransportError::Handshake(
                "protocol instance missing after Welcome".to_string(),
            ));
        };
        // A redial is the wire-level analogue of a crash/restart
        // window: bump the environment's epoch so control frames sent
        // after the reconnect carry the new epoch and pre-drop
        // stragglers are rejectable as stale (see `protocols::link`).
        inst.env.set_epoch(u64::from(report.connects - 1));
        let served = serve_events(
            &mut framed,
            inst,
            &mut cache,
            &mut next_seq,
            &mut report.processed,
        );
        report.crc_rejected += framed.crc_rejected();
        match served {
            Ok(()) => return Ok(report),
            Err(e) if recoverable(&e) => continue, // redial via the supervisor
            Err(e) => return Err(TransportError::Io(e)),
        }
    }
}

/// Whether a session error is worth a reconnect attempt (the server may
/// still be running and will resend the in-flight event).
fn recoverable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// The event loop on one established connection; `Ok(())` means the
/// server said `Bye`.
fn serve_events(
    framed: &mut FramedConn,
    instance: &mut Instance,
    cache: &mut Option<ActionMsg>,
    next_seq: &mut u64,
    processed: &mut u64,
) -> io::Result<()> {
    loop {
        let msg = match framed.recv()? {
            Incoming::Control(ControlMsg::Bye) => return Ok(()),
            Incoming::Event(msg) => msg,
            other => return Err(bad_data(format!("unexpected message mid-run: {other:?}"))),
        };
        if msg.seq < *next_seq {
            // The reply to this event was lost in a reconnect: answer
            // from the cache, never reprocess.
            if let Some(reply) = cache.as_ref().filter(|c| c.seq == msg.seq) {
                framed.send_actions(reply)?;
                continue;
            }
            return Err(bad_data(format!(
                "duplicate event seq {} without a cached reply",
                msg.seq
            )));
        }
        // The server sends the next event or resends the last one; a
        // gap means events this instance never saw.
        if msg.seq > *next_seq {
            return Err(bad_data(format!(
                "event seq {} skips past {}",
                msg.seq, *next_seq
            )));
        }
        // Protocol callbacks index by the ids an event names; one this
        // run does not have is a malformed payload.
        if !instance.env.admits(&msg.ev) {
            return Err(bad_data(format!(
                "event names an unknown message or process: {:?}",
                msg.ev
            )));
        }
        instance.env.set_now(msg.now);
        instance.protocol.process_event(&mut instance.env, msg.ev);
        let reply = ActionMsg {
            seq: msg.seq,
            actions: instance.env.take_actions(),
        };
        *next_seq = msg.seq + 1;
        *processed += 1;
        framed.send_actions(&reply)?;
        *cache = Some(reply);
    }
}
