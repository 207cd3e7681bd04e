//! End-to-end transport tests: frame-codec properties, and the PR's
//! headline guarantee — a trace recorded from a *real socket* run
//! (multiple OS threads speaking the framed wire protocol) replays
//! bit-exact in the discrete-event simulator: same fingerprint, same
//! event stream, same verdict.

use msgorder_simnet::{FaultModel, InProcessHost, LatencyModel, RealtimeKernel, Workload};
use msgorder_trace::{assemble_trace, replay, Recorder, Setup, Trace};
use msgorder_transport::wire::{ActionMsg, ControlMsg, EventMsg, FramedConn};
use msgorder_transport::{
    run_client, serve_on, ClientOptions, Decoder, Endpoint, Frame, ServeOptions,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn encode_all(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
    frames
        .iter()
        .flat_map(|(ch, p)| msgorder_transport::frame::encode(*ch, p).expect("fits"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The decoder reassembles any frame sequence from any split of the
    /// byte stream — TCP may deliver one byte at a time or everything
    /// at once.
    #[test]
    fn frame_codec_survives_arbitrary_split_reads(
        frames in proptest::collection::vec(
            (0u8..8, proptest::collection::vec(0u8..=255, 0..200)),
            1..8,
        ),
        chunk in 1usize..40,
    ) {
        let stream = encode_all(&frames);
        let mut dec = Decoder::new();
        let mut got: Vec<Frame> = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while let Some(f) = dec.try_next().expect("well-formed stream") {
                got.push(f);
            }
        }
        prop_assert_eq!(got.len(), frames.len());
        for (g, (ch, p)) in got.iter().zip(&frames) {
            prop_assert_eq!(g.channel, *ch);
            prop_assert_eq!(&g.payload, p);
        }
        prop_assert_eq!(dec.pending(), 0, "no bytes left over");
    }

    /// A truncated frame stays pending (never yields a partial frame),
    /// and completes once the remaining bytes arrive.
    #[test]
    fn partial_frames_wait_for_the_tail(
        payload in proptest::collection::vec(0u8..=255, 1..100),
        cut in 1usize..100,
    ) {
        let bytes = msgorder_transport::frame::encode(5, &payload).expect("fits");
        let cut = cut.min(bytes.len() - 1);
        let mut dec = Decoder::new();
        dec.push(&bytes[..cut]);
        prop_assert_eq!(dec.try_next().expect("prefix is well-formed"), None);
        dec.push(&bytes[cut..]);
        let f = dec.try_next().expect("well-formed").expect("complete now");
        prop_assert_eq!(f.payload, payload);
    }

    /// Length prefixes beyond the cap are rejected without waiting for
    /// (or allocating) the announced payload.
    #[test]
    fn oversized_lengths_are_rejected_up_front(
        excess in 1u32..1_000_000,
        channel in 0u8..=255,
    ) {
        let len = msgorder_transport::MAX_FRAME as u32 + excess;
        let mut dec = Decoder::new();
        dec.push(&len.to_le_bytes());
        dec.push(&[channel]);
        prop_assert!(dec.try_next().is_err());
    }

    /// A CRC-mode decoder fed arbitrary garbage, in arbitrary split
    /// positions, never panics: every well-framed-but-corrupt chunk is
    /// skipped and counted, and framing violations surface as errors.
    #[test]
    fn crc_decoder_never_panics_on_arbitrary_bytes(
        junk in proptest::collection::vec(0u8..=255, 0..600),
        chunk in 1usize..40,
    ) {
        let mut dec = Decoder::new();
        dec.enable_crc();
        'outer: for piece in junk.chunks(chunk) {
            dec.push(piece);
            loop {
                match dec.try_next() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => break 'outer, // framing violation: stream dead
                }
            }
        }
    }

    /// Flipping any single bit in the body of a checksummed frame makes
    /// the decoder reject it — CRC-32 detects all 1-bit errors.
    #[test]
    fn any_single_bit_flip_in_a_crc_frame_is_rejected(
        channel in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..100),
        flip in 0usize..1_000_000,
    ) {
        let clean = msgorder_transport::frame::encode_crc(channel, &payload).expect("fits");
        let body_bits = (clean.len() - 4) * 8;
        let bit = flip % body_bits;
        let mut dirty = clean;
        dirty[4 + bit / 8] ^= 1 << (bit % 8);
        let mut dec = Decoder::new();
        dec.enable_crc();
        dec.push(&dirty);
        prop_assert_eq!(dec.try_next(), Ok(None), "corrupt frame must not surface");
        prop_assert_eq!(dec.crc_rejected(), 1);
    }
}

static SOCK_SEQ: AtomicU64 = AtomicU64::new(0);

fn sock_path() -> PathBuf {
    std::env::temp_dir().join(format!(
        "msgorder-live-{}-{}.sock",
        std::process::id(),
        SOCK_SEQ.fetch_add(1, Ordering::Relaxed),
    ))
}

fn live_setup(protocol: &str, reliable: bool, messages: usize, spec: Option<&str>) -> Setup {
    Setup {
        processes: 3,
        latency: LatencyModel::Fixed(1),
        seed: 0xbeef,
        faults: FaultModel::none(),
        workload: Workload::uniform_random(3, messages, 0x5eed),
        protocol: protocol.to_owned(),
        reliable,
        spec: spec.map(str::to_owned),
        step_limit: 1_000_000,
    }
}

/// Runs `setup` live over real sockets: a serving thread and one client
/// thread per process, all speaking the framed wire protocol.
fn run_live(endpoint: Endpoint, setup: Setup) -> Trace {
    let opts = ServeOptions::new(endpoint.clone(), setup);
    let spec = opts.setup.spec_predicate().expect("valid spec");
    let listener = opts.endpoint.listen().expect("binds");
    let dial = listener.local_endpoint().expect("has an address");
    let clients: Vec<_> = (0..opts.setup.processes)
        .map(|node| {
            let copts = ClientOptions::new(dial.clone(), node);
            std::thread::spawn(move || run_client(&copts))
        })
        .collect();
    let outcome = serve_on(listener, &opts, spec.as_ref()).expect("live session runs");
    for (node, c) in clients.into_iter().enumerate() {
        let report = c.join().expect("client thread").expect("client succeeds");
        assert!(report.processed > 0, "node {node} processed events");
        assert_eq!(report.connects, 1, "node {node} never reconnected");
    }
    let r = outcome.outcome.expect("no protocol bug");
    assert!(r.completed && !r.halted, "live run ran to quiescence");
    assert!(outcome.drift.dispatches > 0);
    outcome.trace
}

/// The acceptance-criteria run: 3 real processes (threads speaking the
/// real wire protocol over a Unix socket), causal-rst, 200 messages —
/// the recorded trace replays bit-exact with the same verdict.
#[test]
fn unix_socket_run_replays_bit_exact() {
    let trace = run_live(
        Endpoint::Unix(sock_path()),
        live_setup("causal-rst", false, 200, Some("causal")),
    );
    assert!(
        trace.run_events().count() >= 800,
        "200 messages = 800 run events"
    );
    let report = replay(&trace).expect("replays");
    let re = report.reexecution.as_ref().expect("registry protocol");
    assert!(re.identical, "event streams match bit-exact");
    assert_eq!(re.fingerprint, trace.footer.fingerprint);
    assert_eq!(report.verdict_ok, Some(true), "verdict reproduced");
    assert!(report.ok(), "{report:?}");
    assert_eq!(
        trace.footer.verdict.as_ref().map(|v| v.violated),
        Some(false),
        "causal-rst satisfies the causal spec"
    );
}

/// Same guarantee over TCP loopback, with the reliable link layered
/// under the protocol (timers and retransmission state cross the
/// boundary too).
#[test]
fn tcp_run_replays_bit_exact() {
    let trace = run_live(
        Endpoint::Tcp("127.0.0.1:0".into()),
        live_setup("fifo", true, 40, Some("fifo")),
    );
    let report = replay(&trace).expect("replays");
    assert!(report.ok(), "{report:?}");
}

/// Every registry protocol (plus its reliable variant where supported)
/// runs unmodified behind the ProtocolHost boundary: the realtime
/// kernel + host pipeline records a trace that replays bit-exact.
#[test]
fn every_registry_protocol_replays_from_the_realtime_kernel() {
    use msgorder_protocols::ProtocolKind;
    for kind in ProtocolKind::fixed() {
        let reliabilities: &[bool] = if kind.supports_retransmission() {
            &[false, true]
        } else {
            &[false]
        };
        for &reliable in reliabilities {
            let setup = live_setup(kind.name(), reliable, 12, None);
            let n = setup.processes;
            let mut host = InProcessHost::new(n, &setup.workload, |node| {
                kind.instantiate_with(n, node, reliable)
            });
            let kernel = RealtimeKernel::new(setup.config(), &setup.workload)
                .with_step_limit(setup.step_limit);
            let mut recorder = Recorder::default();
            let out = kernel.run(&mut host, &mut recorder);
            let trace =
                assemble_trace(&setup, recorder.events, &out.outcome, None).expect("assembles");
            let report = replay(&trace).expect("replays");
            assert!(
                report.ok(),
                "{} (reliable={reliable}) diverged: {report:?}",
                kind.name()
            );
        }
    }
}

/// The adversarial acceptance criterion, over a real loopback socket:
/// with wire chaos armed on both sides of a version-2 session, every
/// injected CRC-corrupt frame is rejected and counted at the receiving
/// end, the connection resyncs instead of dying, the run completes,
/// and the recorded trace still replays bit-exact with the same
/// verdict — corruption on the wire is invisible to the kernel.
#[test]
fn wire_chaos_frames_are_rejected_counted_and_replay_survives() {
    let setup = live_setup("causal-rst", false, 60, Some("causal"));
    let mut opts = ServeOptions::new(Endpoint::Unix(sock_path()), setup);
    opts.wire_chaos = Some(0xC0FFEE);
    let spec = opts.setup.spec_predicate().expect("valid spec");
    let listener = opts.endpoint.listen().expect("binds");
    let dial = listener.local_endpoint().expect("has an address");
    let clients: Vec<_> = (0..opts.setup.processes)
        .map(|node| {
            let mut copts = ClientOptions::new(dial.clone(), node);
            copts.wire_chaos = Some(0xBAD5_EED5);
            std::thread::spawn(move || run_client(&copts))
        })
        .collect();
    let outcome = serve_on(listener, &opts, spec.as_ref()).expect("live session runs");
    let mut client_rejected = 0u64;
    for (node, c) in clients.into_iter().enumerate() {
        let report = c.join().expect("client thread").expect("client succeeds");
        assert!(report.processed > 0, "node {node} processed events");
        assert_eq!(report.connects, 1, "corruption must not kill the link");
        client_rejected += report.crc_rejected;
    }
    assert!(outcome.chaos_injected > 0, "server-side chaos really fired");
    assert!(
        client_rejected >= outcome.chaos_injected,
        "every server-injected corrupt frame was rejected client-side \
         ({client_rejected} < {})",
        outcome.chaos_injected
    );
    assert!(
        outcome.crc_rejected > 0,
        "client-injected corrupt frames were rejected server-side"
    );
    let r = outcome.outcome.expect("no protocol bug");
    assert!(r.completed && !r.halted, "chaos'd run ran to quiescence");
    let report = replay(&outcome.trace).expect("replays");
    let re = report.reexecution.as_ref().expect("registry protocol");
    assert!(re.identical, "event streams match bit-exact");
    assert_eq!(re.fingerprint, outcome.trace.footer.fingerprint);
    assert_eq!(report.verdict_ok, Some(true), "verdict reproduced");
    assert_eq!(
        outcome.trace.footer.verdict.as_ref().map(|v| v.violated),
        Some(false),
        "causal-rst still satisfies the causal spec under wire chaos"
    );
}

/// An event naming a message or process the run does not have is a
/// malformed payload like any other: the client fails the connection
/// with `InvalidData`. Unchecked, the first reached `Ctx::meta` and the
/// second `delivered_from[from]` inside `causal-rst`, and the client
/// died of an index out of bounds.
#[test]
fn client_refuses_events_naming_unknown_ids() {
    use msgorder_runs::{MessageId, ProcessId};
    use msgorder_simnet::HostEvent;
    use msgorder_transport::wire::{CH_CONTROL, CH_EVENT};
    use msgorder_transport::TransportError;

    let unknown_message = HostEvent::Request {
        msg: MessageId(1_000_000),
    };
    let unknown_sender = HostEvent::UserFrame {
        from: ProcessId(7),
        msg: MessageId(0),
        tag: br#"{"sent":[[0,0,0],[0,0,0],[0,0,0]]}"#.to_vec(),
    };
    for ev in [unknown_message, unknown_sender] {
        let listener = Endpoint::Unix(sock_path()).listen().expect("binds");
        let copts = ClientOptions::new(listener.local_endpoint().expect("has an address"), 0);
        let client = std::thread::spawn(move || run_client(&copts));
        // A server that welcomes the client, then sends the one event.
        let mut framed = FramedConn::new(listener.accept().expect("client dials"));
        let hello: ControlMsg = framed.recv_on(CH_CONTROL).expect("hello");
        assert!(matches!(hello, ControlMsg::Hello { node: 0, .. }));
        let welcome = ControlMsg::Welcome {
            setup: live_setup("causal-rst", false, 3, None),
            version: 1,
        };
        framed.send(CH_CONTROL, &welcome).expect("welcome");
        let event = EventMsg {
            seq: 0,
            now: 0,
            ev: ev.clone(),
        };
        framed.send(CH_EVENT, &event).expect("event");
        match client.join().expect("the client must not panic") {
            Err(TransportError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{ev:?}: {e}");
            }
            other => panic!("{ev:?}: expected an InvalidData failure, got {other:?}"),
        }
    }
}

/// A client whose connection dies mid-run redials through the
/// supervisor, resumes at the in-flight event, and the session still
/// produces a bit-exact replayable trace: the wire protocol's sequence
/// numbers + reply cache make the drop invisible to the kernel.
#[test]
fn client_reconnects_after_a_dropped_connection() {
    let endpoint = Endpoint::Unix(sock_path());
    let setup = live_setup("fifo", false, 30, Some("fifo"));
    let opts = ServeOptions::new(endpoint.clone(), setup);
    let spec = opts.setup.spec_predicate().expect("valid spec");
    let listener = opts.endpoint.listen().expect("binds");
    let dial = listener.local_endpoint().expect("has an address");

    // Nodes 1 and 2 are ordinary clients; node 0 drops its connection
    // after a few events and relies on the supervisor to resume.
    let mut clients = Vec::new();
    for node in 1..3 {
        let copts = ClientOptions::new(dial.clone(), node);
        clients.push(std::thread::spawn(move || {
            run_client(&copts).expect("client succeeds").processed
        }));
    }
    let flaky_dial = dial.clone();
    let flaky = std::thread::spawn(move || flaky_client(&flaky_dial, 0));

    let outcome = serve_on(listener, &opts, spec.as_ref()).expect("live session runs");
    let r = outcome.outcome.expect("no protocol bug");
    assert!(r.completed, "run survived the drop");
    for c in clients {
        assert!(c.join().expect("client thread") > 0);
    }
    let reconnects = flaky.join().expect("flaky thread");
    assert!(reconnects >= 2, "the flaky client really did redial");
    let report = replay(&outcome.trace).expect("replays");
    assert!(report.ok(), "{report:?}");
}

/// A hand-rolled client that processes 5 events, drops the connection,
/// then reconnects (preserving protocol state and the reply cache) and
/// finishes normally. Returns the number of connections it made.
fn flaky_client(endpoint: &Endpoint, node: usize) -> u32 {
    use msgorder_simnet::{HostEnv, Protocol, ProtocolHost};
    use msgorder_transport::wire::{CH_ACTION, CH_CONTROL, CH_EVENT};

    let mut connects = 0u32;
    let mut state: Option<(Box<dyn Protocol>, HostEnv)> = None;
    let mut cache: Option<ActionMsg> = None;
    let mut next_seq = 0u64;
    loop {
        let conn = msgorder_transport::connect_with_retry(
            endpoint,
            &msgorder_transport::Backoff::new(Duration::from_millis(10), 10),
        )
        .expect("dials");
        connects += 1;
        let mut framed = FramedConn::new(conn);
        framed
            .send(
                CH_CONTROL,
                &ControlMsg::Hello {
                    node,
                    resume: next_seq,
                    // This hand-rolled client never enables CRC framing,
                    // so it must pin the connection at wire version 1.
                    version: 1,
                },
            )
            .expect("hello");
        let ControlMsg::Welcome { setup, version } = framed.recv_on(CH_CONTROL).expect("welcome")
        else {
            panic!("expected Welcome");
        };
        assert_eq!(version, 1, "server must honor a v1-only peer");
        if state.is_none() {
            let kind = msgorder_protocols::ProtocolKind::by_name(&setup.protocol, None)
                .expect("known protocol");
            state = Some((
                kind.instantiate_with(setup.processes, node, setup.reliable),
                HostEnv::new(node, setup.processes, &setup.workload),
            ));
        }
        let mut handled_this_conn = 0u32;
        // Not `while let`: the mid-run hang-up moves `framed` out of the loop.
        #[allow(clippy::while_let_loop)]
        loop {
            let frame = match framed.recv() {
                Ok(f) => f,
                Err(_) => break, // server closed or timed out: redial
            };
            match frame.channel {
                CH_CONTROL => return connects, // Bye
                CH_EVENT => {
                    let msg: EventMsg = serde_json::from_slice(&frame.payload).expect("decodes");
                    if msg.seq < next_seq {
                        let reply = cache.clone().expect("cached reply for duplicate");
                        framed.send(CH_ACTION, &reply).expect("resend");
                        continue;
                    }
                    let (proto, env) = state.as_mut().expect("instantiated");
                    env.set_now(msg.now);
                    proto.process_event(env, msg.ev);
                    let reply = ActionMsg {
                        seq: msg.seq,
                        actions: env.take_actions(),
                    };
                    next_seq = msg.seq + 1;
                    framed.send(CH_ACTION, &reply).expect("reply");
                    cache = Some(reply);
                    handled_this_conn += 1;
                    // First connection only: hang up mid-run to force
                    // the supervisor's resume path.
                    if connects == 1 && handled_this_conn == 5 {
                        drop(framed);
                        break;
                    }
                }
                other => panic!("unexpected channel {other}"),
            }
        }
    }
}
