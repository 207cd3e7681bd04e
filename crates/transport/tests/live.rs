//! End-to-end transport tests: frame-codec properties, and the PR's
//! headline guarantee — a trace recorded from a *real socket* run
//! (multiple OS threads speaking the framed wire protocol) replays
//! bit-exact in the discrete-event simulator: same fingerprint, same
//! event stream, same verdict.

use msgorder_simnet::{
    FaultModel, HostDriver, HostEvent, InProcessHost, LatencyModel, RealtimeKernel, SendSpec,
    Workload,
};
use msgorder_trace::{assemble_trace, replay, Recorder, Setup, Trace};
use msgorder_transport::wire::{ActionMsg, ControlMsg, EventMsg, FramedConn, Incoming};
use msgorder_transport::{
    frame, run_client, serve_on, Backoff, ClientOptions, ClientReport, Decoder, Endpoint,
    ServeOptions, SocketHost, TransportError, WIRE_VERSION,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The frames one after another, each from the by-value encoder.
fn encode_all(frames: &[(u8, Vec<u8>)], crc: bool) -> Vec<u8> {
    let encode = if crc {
        frame::encode_crc
    } else {
        frame::encode
    };
    frames
        .iter()
        .flat_map(|(ch, p)| encode(*ch, p).expect("fits"))
        .collect()
}

/// The same stream written in place, frame after frame into one buffer.
fn encode_in_place(frames: &[(u8, Vec<u8>)], crc: bool) -> Vec<u8> {
    let finish = if crc {
        frame::finish_crc
    } else {
        frame::finish
    };
    let mut out = Vec::new();
    for (ch, p) in frames {
        let start = frame::begin(&mut out, *ch);
        out.extend_from_slice(p);
        finish(&mut out, start).expect("fits");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The decoder reassembles any frame sequence from any split of the
    /// byte stream — TCP may deliver one byte at a time or everything
    /// at once — lending the payloads or copying them out, with and
    /// without checksums; and the in-place encoder writes the by-value
    /// encoder's bytes.
    #[test]
    fn frame_codec_survives_arbitrary_split_reads(
        frames in proptest::collection::vec(
            (0u8..8, proptest::collection::vec(0u8..=255, 0..200)),
            1..8,
        ),
        chunk in 1usize..40,
        crc in any::<bool>(),
    ) {
        let stream = encode_in_place(&frames, crc);
        prop_assert_eq!(&stream, &encode_all(&frames, crc));
        let (mut lending, mut copying) = (Decoder::new(), Decoder::new());
        if crc {
            lending.enable_crc();
            copying.enable_crc();
        }
        let mut expected = frames.iter();
        for piece in stream.chunks(chunk) {
            lending.push(piece);
            copying.push(piece);
            while let Some(f) = lending.next_frame().expect("well-formed stream") {
                let (ch, p) = expected.next().expect("no frame out of thin air");
                prop_assert_eq!((f.channel, f.payload), (*ch, &p[..]));
                let copy = copying.try_next().expect("well-formed stream").expect("same frame");
                prop_assert_eq!((copy.channel, &copy.payload), (*ch, p));
            }
            prop_assert_eq!(copying.try_next(), Ok(None));
        }
        prop_assert!(expected.next().is_none(), "every frame arrived");
        prop_assert_eq!(lending.pending(), 0, "no bytes left over");
        prop_assert_eq!(lending.crc_rejected() + copying.crc_rejected(), 0);
    }

    /// A truncated frame stays pending (never yields a partial frame),
    /// and completes once the remaining bytes arrive.
    #[test]
    fn partial_frames_wait_for_the_tail(
        payload in proptest::collection::vec(0u8..=255, 1..100),
        cut in 1usize..100,
    ) {
        let bytes = frame::encode(5, &payload).expect("fits");
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
                match dec.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => break 'outer, // framing violation: stream dead
                }
            }
        }
    }

    /// Flipping any single bit in the body of a checksummed frame makes
    /// the decoder reject it — CRC-32 detects all 1-bit errors — however
    /// the frame was written and however it is read; a clean frame
    /// behind the dirty one still arrives.
    #[test]
    fn any_single_bit_flip_in_a_crc_frame_is_rejected(
        channel in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..100),
        flip in 0usize..1_000_000,
    ) {
        let body_bits = (1 + payload.len() + msgorder_transport::CRC_LEN) * 8;
        let mut dirty = encode_in_place(&[(channel, payload), (channel, b"clean".to_vec())], true);
        let bit = flip % body_bits;
        dirty[4 + bit / 8] ^= 1 << (bit % 8);
        let (mut lending, mut copying) = (Decoder::new(), Decoder::new());
        lending.enable_crc();
        copying.enable_crc();
        lending.push(&dirty);
        copying.push(&dirty);
        let f = lending.next_frame().expect("recoverable").expect("the clean frame");
        prop_assert_eq!(f.payload, b"clean", "corrupt frame must not surface");
        let f = copying.try_next().expect("recoverable").expect("the clean frame");
        prop_assert_eq!(f.payload, b"clean", "corrupt frame must not surface");
        prop_assert_eq!((lending.crc_rejected(), copying.crc_rejected()), (1, 1));
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

/// The setup the hand-rolled servers below announce.
fn causal_rst_setup() -> Setup {
    live_setup("causal-rst", false, 3, None)
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
/// with wire chaos armed on both sides of a session, every
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

/// How `run_client` ends against a hand-rolled server that answers its
/// `Hello` with a `Welcome` announcing `setup` and `version`, sends it
/// `event`, and reads no reply.
fn client_outcome(
    setup: Setup,
    version: u16,
    event: &EventMsg,
) -> Result<ClientReport, TransportError> {
    let listener = Endpoint::Unix(sock_path()).listen().expect("binds");
    let mut copts = ClientOptions::new(listener.local_endpoint().expect("has an address"), 0);
    // A client that wrongly answers the event then waits for the next
    // one, which never comes: fail that wait early.
    copts.io_timeout = Duration::from_secs(2);
    let client = std::thread::spawn(move || run_client(&copts));
    let mut framed = FramedConn::new(listener.accept().expect("client dials"));
    let hello = framed.recv().expect("hello");
    assert_eq!(
        hello,
        Incoming::Control(ControlMsg::Hello {
            node: 0,
            resume: 0,
            version: WIRE_VERSION
        })
    );
    let welcome = ControlMsg::Welcome { setup, version };
    framed.send_control(&welcome).expect("welcome");
    framed.enable_crc();
    // A client that refused the Welcome has hung up by now; whether this
    // write still lands is beside the point.
    let _ = framed.send_event(event);
    client.join().expect("the client must not panic")
}

fn assert_invalid_data(outcome: Result<ClientReport, TransportError>, needle: &str) {
    match outcome {
        Err(TransportError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidData => {
            assert!(e.to_string().contains(needle), "{e}");
        }
        other => panic!("expected an InvalidData failure saying {needle:?}, got {other:?}"),
    }
}

/// An event naming a message or process the run does not have is a
/// malformed payload like any other: the client fails the connection
/// with `InvalidData`. Unchecked, the first reached `Ctx::meta` and the
/// second `delivered_from[from]` inside `causal-rst`, and the client
/// died of an index out of bounds.
#[test]
fn client_refuses_events_naming_unknown_ids() {
    use msgorder_runs::{MessageId, ProcessId};

    let unknown_message = HostEvent::Request {
        msg: MessageId(1_000_000),
    };
    let unknown_sender = HostEvent::UserFrame {
        from: ProcessId(7),
        msg: MessageId(0),
        // A well-formed 3-process tag: a refusal here is the sender's.
        tag: msgorder_protocols::tagcodec::encode(&[0; 9]),
    };
    for ev in [unknown_message, unknown_sender] {
        let event = EventMsg { seq: 0, now: 0, ev };
        assert_invalid_data(
            client_outcome(causal_rst_setup(), WIRE_VERSION, &event),
            "unknown message or process",
        );
    }
}

/// The server sends event `next_seq`, or resends `next_seq - 1` after a
/// reconnect; anything further on means events were lost, and a client
/// that processed it would silently skip them.
#[test]
fn client_refuses_an_event_that_skips_a_sequence_number() {
    let event = EventMsg {
        seq: 1,
        now: 0,
        ev: HostEvent::Init,
    };
    assert_invalid_data(
        client_outcome(causal_rst_setup(), WIRE_VERSION, &event),
        "event seq 1 skips past 0",
    );
}

/// There is one wire version: a `Welcome` announcing another is refused
/// with both numbers named, before any event is read.
#[test]
fn client_refuses_a_welcome_of_another_version() {
    let event = EventMsg {
        seq: 0,
        now: 0,
        ev: HostEvent::Init,
    };
    for version in [WIRE_VERSION - 1, WIRE_VERSION + 1] {
        match client_outcome(causal_rst_setup(), version, &event) {
            Err(TransportError::Handshake(why)) => assert!(
                why.contains(&format!("version {version},"))
                    && why.contains(&format!("only {WIRE_VERSION}")),
                "{why}"
            ),
            other => panic!("version {version}: expected a handshake refusal, got {other:?}"),
        }
    }
}

/// The `Setup` a `Welcome` carries sizes the client's protocol and
/// indexes its workload, so the client checks it before building
/// anything from it. Unchecked, a `causal-rst` send to a process the run
/// does not have passed `HostEnv::admits` (the message exists) and the
/// protocol indexed its `n × n` matrix out of bounds on the first
/// request; a huge process count would have sized that matrix.
#[test]
fn client_refuses_a_welcome_with_an_invalid_setup() {
    let request = EventMsg {
        seq: 0,
        now: 0,
        ev: HostEvent::Request {
            msg: msgorder_runs::MessageId(0),
        },
    };
    let mut out_of_range = causal_rst_setup();
    out_of_range.processes = 2;
    out_of_range.workload = Workload {
        sends: vec![SendSpec {
            at: 0,
            src: 0,
            dst: 7,
            color: None,
        }],
    };
    let mut huge = causal_rst_setup();
    huge.processes = 4_000_000_000;
    let mut untaggable = causal_rst_setup();
    untaggable.protocol = "synthesized".into();
    untaggable.spec = Some("sync-crown-2".into());
    for (setup, needle) in [
        (
            out_of_range,
            "send 0 (P0 -> P7) names a process out of range",
        ),
        (huge, "4000000000 processes (at most 256)"),
        (
            untaggable,
            "`synthesized` cannot enforce spec `sync-crown-2`",
        ),
    ] {
        match client_outcome(setup, WIRE_VERSION, &request) {
            Err(TransportError::Handshake(why)) => assert!(
                why.starts_with("invalid setup: ") && why.contains(needle),
                "{why}"
            ),
            other => panic!("expected a handshake refusal naming {needle:?}, got {other:?}"),
        }
    }
}

/// Dials `endpoint` and says `hello`: the opening of a hand-rolled
/// client.
fn dial(endpoint: &Endpoint, hello: &ControlMsg) -> FramedConn {
    let backoff = Backoff::new(Duration::from_millis(10), 10);
    let conn = msgorder_transport::connect_with_retry(endpoint, &backoff).expect("dials");
    let mut framed = FramedConn::new(conn);
    framed.send_control(hello).expect("hello");
    framed
}

/// The rest of a hand-rolled client's handshake: the server's `Welcome`
/// arrives and both directions switch to checksummed framing.
fn welcomed(framed: &mut FramedConn) -> Setup {
    let Incoming::Control(ControlMsg::Welcome { setup, version }) = framed.recv().expect("welcome")
    else {
        panic!("expected Welcome");
    };
    assert_eq!(version, WIRE_VERSION);
    framed.enable_crc();
    setup
}

/// Every way the server turns a `Hello` away, by what the error names.
#[test]
fn server_refuses_hellos_it_cannot_serve() {
    let hello = |node, resume, version| ControlMsg::Hello {
        node,
        resume,
        version,
    };
    let only = format!("only {WIRE_VERSION}");
    let below = format!("version {},", WIRE_VERSION - 1);
    let above = format!("version {},", WIRE_VERSION + 1);
    let cases = [
        (hello(0, 0, 0), vec!["version 0,", &only]),
        (hello(0, 0, 1), vec!["version 1,", &only]),
        (hello(0, 0, WIRE_VERSION - 1), vec![&below, &only]),
        (hello(0, 0, WIRE_VERSION + 1), vec![&above, &only]),
        (hello(3, 0, WIRE_VERSION), vec!["process id 3 out of range"]),
        (
            hello(0, 2, WIRE_VERSION),
            vec!["seq 2", "protocol state lost"],
        ),
    ];
    for (hello, needles) in cases {
        let opts = ServeOptions::new(
            Endpoint::Unix(sock_path()),
            live_setup("fifo", false, 3, None),
        );
        let listener = opts.endpoint.listen().expect("binds");
        // A Unix connect completes against the listen backlog, so the
        // Hello is already waiting when the host starts accepting.
        let _peer = dial(&listener.local_endpoint().expect("has an address"), &hello);
        let mut host = SocketHost::new(listener, &opts).expect("host");
        match host.await_peers() {
            Err(TransportError::Handshake(why)) => {
                for needle in needles {
                    assert!(why.contains(needle), "{hello:?}: {why}");
                }
            }
            other => panic!("{hello:?}: expected a handshake refusal, got {other:?}"),
        }
    }
}

/// Only a reply *behind* the in-flight event can be a leftover from
/// before a reconnect. One ahead of it answers an event the server has
/// not sent: the link fails instead of being drained forever, even
/// though the right reply follows.
#[test]
fn server_refuses_a_reply_ahead_of_the_in_flight_event() {
    let mut setup = live_setup("async", false, 3, None);
    setup.processes = 1; // one link to handshake; no kernel runs this setup
    let mut opts = ServeOptions::new(Endpoint::Unix(sock_path()), setup);
    opts.handshake_timeout = Duration::from_millis(100); // nobody redials
    let listener = opts.endpoint.listen().expect("binds");
    let endpoint = listener.local_endpoint().expect("has an address");
    let peer = std::thread::spawn(move || {
        let hello = ControlMsg::Hello {
            node: 0,
            resume: 0,
            version: WIRE_VERSION,
        };
        let mut framed = dial(&endpoint, &hello);
        welcomed(&mut framed);
        let Incoming::Event(event) = framed.recv().expect("event") else {
            panic!("expected an event");
        };
        let reply = |seq| ActionMsg {
            seq,
            actions: Vec::new(),
        };
        framed
            .send_actions(&reply(event.seq + 1))
            .expect("early reply");
        // The server may hang up on the first before the second lands.
        let _ = framed.send_actions(&reply(event.seq));
        framed.recv().expect_err("the server hangs up")
    });
    let mut host = SocketHost::new(listener, &opts).expect("host");
    host.await_peers().expect("handshake");
    let e = host
        .dispatch(0, HostEvent::Init, 0)
        .expect_err("the early reply fails the link");
    assert!(
        e.detail
            .contains("reply seq 1 is ahead of the in-flight event 0"),
        "{e}"
    );
    peer.join().expect("peer thread");
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

    let mut connects = 0u32;
    let mut state: Option<(Box<dyn Protocol>, HostEnv)> = None;
    let mut cache: Option<ActionMsg> = None;
    let mut next_seq = 0u64;
    loop {
        let hello = ControlMsg::Hello {
            node,
            resume: next_seq,
            version: WIRE_VERSION,
        };
        let mut framed = dial(endpoint, &hello);
        connects += 1;
        let setup = welcomed(&mut framed);
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
            let msg = match framed.recv() {
                Ok(Incoming::Event(msg)) => msg,
                Ok(Incoming::Control(ControlMsg::Bye)) => return connects,
                Ok(other) => panic!("unexpected message {other:?}"),
                Err(_) => break, // server closed or timed out: redial
            };
            if msg.seq < next_seq {
                let reply = cache.as_ref().expect("cached reply for duplicate");
                framed.send_actions(reply).expect("resend");
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
            framed.send_actions(&reply).expect("reply");
            cache = Some(reply);
            handled_this_conn += 1;
            // First connection only: hang up mid-run to force the
            // supervisor's resume path.
            if connects == 1 && handled_this_conn == 5 {
                drop(framed);
                break;
            }
        }
    }
}
