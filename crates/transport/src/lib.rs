//! Real-transport runtime for the ordering protocols: the simulator's
//! verified protocol objects running over real OS sockets.
//!
//! The simnet kernel drives protocols through the transport-agnostic
//! [`ProtocolHost`] boundary (DESIGN.md §13): framed events in, framed
//! actions plus delivery decisions out. This crate supplies the *real*
//! host for that boundary:
//!
//! - [`frame`] — length-prefixed, CRC-32-checked framing with
//!   per-channel multiplexing, written in place into a reused buffer
//!   and decoded incrementally, in place, from arbitrary read splits;
//! - [`endpoint`] — TCP and Unix-domain sockets behind one address
//!   syntax (`tcp:HOST:PORT`, `unix:PATH`);
//! - [`wire`] — the message protocol: a JSON `Hello`/`Welcome`/`Bye`
//!   handshake, then sequence-numbered [`EventMsg`](wire::EventMsg) /
//!   [`ActionMsg`](wire::ActionMsg) round-trips in a fixed-width binary
//!   encoding;
//! - [`supervisor`] — dialing with the reliable-link exponential
//!   backoff curve;
//! - [`server`] — [`SocketHost`], a
//!   [`HostDriver`](msgorder_simnet::HostDriver) whose protocol
//!   instances live in other OS processes, and [`serve`], which runs a
//!   whole session under the wall-clock
//!   [`RealtimeKernel`](msgorder_simnet::RealtimeKernel) and assembles
//!   the recorded trace;
//! - [`client`] — the peer process: dial, learn the
//!   [`Setup`](msgorder_trace::Setup), instantiate a registry protocol,
//!   answer events until `Bye`;
//! - [`metrics_http`] — a minimal blocking HTTP endpoint serving a
//!   [`SharedRegistry`](msgorder_trace::SharedRegistry) in the
//!   Prometheus text format, for `msgorder serve --metrics-addr` and
//!   the soak harness.
//!
//! Because the realtime kernel fixes every frame's arrival time at
//! transmit time and records through the standard trace pipeline, a
//! trace captured from a live socket run replays **bit-exact** in the
//! discrete-event simulator — same fingerprint, same event stream, same
//! verdict — and rides the verify/shrink tooling unchanged.
//!
//! [`ProtocolHost`]: msgorder_simnet::ProtocolHost

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod endpoint;
pub mod frame;
pub mod metrics_http;
pub mod server;
pub mod supervisor;
pub mod wire;

pub use client::{run_client, ClientOptions, ClientReport};
pub use endpoint::{Conn, Endpoint, Listener};
pub use frame::{crc32, Decoder, Frame, FrameError, FrameRef, CRC_LEN, MAX_FRAME};
pub use metrics_http::{scrape, MetricsExporter};
pub use server::{
    serve, serve_on, serve_on_observed, ServeOptions, ServeOutcome, SocketHost, TransportError,
};
pub use supervisor::{connect_with_retry, Backoff};
pub use wire::{FramedConn, Incoming, WIRE_VERSION};
