//! A tiny blocking HTTP exporter for the Prometheus text format.
//!
//! Scrapers (`curl`, Prometheus, the soak harness's own self-check)
//! GET any path on the bound endpoint and receive the current
//! [`SharedRegistry`] encoding as `text/plain; version=0.0.4`. The
//! server is deliberately minimal: one accept loop on a background
//! thread, one short-lived connection per scrape, no keep-alive, no
//! routing. It reuses the crate's [`Listener`]/[`Conn`] plumbing, so
//! `tcp:` and `unix:` endpoints both work.
//!
//! Robustness over features: a malformed, slow, or hostile client can
//! only lose its own connection — every per-connection error is
//! contained in the accept loop and never unwinds into the process
//! serving the actual protocol session.

use crate::endpoint::{Conn, Endpoint, Listener};
use msgorder_trace::SharedRegistry;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection read timeout: a scraper that cannot finish its
/// request headers in this window is dropped.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Upper bound on buffered request bytes before we stop reading and
/// just answer; protects the exporter from header floods.
const MAX_REQUEST: usize = 8 * 1024;

/// A running metrics endpoint: background accept loop serving the
/// registry's current encoding to every connection.
///
/// Shut down explicitly with [`shutdown`](MetricsExporter::shutdown)
/// or implicitly on drop (both join the serving thread).
#[derive(Debug)]
pub struct MetricsExporter {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsExporter {
    /// Starts serving `registry` on an already-bound listener (bind
    /// port 0 first to let the OS pick; the real address is available
    /// via [`endpoint`](MetricsExporter::endpoint)).
    ///
    /// # Errors
    /// The underlying socket error switching the listener to
    /// non-blocking accepts or resolving its local address.
    pub fn start(listener: Listener, registry: SharedRegistry) -> io::Result<MetricsExporter> {
        listener.set_nonblocking(true)?;
        let endpoint = listener.local_endpoint()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || serve_loop(&listener, &registry, &thread_stop));
        Ok(MetricsExporter {
            endpoint,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound scrape address (port 0 resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.join();
    }

    fn join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.join();
    }
}

/// The accept loop: poll the non-blocking listener, answer each
/// connection, contain every per-connection failure.
fn serve_loop(listener: &Listener, registry: &SharedRegistry, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(conn) => {
                // A broken scraper loses only its own scrape.
                let _ = answer(conn, registry);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                // Transient accept failure (EMFILE, ECONNABORTED, …):
                // back off and keep serving.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Reads one request's headers (best effort) and writes the metrics
/// snapshot back. Any path and method get the same answer.
fn answer(mut conn: Conn, registry: &SharedRegistry) -> io::Result<()> {
    conn.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut request = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        request.extend_from_slice(&chunk[..n]);
        if request.windows(4).any(|w| w == b"\r\n\r\n") || request.len() > MAX_REQUEST {
            break;
        }
    }
    let body = registry.encode();
    let header = format!(
        "HTTP/1.1 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    conn.write_all(header.as_bytes())?;
    conn.write_all(body.as_bytes())?;
    conn.flush()
}

/// Scrapes a running exporter once and returns the response body (the
/// Prometheus text payload). This is how the soak harness proves its
/// own endpoint answers before reporting success.
///
/// # Errors
/// Connection/read failures, or a response with no header/body split.
pub fn scrape(endpoint: &Endpoint) -> io::Result<String> {
    let mut conn = endpoint.connect()?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: msgorder\r\nConnection: close\r\n\r\n")?;
    conn.flush()?;
    let mut response = String::new();
    conn.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.1 200") => Ok(body.to_string()),
        Some((head, _)) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "metrics endpoint answered {:?}",
                head.lines().next().unwrap_or("")
            ),
        )),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "metrics endpoint answered without a header/body split",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgorder_trace::registry::parse_samples;

    fn local_exporter(registry: SharedRegistry) -> MetricsExporter {
        let listener = Endpoint::parse("tcp:127.0.0.1:0")
            .expect("parses")
            .listen()
            .expect("binds");
        MetricsExporter::start(listener, registry).expect("starts")
    }

    #[test]
    fn serves_the_registry_over_http() {
        let registry = SharedRegistry::default();
        registry.with(|r| r.add_counter("msgorder_deliveries_total", &[], 42));
        let exporter = local_exporter(registry.clone());
        let body = scrape(exporter.endpoint()).expect("scrape succeeds");
        let samples = parse_samples(&body).expect("parseable exposition");
        assert_eq!(samples.get("msgorder_deliveries_total"), Some(&42.0));
        // A later scrape sees later values: it is a live feed, not a
        // bind-time snapshot.
        registry.with(|r| r.add_counter("msgorder_deliveries_total", &[], 8));
        let body = scrape(exporter.endpoint()).expect("second scrape succeeds");
        let samples = parse_samples(&body).expect("parseable exposition");
        assert_eq!(samples.get("msgorder_deliveries_total"), Some(&50.0));
        exporter.shutdown();
    }

    #[test]
    fn malformed_client_does_not_kill_the_exporter() {
        let registry = SharedRegistry::default();
        registry.with(|r| r.add_counter("msgorder_deliveries_total", &[], 1));
        let exporter = local_exporter(registry);
        // Garbage bytes, then immediate hangup.
        {
            let mut conn = exporter.endpoint().connect().expect("connects");
            let _ = conn.write_all(b"\x00\xff not http at all");
        }
        // An empty request (connect + close) as well.
        drop(exporter.endpoint().connect().expect("connects"));
        let body = scrape(exporter.endpoint()).expect("exporter still answers");
        assert!(body.contains("msgorder_deliveries_total 1"));
        exporter.shutdown();
    }
}
