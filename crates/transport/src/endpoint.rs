//! Transport endpoints: TCP sockets and Unix domain sockets behind one
//! address syntax.
//!
//! ```text
//! tcp:127.0.0.1:4400      a TCP host:port
//! unix:/tmp/msgorder.sock a Unix domain socket path
//! ```

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// A listen/dial address: TCP or Unix domain socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP `host:port` address.
    Tcp(String),
    /// A Unix domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `tcp:HOST:PORT` or `unix:PATH`.
    ///
    /// # Errors
    /// A human-readable message when the scheme is unknown or the
    /// address is empty/malformed.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr
                .rsplit_once(':')
                .is_none_or(|(host, _)| host.is_empty())
            {
                return Err(format!("tcp endpoint {addr:?} is not HOST:PORT"));
            }
            Ok(Endpoint::Tcp(addr.to_owned()))
        } else if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix endpoint has an empty path".to_owned());
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else {
            Err(format!("endpoint {s:?} must start with `tcp:` or `unix:`"))
        }
    }

    /// Binds a listener at this endpoint. A stale Unix socket file from
    /// a previous run is removed first.
    ///
    /// # Errors
    /// The underlying bind error.
    pub fn listen(&self) -> io::Result<Listener> {
        match self {
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr.as_str())?)),
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
        }
    }

    /// Dials this endpoint once.
    ///
    /// # Errors
    /// The underlying connect error.
    pub fn connect(&self) -> io::Result<Conn> {
        match self {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            Endpoint::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A bound listener (either family). The Unix variant unlinks its
/// socket file on drop.
#[derive(Debug)]
pub enum Listener {
    /// A bound TCP listener.
    Tcp(TcpListener),
    /// A bound Unix-domain listener.
    Unix(UnixListener),
}

impl Listener {
    /// Accepts one connection (blocking unless
    /// [`set_nonblocking`](Listener::set_nonblocking) was called),
    /// retrying an accept a signal interrupted.
    ///
    /// # Errors
    /// The underlying accept error (`WouldBlock` when non-blocking and
    /// no peer is waiting).
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = retry_interrupted(|| l.accept())?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            Listener::Unix(l) => {
                let (s, _) = retry_interrupted(|| l.accept())?;
                Ok(Conn::Unix(s))
            }
        }
    }

    /// Toggles non-blocking accept.
    ///
    /// # Errors
    /// The underlying socket error.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// The endpoint this listener is bound to (TCP reports the actual
    /// local address, so port 0 resolves to the assigned port).
    ///
    /// # Errors
    /// The underlying socket error.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr
                    .as_pathname()
                    .ok_or_else(|| io::Error::other("unnamed unix listener"))?;
                Ok(Endpoint::Unix(path.to_path_buf()))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(l) = self {
            if let Ok(addr) = l.local_addr() {
                if let Some(path) = addr.as_pathname() {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }
}

/// One established connection (either family).
#[derive(Debug)]
pub enum Conn {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix-domain stream.
    Unix(UnixStream),
}

impl Conn {
    /// Sets the read timeout (`None` blocks forever).
    ///
    /// # Errors
    /// The underlying socket error.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

/// Repeats `op` while it fails with `Interrupted`. Both ends of a
/// session set a receive timeout, and signal(7) says a socket read
/// with one is not restarted after a signal handler runs, even under
/// `SA_RESTART`: without the retry, any handled signal (a profiler's
/// `SIGPROF`, say) would end a live session.
fn retry_interrupted<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            done => return done,
        }
    }
}

/// Reads retry when a signal interrupts them.
impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        retry_interrupted(|| match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        })
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails its first read with `Interrupted`, then reads `data`.
    struct InterruptedOnce<'a> {
        interrupted: bool,
        data: &'a [u8],
    }

    impl Read for InterruptedOnce<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::Error::from(io::ErrorKind::Interrupted));
            }
            self.data.read(buf)
        }
    }

    #[test]
    fn an_interrupted_read_is_retried() {
        let mut reader = InterruptedOnce {
            interrupted: false,
            data: b"hello",
        };
        let mut buf = [0u8; 8];
        let n = retry_interrupted(|| reader.read(&mut buf)).expect("the retry reads");
        assert_eq!(&buf[..n], b"hello");
        assert!(reader.interrupted);
        // Any other error is handed back at once.
        let mut calls = 0;
        let err = retry_interrupted(|| {
            calls += 1;
            Err::<(), _>(io::Error::from(io::ErrorKind::WouldBlock))
        })
        .unwrap_err();
        assert_eq!((err.kind(), calls), (io::ErrorKind::WouldBlock, 1));
    }

    #[test]
    fn parses_both_schemes_and_rejects_garbage() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:4400"),
            Ok(Endpoint::Tcp("127.0.0.1:4400".into()))
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/x.sock")))
        );
        assert!(Endpoint::parse("udp:1.2.3.4:1").is_err());
        assert!(Endpoint::parse("tcp:no-port").is_err());
        assert!(Endpoint::parse("unix:").is_err());
    }

    #[test]
    fn display_round_trips() {
        for s in ["tcp:127.0.0.1:80", "unix:/tmp/a.sock"] {
            assert_eq!(Endpoint::parse(s).expect("parses").to_string(), s);
        }
    }
}
