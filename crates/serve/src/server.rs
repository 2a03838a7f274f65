//! Socket transport for the daemon: Unix-domain or TCP, thread per
//! connection, std-only (no async runtime).
//!
//! The listener polls in non-blocking mode so a `shutdown` verb can
//! stop the accept loop; connection readers use short read timeouts
//! for the same reason. Each connection speaks the
//! [`crate::protocol`] line protocol; a `subscribe` switches the
//! connection to raw streaming until the job completes, after which
//! the server closes it. A request line longer than
//! [`MAX_REQUEST_BYTES`] is answered with a `bad_request` error and
//! its connection is closed, so no client can grow the daemon's memory
//! without bound.

use crate::daemon::Daemon;
use crate::error::ServeError;
use crate::job::pump_stream;
use crate::protocol::{error_line, handle_line, Reply};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerAddr {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7411` (`:0` for an ephemeral
    /// port — read the bound address back from [`Server::addr`]).
    Tcp(String),
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(dur),
            Conn::Tcp(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// A running socket front-end over a [`Daemon`].
pub struct Server {
    daemon: Daemon,
    listener: Listener,
    addr: ServerAddr,
    shutdown: Arc<AtomicBool>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds the listener. A stale Unix socket file from a dead
    /// process is removed first; for TCP the resolved address
    /// (ephemeral port filled in) is readable via [`Server::addr`].
    pub fn bind(daemon: Daemon, addr: ServerAddr) -> std::io::Result<Server> {
        let (listener, addr) = match addr {
            ServerAddr::Unix(path) => {
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path)?;
                l.set_nonblocking(true)?;
                (Listener::Unix(l), ServerAddr::Unix(path))
            }
            ServerAddr::Tcp(spec) => {
                let l = TcpListener::bind(&spec)?;
                l.set_nonblocking(true)?;
                let bound = l.local_addr()?.to_string();
                (Listener::Tcp(l), ServerAddr::Tcp(bound))
            }
        };
        Ok(Server {
            daemon,
            listener,
            addr,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> &ServerAddr {
        &self.addr
    }

    /// A handle that makes [`Server::run`] return (used by embedders;
    /// the protocol's `shutdown` verb does the same from the wire).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serves connections until a `shutdown` verb arrives (or the
    /// shutdown handle is set), then drains the daemon's jobs, joins
    /// the connection threads, and returns.
    pub fn run(self) -> std::io::Result<()> {
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shutdown.load(Ordering::Acquire) {
            let accepted = match &self.listener {
                Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            };
            match accepted {
                Ok(conn) => {
                    let daemon = self.daemon.clone();
                    let shutdown = Arc::clone(&self.shutdown);
                    handles.push(std::thread::spawn(move || {
                        let _ = serve_connection(&daemon, conn, &shutdown);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
            handles.retain(|h| !h.is_finished());
        }
        // Drain every queued and running job, which also completes all
        // subscriber streams, so streaming connections finish on their
        // own; request connections notice the flag on their next read
        // timeout.
        self.daemon.shutdown();
        for h in handles {
            let _ = h.join();
        }
        if let ServerAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// The longest request line the daemon reads, newline excluded.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// What [`read_request_line`] found.
enum RequestLine {
    /// A complete request (the unterminated tail before EOF counts).
    Complete,
    /// More than [`MAX_REQUEST_BYTES`] arrived without a newline.
    TooLong,
    /// EOF or shutdown.
    Closed,
}

/// Reads one `\n`-terminated line of at most [`MAX_REQUEST_BYTES`]
/// bytes, tolerating read timeouts (used to poll the shutdown flag).
fn read_request_line(
    reader: &mut BufReader<Conn>,
    line: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> std::io::Result<RequestLine> {
    line.clear();
    loop {
        // Room for the longest request plus its newline: a line that
        // fills it without a newline is over the cap.
        let room = (MAX_REQUEST_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', line) {
            // read_until only returns Ok once it saw the newline, hit
            // EOF or filled the room.
            Ok(_) if line.is_empty() => return Ok(RequestLine::Closed),
            Ok(_) if line.last() != Some(&b'\n') && line.len() > MAX_REQUEST_BYTES => {
                return Ok(RequestLine::TooLong)
            }
            Ok(_) => return Ok(RequestLine::Complete),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // A timeout mid-line keeps the partial bytes in `line`;
                // keep accumulating unless the server is going down.
                if shutdown.load(Ordering::Acquire) {
                    return Ok(RequestLine::Closed);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn write_line(writer: &mut Conn, text: &str) -> std::io::Result<()> {
    writer.write_all(text.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn serve_connection(
    daemon: &Daemon,
    conn: Conn,
    shutdown: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    conn.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut writer = conn.try_clone()?;
    let mut reader = BufReader::new(conn);
    let mut line = Vec::new();
    loop {
        match read_request_line(&mut reader, &mut line, shutdown)? {
            RequestLine::Complete => {}
            RequestLine::Closed => return Ok(()),
            RequestLine::TooLong => {
                // The rest of the line is never read, so the framing
                // is lost: answer, then close.
                let e = ServeError::BadRequest {
                    reason: format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                };
                return write_line(&mut writer, &error_line(&e));
            }
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            let e = ServeError::BadRequest {
                reason: "request line is not UTF-8".into(),
            };
            write_line(&mut writer, &error_line(&e))?;
            continue;
        };
        let trimmed = text.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue;
        }
        match handle_line(daemon, trimmed) {
            Reply::Line(text) => write_line(&mut writer, &text)?,
            Reply::Stream { ack, rx } => {
                write_line(&mut writer, &ack)?;
                let _ = pump_stream(rx, &mut writer);
                return Ok(());
            }
            Reply::Shutdown { ack } => {
                write_line(&mut writer, &ack)?;
                shutdown.store(true, Ordering::Release);
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::daemon::ServeConfig;
    use dynaquar_core::spec::{parse_json, Value};
    use std::thread::JoinHandle;

    /// A server on a fresh Unix socket: its socket path, a control
    /// client, the server thread, and the scratch directory.
    fn boot(tag: &str) -> (PathBuf, Client, JoinHandle<std::io::Result<()>>, PathBuf) {
        let dir = std::env::temp_dir().join(format!("dq-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = Daemon::open(ServeConfig::new(dir.join("state"))).unwrap();
        let sock = dir.join("sock");
        let server = Server::bind(daemon, ServerAddr::Unix(sock.clone())).unwrap();
        let control = Client::connect_retry(server.addr(), Duration::from_secs(10)).unwrap();
        (sock, control, std::thread::spawn(move || server.run()), dir)
    }

    /// Reads one reply line; returns `error.kind` (`None` for an ok reply).
    fn error_kind(reader: &mut impl BufRead) -> Option<String> {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let reply = parse_json(reply.trim_end()).unwrap();
        let kind = reply.get("error").and_then(|e| e.get("kind"));
        kind.and_then(Value::as_str).map(str::to_string)
    }

    #[test]
    fn oversized_request_gets_a_typed_error_and_the_daemon_keeps_serving() {
        let (sock, mut control, server_thread, dir) = boot("cap");
        let stream = UnixStream::connect(&sock).unwrap();
        let mut writer = stream.try_clone().unwrap();
        // The daemon closes the connection once the cap is passed, so
        // the rest of the write may fail; the reply is still readable.
        let sender = std::thread::spawn(move || {
            let _ = writer.write_all(&vec![b' '; MAX_REQUEST_BYTES + 4096]);
            let _ = writer.shutdown(std::net::Shutdown::Write);
        });
        let mut reader = BufReader::new(stream);
        assert_eq!(error_kind(&mut reader).as_deref(), Some("bad_request"));
        let mut rest = Vec::new();
        let more = matches!(reader.read_to_end(&mut rest), Ok(n) if n > 0);
        assert!(!more, "the oversized connection is closed");
        sender.join().unwrap();

        let mut fresh = Client::connect(&ServerAddr::Unix(sock)).unwrap();
        fresh.ping().unwrap();
        control.shutdown().unwrap();
        server_thread.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_utf8_request_gets_a_typed_error_and_the_connection_stays_open() {
        let (sock, mut control, server_thread, dir) = boot("utf8");
        let mut stream = UnixStream::connect(&sock).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream.write_all(b"\xff\xfe\n").unwrap();
        assert_eq!(error_kind(&mut reader).as_deref(), Some("bad_request"));
        stream.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
        assert_eq!(error_kind(&mut reader), None);

        control.shutdown().unwrap();
        server_thread.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
