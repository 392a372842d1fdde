//! A minimal pipelining HTTP/1.1 client: requests are written whenever
//! they are due, responses are read back in order as they arrive. One
//! connection never waits for a response before sending the next
//! request, so the generator stays open-loop over a keep-alive
//! connection.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The echoed `X-Scales-Request-Id`, when present.
    pub id: Option<String>,
    /// The body bytes.
    pub body: Vec<u8>,
}

/// A keep-alive connection with an incremental response parser.
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
    nonblocking: bool,
}

/// Socket read timeouts tick in scheduler jiffies and overshoot by up to
/// about 8 ms, far too coarse to keep a send schedule by. Waits longer
/// than this margin block in `read` with a timeout that ends this early;
/// the rest of the wait polls a non-blocking socket in [`POLL_SLICE`]
/// sleeps, which are precise.
///
/// The polling is deliberate: on a VM, a wait that lets both vCPUs halt
/// (`ppoll`) makes every wake-up of the server pay the hypervisor's wake
/// latency, which varies with the host's load. Measured on a 2-vCPU VM,
/// that doubled `fleet_mixed` busy p50 in some runs and spread every
/// latency metric beyond its bound.
const COARSE_MARGIN: Duration = Duration::from_millis(20);
pub const POLL_SLICE: Duration = Duration::from_micros(100);

impl Connection {
    /// Connect to the server.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(1 << 16),
            nonblocking: false,
        })
    }

    fn set_nonblocking(&mut self, on: bool) -> std::io::Result<()> {
        if self.nonblocking != on {
            self.stream.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    /// Write one complete request.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send(&mut self, raw: &[u8]) -> std::io::Result<()> {
        self.set_nonblocking(false)?;
        self.stream.write_all(raw)
    }

    /// Wait until `until` for responses; returns every response that
    /// completed (possibly none), as soon as at least one is complete.
    ///
    /// # Errors
    ///
    /// Propagates socket errors, a closed connection, or a malformed
    /// response head.
    pub fn poll(&mut self, until: Instant) -> std::io::Result<Vec<Response>> {
        let mut done = Vec::new();
        let mut chunk = [0u8; 1 << 15];
        loop {
            while let Some(response) = self.take_response()? {
                done.push(response);
            }
            let now = Instant::now();
            if !done.is_empty() || now >= until {
                return Ok(done);
            }
            let left = until - now;
            let read = if left > COARSE_MARGIN {
                self.set_nonblocking(false)?;
                self.stream.set_read_timeout(Some(left - COARSE_MARGIN))?;
                self.stream.read(&mut chunk)
            } else {
                self.set_nonblocking(true)?;
                self.stream.read(&mut chunk)
            };
            match read {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.nonblocking {
                        std::thread::sleep(
                            POLL_SLICE.min(until.saturating_duration_since(Instant::now())),
                        );
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Cut one complete response off the front of the buffer.
    fn take_response(&mut self) -> std::io::Result<Option<Response>> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let bad = |what: &str| std::io::Error::new(ErrorKind::InvalidData, what.to_string());
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let header = |wanted: &str| {
            head.lines().find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case(wanted)
                    .then(|| value.trim().to_string())
            })
        };
        let length: usize = match header("content-length") {
            Some(v) => v.parse().map_err(|_| bad("bad content-length"))?,
            None => 0,
        };
        let id = header("x-scales-request-id");
        let body_start = head_end + 4;
        if self.buf.len() < body_start + length {
            return Ok(None);
        }
        let body = self.buf[body_start..body_start + length].to_vec();
        self.buf.drain(..body_start + length);
        Ok(Some(Response { status, id, body }))
    }
}

/// Build one raw POST request.
#[must_use]
pub fn post(path: &str, content_type: &str, headers: &[(&str, String)], body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    raw.push_str("\r\n");
    let mut raw = raw.into_bytes();
    raw.extend_from_slice(body);
    raw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_split_anywhere() {
        let wire: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nX-Scales-Request-Id: r1\r\n\r\nabcHTTP/1.1 503 Busy\r\ncontent-length: 0\r\n\r\n";
        for cut in [1, 17, 60, 63, wire.len() - 1] {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut s, _) = listener.accept().unwrap();
                s.write_all(&wire[..cut]).unwrap();
                std::thread::sleep(Duration::from_millis(2));
                s.write_all(&wire[cut..]).unwrap();
                std::thread::sleep(Duration::from_millis(20));
            });
            let mut conn = Connection::open(addr).unwrap();
            let mut got = Vec::new();
            let until = Instant::now() + Duration::from_secs(5);
            while got.len() < 2 {
                got.extend(conn.poll(until).unwrap());
            }
            assert_eq!((got[0].status, got[0].body.as_slice()), (200, &b"abc"[..]));
            assert_eq!(got[0].id.as_deref(), Some("r1"));
            assert_eq!(
                (got[1].status, got[1].body.len(), got[1].id.as_deref()),
                (503, 0, None)
            );
            server.join().unwrap();
        }
    }
}
