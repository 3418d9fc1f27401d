//! A minimal HTTP/1.1 keep-alive client: one request in flight per
//! connection, Content-Length framing only (all `awrap serve` speaks).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a reply may take before the request counts as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` holding the last reply's head and body.
    head_len: usize,
    body_len: usize,
}

/// The full bytes of a `POST path` request carrying `body`.
pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// The full bytes of a `GET path` request.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            head_len: 0,
            body_len: 0,
        })
    }

    /// Sends one request and reads its reply; returns the status code.
    /// The body stays readable through [`Conn::body`] until the next
    /// call. A timeout surfaces as an `io::Error`.
    pub fn exchange(&mut self, raw: &[u8]) -> io::Result<u16> {
        self.send(raw)?;
        self.recv()
    }

    /// Writes one request without waiting for replies (pipelining).
    pub fn send(&mut self, raw: &[u8]) -> io::Result<()> {
        self.stream.write_all(raw)
    }

    /// Reads the next reply; returns its status code. The body stays
    /// readable through [`Conn::body`] until the next call.
    pub fn recv(&mut self) -> io::Result<u16> {
        // Drop the previous reply; pipelined bytes after it stay.
        self.buf.drain(..self.head_len + self.body_len);
        self.head_len = 0;
        self.body_len = 0;
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill(&mut chunk)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "reply head is not UTF-8"))?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let length: usize = head
            .split("\r\n")
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("reply without Content-Length"))?;
        while self.buf.len() < head_end + length {
            self.fill(&mut chunk)?;
        }
        self.head_len = head_end;
        self.body_len = length;
        Ok(status)
    }

    fn fill(&mut self, chunk: &mut [u8]) -> io::Result<()> {
        let n = self.stream.read(chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// The body of the last reply.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.head_len..self.head_len + self.body_len]
    }
}
