//! Minimal HTTP/1.1 plumbing for the ops server: request parsing and
//! response writing over a raw `TcpStream`.
//!
//! Deliberately tiny — the ops plane serves `GET` with short ASCII
//! targets to trusted operators on a loopback or cluster-internal
//! address. Requests are capped at 8 KiB, read under a socket
//! timeout, and anything malformed is answered with a 4xx rather than
//! parsed charitably.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Cap on the request head (start line + headers). An ops `GET` fits
/// in a fraction of this; anything larger is hostile or lost.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket timeout: an operator's curl answers
/// instantly; a stalled peer must not pin a handler thread.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// How long [`refuse`] waits for a refused connection's request head
/// before it answers anyway: the accept loop runs it, so a trickling
/// client holds up the next connection for no longer than this.
const REFUSAL_TIMEOUT: Duration = Duration::from_millis(250);

/// A parsed request target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// Path component, e.g. `/traces/42`.
    pub path: String,
    /// Decoded `k=v` query pairs, in order.
    pub query: Vec<(String, String)>,
}

impl Request {
    /// First value of query parameter `key`.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be served; each maps to one response.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum HttpError {
    /// Malformed start line / oversized head → 400.
    BadRequest(&'static str),
    /// Any method but GET → 405.
    MethodNotAllowed,
    /// Socket error or timeout mid-read: nothing to answer.
    Io,
}

/// Read one request head from `stream` within `within` of now: the
/// bytes up to and including the blank line that ends it.
fn read_head(stream: &mut TcpStream, within: Duration) -> Result<Vec<u8>, HttpError> {
    let deadline = Instant::now() + within;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !head_complete(&buf) {
        if buf.len() >= MAX_REQUEST_BYTES {
            return Err(HttpError::BadRequest("request head too large"));
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return Err(HttpError::Io);
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return Err(HttpError::Io),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    Ok(buf)
}

/// Answer a connection the server has no handler for: drain its request
/// head (at most 8 KiB, within [`REFUSAL_TIMEOUT`]), then write a 503
/// and shut the stream down. Closing a socket whose request was never
/// read would reset the connection under the reply.
pub(crate) fn refuse(stream: &mut TcpStream, body: &str) {
    let _ = read_head(stream, REFUSAL_TIMEOUT);
    let _ = stream.set_write_timeout(Some(REFUSAL_TIMEOUT));
    respond(stream, 503, "text/plain", body);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Read and parse one request head from `stream`.
pub(crate) fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let buf = read_head(stream, IO_TIMEOUT)?;
    let head = String::from_utf8_lossy(&buf);
    let start_line = head
        .lines()
        .next()
        .ok_or(HttpError::BadRequest("empty request"))?;
    let mut parts = start_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::BadRequest("missing method"))?;
    let target = parts
        .next()
        .ok_or(HttpError::BadRequest("missing target"))?;
    if parts.next().is_none_or(|v| !v.starts_with("HTTP/")) {
        return Err(HttpError::BadRequest("not an HTTP request"));
    }
    if method != "GET" {
        return Err(HttpError::MethodNotAllowed);
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();
    Ok(Request {
        path: path.to_string(),
        query,
    })
}

fn head_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n")
}

/// Write one `Connection: close` response.
pub(crate) fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // A peer hanging up mid-write is its problem, not ours.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Run the parser against one raw request string.
    fn parse(raw: &str) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
            s
        });
        let (mut conn, _) = listener.accept().unwrap();
        let parsed = read_request(&mut conn);
        drop(writer.join().unwrap());
        parsed
    }

    #[test]
    fn parses_path_and_query() {
        let r = parse("GET /profile?seconds=2&hz=50 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.path, "/profile");
        assert_eq!(r.param("seconds"), Some("2"));
        assert_eq!(r.param("hz"), Some("50"));
        assert_eq!(r.param("missing"), None);
    }

    #[test]
    fn plain_path_has_empty_query() {
        let r = parse("GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(r.path, "/metrics");
        assert!(r.query.is_empty());
    }

    #[test]
    fn rejects_non_get_and_garbage() {
        assert_eq!(
            parse("POST /metrics HTTP/1.1\r\n\r\n"),
            Err(HttpError::MethodNotAllowed)
        );
        assert!(matches!(
            parse("not an http request at all\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }
}
