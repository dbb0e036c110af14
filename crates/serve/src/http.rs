//! A minimal HTTP/1.1 codec over `std::net` streams — exactly enough
//! protocol for the archive service and nothing more (the workspace builds
//! offline, so no HTTP crate; the `vendor/` precedent applies).
//!
//! One request per connection (`Connection: close`), bodies delimited by
//! `Content-Length`, everything UTF-8. Both sides enforce size caps so a
//! garbage peer cannot make the other buffer unbounded input. The codec
//! reads and writes any byte stream: the server and the client hand it
//! their `TcpStream`s.

use std::io::{self, Read, Write};

/// Largest accepted header block (the bytes before the blank line).
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted body, bytes (an archive of a few thousand runs).
const MAX_BODY: usize = 64 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercase (`GET`, `PUT`, `POST`).
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Decoded `k=v` query pairs, in order.
    pub query: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: String,
}

impl Request {
    /// The first query parameter named `key`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn protocol_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads from `stream` until the header/body separator, then reads the
/// `Content-Length` body. Returns the parsed head text and body bytes.
fn read_message(stream: &mut impl Read) -> io::Result<(String, String)> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // No separator starts before `scanned`, so each read is searched once,
    // however few bytes a peer sends at a time.
    let mut scanned = 0;
    let head_end = loop {
        // The separator of a head within the cap starts at MAX_HEAD at
        // the latest.
        if let Some(pos) = find_head_end(&buf[scanned..buf.len().min(MAX_HEAD + 4)]) {
            break scanned + pos;
        }
        if buf.len() >= MAX_HEAD + 4 {
            return Err(protocol_err("header block exceeds 16 KiB"));
        }
        scanned = buf.len().saturating_sub(3);
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(protocol_err("connection closed before header end"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec())
        .map_err(|_| protocol_err("non-UTF-8 header"))?;
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();

    let content_length = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.trim().parse::<usize>())
        .transpose()
        .map_err(|_| protocol_err("bad Content-Length"))?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(protocol_err("body exceeds 64 MiB"));
    }
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(protocol_err("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).map_err(|_| protocol_err("non-UTF-8 body"))?;
    Ok((head, body))
}

/// Finds the `\r\n\r\n` separator.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reads and parses one request from `stream`.
///
/// # Errors
///
/// I/O failures (including read timeouts) and malformed requests
/// (`InvalidData`).
pub fn read_request(stream: &mut impl Read) -> io::Result<Request> {
    let (head, body) = read_message(stream)?;
    let request_line = head.lines().next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| protocol_err("empty request line"))?
        .to_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| protocol_err("request line has no target"))?;
    if parts.next().map(|v| v.starts_with("HTTP/")) != Some(true) {
        return Err(protocol_err("not an HTTP request line"));
    }
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_text
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();
    Ok(Request {
        method,
        path: path.to_string(),
        query,
        body,
    })
}

/// The reason phrase for the status codes the service uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes one response and flushes. The connection is then closed by the
/// caller dropping the stream.
///
/// # Errors
///
/// I/O failures (including write timeouts).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Writes one request and flushes (one request per connection).
///
/// # Errors
///
/// I/O failures (including write timeouts).
pub fn write_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Reads and parses one response from `stream`: `(status, body)`.
///
/// # Errors
///
/// I/O failures (including read timeouts) and non-HTTP responses
/// (`InvalidData`) — a garbage-speaking peer is detected here.
pub fn read_response(stream: &mut impl Read) -> io::Result<(u16, String)> {
    let (head, body) = read_message(stream)?;
    let status_line = head.lines().next().unwrap_or_default();
    let mut parts = status_line.split_whitespace();
    if parts.next().map(|v| v.starts_with("HTTP/")) != Some(true) {
        return Err(protocol_err("not an HTTP response"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| protocol_err("bad HTTP status"))?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    #[test]
    fn request_roundtrip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "PUT");
            assert_eq!(req.path, "/runs");
            assert_eq!(req.query_param("label"), Some("a/b"));
            assert_eq!(req.body, "{\"x\":1}");
            write_response(&mut stream, 200, "application/json", "{\"ok\":true}").unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"PUT /runs?label=a/b HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"x\":1}")
            .unwrap();
        let (status, body) = read_response(&mut stream).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn garbage_response_is_invalid_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_request(&mut stream);
            stream.write_all(b"** not http at all **\r\n\r\n").unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /health HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        let err = read_response(&mut stream).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        server.join().unwrap();
    }
}
