//! Minimal HTTP/1.1 framing over `std::net` — just enough protocol for
//! the coordinator/worker wire, hand-rolled in the same spirit as the
//! workspace's hand-rolled JSON reader: strict about what it accepts,
//! dependency-free, and sized for a trusted cluster rather than the open
//! internet.
//!
//! Supported surface: one request per connection (`Connection: close`
//! semantics), `Content-Length` bodies only (no chunked encoding), header
//! block capped at [`MAX_HEAD`] and bodies at [`MAX_BODY`]. Both ends set
//! socket read/write timeouts before touching the stream, so a stalled or
//! dead peer costs a bounded wait, never a wedged loop.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum accepted size of the request/status line plus headers.
pub const MAX_HEAD: usize = 64 * 1024;

/// Maximum accepted body size. Partial artifacts carry per-cell results
/// for their whole range, so this is generous; it exists to bound a
/// malicious or corrupt `Content-Length`, not to ration honest uploads.
pub const MAX_BODY: usize = 1 << 30;

/// Per-socket read/write timeout applied by [`set_socket_timeouts`].
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client as sent (`GET`, `POST`).
    pub method: String,
    /// Request target path (`/lease`, `/status`, ...), query included.
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Applies the standard per-socket timeouts.
///
/// # Errors
///
/// Propagates the `setsockopt` failures, which on supported platforms only
/// occur for a closed socket.
pub fn set_socket_timeouts(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))
}

/// Reads everything up to and including the blank line that ends the
/// header block, returning (head bytes, leftover body bytes already read).
fn read_head(stream: &mut impl Read) -> Result<(Vec<u8>, Vec<u8>), String> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(pos) = find_head_end(&buf) {
            let rest = buf.split_off(pos + 4);
            return Ok((buf, rest));
        }
        if buf.len() > MAX_HEAD {
            return Err(format!("header block exceeds {MAX_HEAD} bytes"));
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("reading header block: {e}"))?;
        if n == 0 {
            return Err("connection closed before the header block ended".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_headers(lines: std::str::Lines<'_>) -> Result<Vec<(String, String)>, String> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) =
            line.split_once(':').ok_or_else(|| format!("malformed header line {line:?}"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(headers)
}

/// Reads the `Content-Length` body. The buffer grows only as bytes
/// arrive, so a claimed length costs nothing until it is actually sent.
fn read_body(
    stream: &mut impl Read,
    headers: &[(String, String)],
    mut body: Vec<u8>,
) -> Result<Vec<u8>, String> {
    let length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse::<usize>().map_err(|_| format!("bad content-length {v:?}")))
        .transpose()?
        .unwrap_or(0);
    if length > MAX_BODY {
        return Err(format!("body of {length} bytes exceeds {MAX_BODY}"));
    }
    let mut chunk = [0u8; 16 * 1024];
    while body.len() < length {
        let n = stream.read(&mut chunk).map_err(|e| format!("reading body: {e}"))?;
        if n == 0 {
            return Err(format!("connection closed at {} of {length} body bytes", body.len()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(length);
    Ok(body)
}

/// Reads and parses one request from `stream` (a socket, or any byte
/// source).
///
/// # Errors
///
/// Fails on I/O errors (including timeouts), a stream that ends before
/// the head or the `Content-Length` body is complete, a malformed request
/// line or header, or head/body size caps; the caller should drop the
/// connection.
pub fn read_request(stream: &mut impl Read) -> Result<Request, String> {
    let (head, leftover) = read_head(stream)?;
    let head = std::str::from_utf8(&head).map_err(|_| "non-UTF-8 header block".to_string())?;
    let mut lines = head.lines();
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(format!("malformed request line {request_line:?}"));
    };
    let headers = parse_headers(lines)?;
    let body = read_body(stream, &headers, leftover)?;
    Ok(Request { method: method.to_string(), path: path.to_string(), headers, body })
}

/// Writes a complete response (status line, minimal headers, body) and
/// flushes.
///
/// # Errors
///
/// Propagates write/flush failures; the caller should drop the connection.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A parsed `http://host:port` coordinator URL.
#[derive(Debug, Clone)]
pub struct CoordinatorUrl {
    /// The `host:port` authority to connect to.
    pub authority: String,
}

impl CoordinatorUrl {
    /// Parses `http://host:port` (an optional trailing `/` is tolerated).
    ///
    /// # Errors
    ///
    /// Rejects non-`http://` schemes and empty authorities — the serve
    /// wire is plaintext HTTP on a trusted network by design.
    pub fn parse(url: &str) -> Result<Self, String> {
        let rest = url
            .strip_prefix("http://")
            .ok_or_else(|| format!("coordinator url {url:?} must start with http://"))?;
        let authority = rest.trim_end_matches('/');
        if authority.is_empty() || authority.contains('/') {
            return Err(format!("coordinator url {url:?} must be http://host:port"));
        }
        Ok(Self { authority: authority.to_string() })
    }
}

/// One client request/response exchange: connects, sends `method path`
/// with `body`, reads the response to completion.
///
/// Returns `(status code, response body)`.
///
/// # Errors
///
/// Fails on connect/read/write errors (including timeouts) and malformed
/// response framing. HTTP error statuses are returned, not errors — the
/// caller decides whether a `400` is fatal.
pub fn request(
    url: &CoordinatorUrl,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(&url.authority)
        .map_err(|e| format!("connecting to {}: {e}", url.authority))?;
    set_socket_timeouts(&stream).map_err(|e| format!("configuring socket: {e}"))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: {}\r\n", url.authority);
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\nconnection: close\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes()).map_err(|e| format!("sending request: {e}"))?;
    stream.write_all(body).map_err(|e| format!("sending body: {e}"))?;
    stream.flush().map_err(|e| format!("sending request: {e}"))?;

    let (head, leftover) = read_head(&mut stream)?;
    let head = std::str::from_utf8(&head).map_err(|_| "non-UTF-8 response head".to_string())?;
    let mut lines = head.lines();
    let status_line = lines.next().ok_or("empty response")?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let headers = parse_headers(lines)?;
    let body = read_body(&mut stream, &headers, leftover)?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn round_trips_a_request_and_response_over_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            set_socket_timeouts(&stream).expect("timeouts");
            let req = read_request(&mut stream).expect("request parses");
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/upload");
            assert_eq!(req.header("x-specstab-worker"), Some("w1"));
            assert_eq!(req.body, b"{\"k\":1}");
            write_response(&mut stream, 200, "OK", "application/json", b"{\"ok\":true}")
                .expect("response writes");
        });
        let url = CoordinatorUrl::parse(&format!("http://{addr}")).expect("url");
        let (status, body) =
            request(&url, "POST", "/upload", &[("x-specstab-worker", "w1")], b"{\"k\":1}")
                .expect("exchange");
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"ok\":true}");
        server.join().expect("server thread");
    }

    #[test]
    fn url_parsing_rejects_non_http_and_paths() {
        assert!(CoordinatorUrl::parse("https://h:1").is_err());
        assert!(CoordinatorUrl::parse("http://").is_err());
        assert!(CoordinatorUrl::parse("http://h:1/x").is_err());
        assert_eq!(CoordinatorUrl::parse("http://h:1/").unwrap().authority, "h:1");
    }

    #[test]
    fn oversized_heads_and_bodies_are_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            set_socket_timeouts(&stream).expect("timeouts");
            read_request(&mut stream).expect_err("giant content-length rejected")
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1).as_bytes(),
            )
            .expect("send");
        let err = server.join().expect("server thread");
        assert!(err.contains("exceeds"), "got {err}");
    }
}
