//! Minimal HTTP/1.1 on std `TcpStream`: request parsing, response
//! writing, and keep-alive semantics. No external dependencies; only
//! the subset the co-design server needs (`GET`/`POST`/`DELETE`,
//! `Content-Length` bodies, `Connection` negotiation).
//!
//! Limits are hard-coded defensively: request head (request line +
//! headers) at most [`MAX_HEAD_BYTES`], body at most
//! [`MAX_BODY_BYTES`]. Oversized requests are rejected with a typed
//! [`HttpError`] the server maps to `431`/`413` responses.

use std::io::{self, BufRead, Write};

/// Maximum accepted request-head size (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request-body size.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before a full request arrived
    /// (clean close between keep-alive requests reads as this with
    /// zero bytes consumed).
    ConnectionClosed,
    /// Transport failure (including read timeouts).
    Io(io::Error),
    /// The request head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The declared body exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// The bytes received do not parse as HTTP/1.x.
    Malformed(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::ConnectionClosed => f.write_str("connection closed"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpError::BodyTooLarge => {
                write!(f, "request body exceeds {MAX_BODY_BYTES} bytes")
            }
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (lower-cased) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`.
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }

    /// The request body as UTF-8, lossily.
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one request from `stream`. Blocks until a full head (and any
/// declared body) arrives, the configured socket timeout fires, or the
/// peer closes. Consumes exactly that request's bytes, so a pipelined
/// next request stays buffered for the next call.
///
/// # Errors
///
/// [`HttpError::ConnectionClosed`] on a clean close before any byte,
/// [`HttpError::Io`] on transport failures/timeouts, and the parse
/// variants on protocol violations.
pub fn read_request(stream: &mut impl BufRead) -> Result<Request, HttpError> {
    // Accumulate until the blank line, consuming only the head's bytes.
    let mut head: Vec<u8> = Vec::with_capacity(512);
    while !head.ends_with(b"\r\n\r\n") {
        let buf = stream.fill_buf().map_err(HttpError::Io)?;
        if buf.is_empty() {
            return if head.is_empty() {
                Err(HttpError::ConnectionClosed)
            } else {
                Err(HttpError::Malformed("connection closed mid-head".into()))
            };
        }
        let mut used = 0;
        for &byte in buf {
            head.push(byte);
            used += 1;
            if head.ends_with(b"\r\n\r\n") {
                break;
            }
        }
        stream.consume(used);
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
    }
    let head_text = String::from_utf8_lossy(&head);
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_ascii_uppercase();
    let target = parts.next().ok_or_else(|| HttpError::Malformed("missing path".into()))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
    }
    let path = target.split('?').next().unwrap_or(target).to_owned();

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        stream.read_exact(&mut body).map_err(HttpError::Io)?;
    }
    Ok(Request { method, path, headers, body })
}

/// One HTTP response, ready to serialize.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response { status, content_type: "application/json", body: body.into() }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response { status, content_type: "text/plain; charset=utf-8", body: body.into() }
    }

    /// The standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            410 => "Gone",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes and writes the response (with `Content-Length` and the
    /// negotiated `Connection` header) to `stream`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (including write timeouts).
    pub fn write_to(&self, stream: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        // One buffer, one write: a head and body written separately leave
        // the body waiting on the peer's delayed ACK under Nagle.
        let mut reply = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
        );
        reply.push_str(&self.body);
        stream.write_all(reply.as_bytes())?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut io::Cursor::new(raw.to_vec()))
    }

    #[test]
    fn parses_get_with_headers() {
        let req = parse(b"GET /jobs/7?verbose=1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/jobs/7");
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.keep_alive());
        assert!(req.body.is_empty());
    }

    #[test]
    fn keep_alive_is_the_default() {
        let req = parse(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(req.keep_alive());
    }

    #[test]
    fn reads_content_length_body() {
        let req = parse(b"POST /jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"a\": true}").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body_str(), "{\"a\": true}");
    }

    #[test]
    fn clean_close_is_distinguished_from_garbage() {
        assert!(matches!(parse(b""), Err(HttpError::ConnectionClosed)));
        assert!(matches!(parse(b"GET / HT"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse(b"FTP////\r\n\r\n"), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(parse(raw.as_bytes()), Err(HttpError::BodyTooLarge)));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 8));
        assert!(matches!(parse(&raw), Err(HttpError::HeadTooLarge)));
    }

    #[test]
    fn pipelined_requests_parse_back_to_back_from_one_buffer() {
        let raw =
            b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}GET /healthz HTTP/1.1\r\n\r\n";
        let mut reader = io::BufReader::new(io::Cursor::new(raw.to_vec()));
        let first = read_request(&mut reader).unwrap();
        assert_eq!((first.method.as_str(), first.path.as_str()), ("POST", "/jobs"));
        assert_eq!(first.body_str(), "{}");
        let second = read_request(&mut reader).unwrap();
        assert_eq!((second.method.as_str(), second.path.as_str()), ("GET", "/healthz"));
        assert!(second.body.is_empty());
        assert!(matches!(read_request(&mut reader), Err(HttpError::ConnectionClosed)));
    }

    /// Counts `write` calls; a response must be exactly one.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_serializes_with_content_length() {
        let mut out = CountingWriter::default();
        Response::json(200, "{}").write_to(&mut out, true).unwrap();
        assert_eq!(out.writes, 1, "head and body must leave in one segment");
        let text = String::from_utf8(out.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
