//! A deliberately minimal HTTP/1.1 codec.
//!
//! The daemon speaks exactly the subset loadgen, curl, and the CI smoke
//! test need: `Content-Length` bodies, no chunked encoding, HTTP/1.1
//! keep-alive with pipelining. Keeping the codec small is the point —
//! the workspace is offline, so a real HTTP stack is not an option, and
//! the service's value is in the batching layer, not the framing.
//!
//! Two halves:
//!
//! * **Server side** — [`parse_request`] is an *incremental* parser over
//!   a byte buffer: the event loop ([`crate::eloop`]) appends whatever
//!   the socket had and asks "is a full request here yet?". Pipelined
//!   requests arrive as consecutive parses of the same buffer.
//!   [`Response`] serialises with an explicit keep-alive decision, and
//!   its [`Body`] can be a shared `Arc<str>` so hot cached responses are
//!   written zero-copy — the cache's bytes go straight to `write(2)`
//!   without a per-request copy.
//! * **Client side** — [`client_request`] is the old one-shot
//!   `Connection: close` call; [`ClientConn`] is a persistent blocking
//!   keep-alive connection, used by `loadgen --keep-alive`, replica
//!   pushes, and fan-outs on the blocking pool. The event loop's
//!   nonblocking outbound connections ([`crate::eloop::Outbound`])
//!   encode requests and frame responses with the same two functions
//!   ([`parse_response`] is incremental, like [`parse_request`]).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Hard cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on a request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed inbound request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Raw query string (without `?`), empty when absent.
    pub query: String,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body bytes.
    pub body: Vec<u8>,
    /// Whether the request line said `HTTP/1.1`.
    pub http11: bool,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Value of a `k=v` query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }

    /// Whether the client wants the connection kept open after the
    /// response: HTTP/1.1 defaults to keep-alive unless `Connection:
    /// close`; HTTP/1.0 defaults to close unless `Connection:
    /// keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Why a request could not be parsed; maps to a 4xx status.
#[derive(Debug)]
pub enum ParseError {
    /// Socket error or EOF before a full head arrived.
    Io(std::io::Error),
    /// Malformed request line or header.
    Malformed(&'static str),
    /// Head or body exceeded its size cap.
    TooLarge,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "socket error: {e}"),
            ParseError::Malformed(what) => write!(f, "malformed request: {what}"),
            ParseError::TooLarge => write!(f, "request too large"),
        }
    }
}

/// Incrementally parse one request from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete
/// request (the caller should read more bytes and retry), or
/// `Ok(Some((request, consumed)))` where `consumed` bytes belong to this
/// request — anything after them is the start of the next pipelined
/// request and must be kept.
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, ParseError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ParseError::TooLarge);
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(ParseError::TooLarge);
    }

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ParseError::Malformed("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(ParseError::Malformed("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or(ParseError::Malformed("missing request target"))?;
    let http11 = parts.next().is_none_or(|v| v == "HTTP/1.1");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Malformed("header without ':'"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse()
                .map_err(|_| ParseError::Malformed("bad content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge);
    }

    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    let body = buf[body_start..body_start + content_length].to_vec();
    Ok(Some((
        Request {
            method,
            path,
            query,
            headers,
            body,
            http11,
        },
        body_start + content_length,
    )))
}

/// A response body: either owned text, or a shared preserialized buffer
/// (the result cache's hot path — written zero-copy, never recopied per
/// request).
#[derive(Debug, Clone)]
pub enum Body {
    /// Owned text, built for this response.
    Text(String),
    /// Shared preserialized bytes (e.g. a cached response body).
    Shared(Arc<str>),
}

impl Body {
    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.as_str().len()
    }

    /// True when the body is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The body as text.
    pub fn as_str(&self) -> &str {
        match self {
            Body::Text(s) => s,
            Body::Shared(s) => s,
        }
    }
}

impl std::ops::Deref for Body {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<String> for Body {
    fn from(s: String) -> Body {
        Body::Text(s)
    }
}

impl From<Arc<str>> for Body {
    fn from(s: Arc<str>) -> Body {
        Body::Shared(s)
    }
}

impl PartialEq<str> for Body {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

/// An outbound response: status plus a UTF-8 body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Body text (owned or shared).
    pub body: Body,
    /// Extra `(name, value)` headers (e.g. `X-Cache`).
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Body>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// A JSON error response with a standard `{"error": ...}` body.
    pub fn error(status: u16, message: &str) -> Self {
        let obj = serde::Value::Object(vec![(
            "error".to_string(),
            serde::Value::Str(message.to_string()),
        )]);
        Response::json(
            status,
            serde_json::to_string(&obj).expect("serialise error"),
        )
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// Attach an extra header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// Serialise the response head, with an explicit keep-alive
    /// decision. The body is deliberately not appended: the event loop
    /// writes head and body as separate segments so a shared body is
    /// never copied.
    pub fn head_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        head.into_bytes()
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// What [`client_request`] returns: `(status, headers, body)`.
pub type ClientResponse = (u16, Vec<(String, String)>, String);

/// A one-shot blocking HTTP client call: connect, send with
/// `Connection: close`, read the response. Returns `(status, headers,
/// body)`. Used by `prophet loadgen`'s default mode, the integration
/// tests, and the CI smoke step, so CI needs no curl.
pub fn client_request(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: Option<&str>,
) -> std::io::Result<ClientResponse> {
    client_request_with_headers(addr, method, path_and_query, body, &[])
}

/// [`client_request`] with extra request headers — how forwarding hops
/// propagate `x-prophet-trace` and `x-request-id` to the next process.
pub fn client_request_with_headers(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: Option<&str>,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<ClientResponse> {
    let mut conn = ClientConn::connect(addr)?;
    conn.request_with_policy(method, path_and_query, body, extra_headers, false)
}

/// A persistent keep-alive client connection.
///
/// Responses are framed by `Content-Length` (every response our servers
/// produce carries one), so the stream survives across requests.
/// [`is_reusable`](Self::is_reusable) turns false once the server
/// answers `Connection: close` or the stream errors; callers then dial a
/// fresh connection.
pub struct ClientConn {
    stream: TcpStream,
    /// Bytes read past the previous response (start of the next one).
    rbuf: Vec<u8>,
    reusable: bool,
}

impl ClientConn {
    /// Dial `addr` with the standard client timeouts.
    pub fn connect(addr: &str) -> std::io::Result<ClientConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(std::time::Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(ClientConn {
            stream,
            rbuf: Vec::new(),
            reusable: true,
        })
    }

    /// Whether the connection survived the last exchange and may carry
    /// another request.
    pub fn is_reusable(&self) -> bool {
        self.reusable
    }

    /// Send one request with `Connection: keep-alive` and read its
    /// response. After an `Err` the connection must be discarded.
    pub fn request(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        self.request_with_policy(method, path_and_query, body, extra_headers, true)
    }

    fn request_with_policy(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
        keep_alive: bool,
    ) -> std::io::Result<ClientResponse> {
        let req = encode_request(method, path_and_query, body, extra_headers, keep_alive);
        let result = self
            .stream
            .write_all(&req)
            .and_then(|()| self.read_response());
        if result.is_err() {
            self.reusable = false;
        }
        result
    }

    /// Read until [`parse_response`] frames one response.
    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let mut chunk = [0u8; 4096];
        let mut eof = false;
        loop {
            if let Some((resp, consumed)) = parse_response(&self.rbuf, eof)? {
                // Keep anything past this response (the server never
                // pipelines unrequested bytes, but be safe).
                self.rbuf.drain(..consumed);
                self.reusable &= keeps_alive(&resp.1);
                return Ok(resp);
            }
            let n = self.stream.read(&mut chunk)?;
            eof = n == 0;
            self.rbuf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Serialise one client request. Every request carries a
/// `content-length` (0 without a body) and an explicit keep-alive
/// decision.
pub(crate) fn encode_request(
    method: &str,
    path_and_query: &str,
    body: Option<&str>,
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
) -> Vec<u8> {
    let body = body.unwrap_or("");
    let mut req = format!(
        "{method} {path_and_query} HTTP/1.1\r\nhost: prophet\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str("\r\n");
    req.push_str(body);
    req.into_bytes()
}

/// Incrementally parse one response from the front of `buf`: the head,
/// then exactly `content-length` body bytes, or everything up to EOF
/// when the server did not frame the body. `eof` says the peer closed,
/// so no more bytes will come.
///
/// Returns `Ok(None)` while more bytes are needed, and
/// `Ok(Some((response, consumed)))` once one response is complete.
/// A malformed status line, or EOF before the response is complete,
/// is an error. Both clients ([`ClientConn`] and the event loop's
/// outbound connections) frame responses through this one parser.
pub fn parse_response(buf: &[u8], eof: bool) -> std::io::Result<Option<(ClientResponse, usize)>> {
    let closed = |what: &str| {
        Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("connection closed mid-response-{what}"),
        ))
    };
    let Some(head_end) = find_head_end(buf) else {
        return if eof { closed("head") } else { Ok(None) };
    };
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .unwrap_or("")
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| {
            l.split_once(':')
                .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();
    let body_start = head_end + 4;
    let end = match content_length(&headers) {
        Some(len) if buf.len() >= body_start + len => body_start + len,
        Some(_) => return if eof { closed("body") } else { Ok(None) },
        // Unframed: the body runs to EOF.
        None if eof => buf.len(),
        None => return Ok(None),
    };
    let body = String::from_utf8_lossy(&buf[body_start..end]).into_owned();
    Ok(Some(((status, headers, body), end)))
}

fn content_length(headers: &[(String, String)]) -> Option<usize> {
    headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
}

/// Whether a connection may carry another request after a response
/// with these headers: the body was framed by `content-length` and the
/// server did not say `connection: close`.
pub(crate) fn keeps_alive(headers: &[(String, String)]) -> bool {
    content_length(headers).is_some()
        && !headers
            .iter()
            .any(|(k, v)| k == "connection" && v.eq_ignore_ascii_case("close"))
}

/// A pool of persistent blocking keep-alive connections to upstream
/// daemons, keyed by address. Used by replica pushes and migration
/// streams, which run off the event loop, so each push reuses a warm
/// TCP connection instead of paying a fresh handshake.
///
/// Failure semantics: a request on a *reused* connection that errors is
/// retried once on a freshly dialed connection (the pooled socket may
/// simply have been closed by the peer's idle timeout); an error on a
/// fresh connection is returned to the caller.
pub struct UpstreamPool {
    conns: std::sync::Mutex<std::collections::HashMap<String, Vec<ClientConn>>>,
    max_idle_per_target: usize,
}

impl UpstreamPool {
    /// A pool keeping at most `max_idle_per_target` idle connections per
    /// upstream address.
    pub fn new(max_idle_per_target: usize) -> UpstreamPool {
        UpstreamPool {
            conns: std::sync::Mutex::new(std::collections::HashMap::new()),
            max_idle_per_target,
        }
    }

    fn checkout(&self, addr: &str) -> Option<ClientConn> {
        self.conns
            .lock()
            .expect("upstream pool poisoned")
            .get_mut(addr)
            .and_then(Vec::pop)
    }

    fn put_back(&self, addr: &str, conn: ClientConn) {
        if !conn.is_reusable() {
            return;
        }
        let mut pool = self.conns.lock().expect("upstream pool poisoned");
        let slot = pool.entry(addr.to_string()).or_default();
        if slot.len() < self.max_idle_per_target {
            slot.push(conn);
        }
    }

    /// One request against `addr`, reusing a pooled connection when one
    /// is available and returning it to the pool afterwards.
    pub fn request(
        &self,
        addr: &str,
        method: &str,
        path_and_query: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        if let Some(mut conn) = self.checkout(addr) {
            // A stale pooled socket errors here; fall through to a fresh dial.
            if let Ok(resp) = conn.request(method, path_and_query, body, extra_headers) {
                self.put_back(addr, conn);
                return Ok(resp);
            }
        }
        let mut conn = ClientConn::connect(addr)?;
        let resp = conn.request(method, path_and_query, body, extra_headers)?;
        self.put_back(addr, conn);
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_parse_waits_for_full_request() {
        let raw = b"POST /v1/predict HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody";
        for cut in 0..raw.len() {
            assert!(
                parse_request(&raw[..cut]).expect("prefix parses").is_none(),
                "cut at {cut} should be incomplete"
            );
        }
        let (req, consumed) = parse_request(raw).unwrap().expect("full request parses");
        assert_eq!(consumed, raw.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"body");
        assert!(req.wants_keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nconnection: close\r\n\r\n";
        let (first, consumed) = parse_request(raw).unwrap().expect("first parses");
        assert_eq!(first.path, "/a");
        let (second, rest) = parse_request(&raw[consumed..]).unwrap().expect("second");
        assert_eq!(second.path, "/b");
        assert!(!second.wants_keep_alive());
        assert_eq!(consumed + rest, raw.len());
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 1));
        assert!(matches!(parse_request(&raw), Err(ParseError::TooLarge)));
    }

    #[test]
    fn response_head_carries_connection_decision() {
        let resp = Response::json(200, "{}".to_string());
        let ka = String::from_utf8(resp.head_bytes(true)).unwrap();
        assert!(ka.contains("connection: keep-alive\r\n"));
        let close = String::from_utf8(resp.head_bytes(false)).unwrap();
        assert!(close.contains("connection: close\r\n"));
        assert!(close.contains("content-length: 2\r\n"));
    }
}
