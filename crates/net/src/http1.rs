//! An incremental HTTP/1.1 request parser and response serializer for the
//! reactor.
//!
//! The old serving core read one request per connection with blocking
//! `BufRead` and closed the socket after the response. Under a reactor,
//! bytes arrive in arbitrary fragments, several pipelined requests can sit
//! in one buffer, and connections persist — so parsing has to be a state
//! machine over an accumulating buffer:
//!
//! * bytes are [`fed`](Http1Parser::feed) in as they arrive; [`Http1Parser::next_request`]
//!   yields complete requests, `Incomplete`, or a ready-to-send error
//!   response;
//! * keep-alive follows HTTP/1.1 defaults (`Connection: close` honoured,
//!   HTTP/1.0 closes unless `keep-alive`);
//! * a malformed request produces a `400` and the parser *resynchronizes*
//!   at the end of that request's header block, so one bad request does not
//!   kill a keep-alive connection;
//! * an oversized request line (or header block) produces a `431` and is
//!   fatal — there is no trustworthy resync point inside an over-long line;
//! * `Content-Length` bodies are consumed and discarded (the platform API
//!   is query-parameter based); `Transfer-Encoding: chunked` is refused
//!   with `501`.

/// Upper bound on the request line, in bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Upper bound on one request's full header block, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a declared request body we are willing to swallow.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// A parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRequest {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target as sent, e.g. `/assign?worker=3`.
    pub target: String,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

/// A response, serialized by [`HttpResponse::serialize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (the platform API always sends JSON).
    pub body: Vec<u8>,
    /// `Retry-After` seconds for backpressure responses.
    pub retry_after: Option<u32>,
    /// `Location` target for redirect responses (e.g. a read replica
    /// bouncing a write to the primary with `307`).
    pub location: Option<String>,
    /// Force `Connection: close` regardless of the request's keep-alive.
    pub close: bool,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body: body.into_bytes(),
            retry_after: None,
            location: None,
            close: false,
        }
    }

    /// A JSON error with an `{"error": …}` body.
    pub fn error(status: u16, message: &str) -> Self {
        let escaped: String = message
            .chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                '\n' => "\\n".chars().collect(),
                c => vec![c],
            })
            .collect();
        Self::json(status, format!("{{\"error\":\"{escaped}\"}}"))
    }

    /// The backpressure response: `503` with a `Retry-After` hint.
    pub fn overloaded(retry_after_secs: u32) -> Self {
        let mut r = Self::error(503, "server overloaded, retry shortly");
        r.retry_after = Some(retry_after_secs);
        r
    }

    /// The standard reason phrase.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            307 => "Temporary Redirect",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            431 => "Request Header Fields Too Large",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }

    /// Serialize with framing headers. `keep_alive` is the *request's*
    /// wish; the `close` flag overrides it.
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        let alive = keep_alive && !self.close;
        let mut out = Vec::with_capacity(self.body.len() + 128);
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
                self.status,
                self.reason(),
                self.body.len()
            )
            .as_bytes(),
        );
        if let Some(secs) = self.retry_after {
            out.extend_from_slice(format!("Retry-After: {secs}\r\n").as_bytes());
        }
        if let Some(url) = &self.location {
            out.extend_from_slice(format!("Location: {url}\r\n").as_bytes());
        }
        out.extend_from_slice(if alive {
            b"Connection: keep-alive\r\n\r\n"
        } else {
            b"Connection: close\r\n\r\n"
        });
        out.extend_from_slice(&self.body);
        out
    }
}

/// One step of the parser.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseStep {
    /// A complete request is ready.
    Request(RawRequest),
    /// The peer sent something unusable; send this response. `fatal` means
    /// the connection cannot be resynchronized and must close after the
    /// response is written.
    Error {
        /// The response to send.
        response: HttpResponse,
        /// Close after sending?
        fatal: bool,
    },
    /// Not enough bytes yet.
    Incomplete,
}

#[derive(Debug)]
enum State {
    /// Accumulating a request head.
    Head,
    /// Discarding `remaining` body bytes, then emit the pending request.
    Body {
        remaining: usize,
        pending: Option<RawRequest>,
    },
    /// A malformed head was reported; discard bytes through the next blank
    /// line, then resume at `Head`.
    Resync,
    /// A fatal error was reported; ignore everything else.
    Dead,
}

/// The incremental parser. One instance per connection.
#[derive(Debug)]
pub struct Http1Parser {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    pos: usize,
    state: State,
}

impl Default for Http1Parser {
    fn default() -> Self {
        Self::new()
    }
}

impl Http1Parser {
    /// A fresh parser.
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            pos: 0,
            state: State::Head,
        }
    }

    /// Append newly received bytes.
    pub fn feed(&mut self, data: &[u8]) {
        // Compact once the consumed prefix dominates, to keep the buffer
        // from growing across a long keep-alive session.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Advance the state machine by at most one request.
    pub fn next_request(&mut self) -> ParseStep {
        loop {
            match &mut self.state {
                State::Dead => return ParseStep::Incomplete,
                State::Body { remaining, pending } => {
                    let have = self.buf.len() - self.pos;
                    let eat = have.min(*remaining);
                    self.pos += eat;
                    *remaining -= eat;
                    if *remaining > 0 {
                        return ParseStep::Incomplete;
                    }
                    let req = pending.take();
                    self.state = State::Head;
                    match req {
                        Some(r) => return ParseStep::Request(r),
                        None => continue, // resync body consumed
                    }
                }
                State::Resync => {
                    match find_blank_line(&self.buf[self.pos..]) {
                        Some(end) => {
                            self.pos += end;
                            self.state = State::Head;
                            continue;
                        }
                        None => {
                            // Still inside the bad head. Cap how much junk
                            // we are willing to scan.
                            if self.buf.len() - self.pos > MAX_HEAD_BYTES {
                                self.state = State::Dead;
                                return ParseStep::Error {
                                    response: HttpResponse::error(
                                        431,
                                        "request head exceeds the size limit",
                                    ),
                                    fatal: true,
                                };
                            }
                            return ParseStep::Incomplete;
                        }
                    }
                }
                State::Head => return self.parse_head(),
            }
        }
    }

    fn parse_head(&mut self) -> ParseStep {
        // RFC 7230 §3.5: skip empty line(s) before the request line. Doing
        // this unconditionally keeps behaviour independent of how the peer
        // fragmented its writes.
        loop {
            let data = &self.buf[self.pos..];
            if data.starts_with(b"\r\n") {
                self.pos += 2;
            } else if data.starts_with(b"\n") {
                self.pos += 1;
            } else {
                break;
            }
        }
        let data = &self.buf[self.pos..];
        if data == b"\r" {
            return ParseStep::Incomplete; // might become "\r\n"
        }
        // Locate the end of the head block first; limits apply even before
        // it is complete.
        let Some(head_end) = find_blank_line(data) else {
            if let Some(nl) = find_crlf(data) {
                if nl > MAX_REQUEST_LINE {
                    return self.fatal_431("request line exceeds the size limit");
                }
                // The request line is complete even though the head is not:
                // a malformed one is reported *now* and the parser
                // resynchronizes, instead of waiting for a blank line the
                // peer may never send.
                if let Err(msg) = parse_request_line(&data[..nl]) {
                    // Keep the trailing `\n` as the resync anchor so the
                    // blank-line scan can match a bare `\r\n` that follows.
                    self.pos += nl;
                    self.state = State::Resync;
                    return ParseStep::Error {
                        response: HttpResponse::error(400, msg),
                        fatal: false,
                    };
                }
            } else if data.len() > MAX_REQUEST_LINE {
                return self.fatal_431("request line exceeds the size limit");
            }
            if data.len() > MAX_HEAD_BYTES {
                return self.fatal_431("request head exceeds the size limit");
            }
            return ParseStep::Incomplete;
        };
        if head_end > MAX_HEAD_BYTES {
            return self.fatal_431("request head exceeds the size limit");
        }
        let head = &data[..head_end];
        let first_line_end = find_crlf(head).unwrap_or(head.len());
        if first_line_end > MAX_REQUEST_LINE {
            return self.fatal_431("request line exceeds the size limit");
        }

        // An unparsable request line → 400, resync at the blank line we
        // already found.
        let parsed = parse_request_line(&head[..first_line_end]);
        let (method, target, http11) = match parsed {
            Ok(t) => t,
            Err(msg) => {
                self.pos += head_end;
                return ParseStep::Error {
                    response: HttpResponse::error(400, msg),
                    fatal: false,
                };
            }
        };

        // Scan headers for framing facts only.
        let mut keep_alive = http11;
        let mut content_length: usize = 0;
        let mut chunked = false;
        let header_bytes = &head[first_line_end..];
        for line in split_crlf(header_bytes) {
            if line.is_empty() {
                continue;
            }
            let Some(colon) = line.iter().position(|&b| b == b':') else {
                self.pos += head_end;
                return ParseStep::Error {
                    response: HttpResponse::error(400, "malformed header line"),
                    fatal: false,
                };
            };
            let name = trim_ascii(&line[..colon]);
            let value = trim_ascii(&line[colon + 1..]);
            if eq_ignore_case(name, b"connection") {
                if eq_ignore_case(value, b"close") {
                    keep_alive = false;
                } else if eq_ignore_case(value, b"keep-alive") {
                    keep_alive = true;
                }
            } else if eq_ignore_case(name, b"content-length") {
                match std::str::from_utf8(value).ok().and_then(|v| v.parse().ok()) {
                    Some(n) => content_length = n,
                    None => {
                        self.pos += head_end;
                        return ParseStep::Error {
                            response: HttpResponse::error(400, "malformed Content-Length"),
                            fatal: false,
                        };
                    }
                }
            } else if eq_ignore_case(name, b"transfer-encoding") {
                chunked = true;
            }
        }
        if chunked {
            // No resync point without implementing chunked framing.
            self.pos += head_end;
            self.state = State::Dead;
            return ParseStep::Error {
                response: HttpResponse::error(501, "chunked request bodies are not supported"),
                fatal: true,
            };
        }
        if content_length > MAX_BODY_BYTES {
            self.pos += head_end;
            self.state = State::Dead;
            return ParseStep::Error {
                response: HttpResponse::error(400, "request body exceeds the size limit"),
                fatal: true,
            };
        }

        self.pos += head_end;
        let req = RawRequest {
            method,
            target,
            keep_alive,
        };
        if content_length > 0 {
            self.state = State::Body {
                remaining: content_length,
                pending: Some(req),
            };
            return self.next_request();
        }
        ParseStep::Request(req)
    }

    fn fatal_431(&mut self, msg: &str) -> ParseStep {
        self.state = State::Dead;
        ParseStep::Error {
            response: HttpResponse::error(431, msg),
            fatal: true,
        }
    }
}

/// Index just past the `\r\n\r\n` (or lenient `\n\n`) ending a head block.
fn find_blank_line(data: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < data.len() {
        if data[i] == b'\n' {
            // \n\n or \r\n\r\n (i.e. \n followed by optional \r then \n).
            let mut j = i + 1;
            if j < data.len() && data[j] == b'\r' {
                j += 1;
            }
            if j < data.len() && data[j] == b'\n' {
                return Some(j + 1);
            }
        }
        i += 1;
    }
    None
}

/// Index of the first `\n` (exclusive of it), i.e. length of the first line
/// including a trailing `\r` if present.
fn find_crlf(data: &[u8]) -> Option<usize> {
    data.iter().position(|&b| b == b'\n')
}

fn split_crlf(data: &[u8]) -> impl Iterator<Item = &[u8]> {
    data.split(|&b| b == b'\n')
        .map(|line| line.strip_suffix(b"\r").unwrap_or(line))
}

fn trim_ascii(mut s: &[u8]) -> &[u8] {
    while let Some((b' ' | b'\t', rest)) = s.split_first() {
        s = rest;
    }
    while let Some((b' ' | b'\t', rest)) = s.split_last() {
        s = rest;
    }
    s
}

fn eq_ignore_case(a: &[u8], b: &[u8]) -> bool {
    a.eq_ignore_ascii_case(b)
}

/// Parse `METHOD TARGET HTTP/1.x`; returns `(method, target, is_http11)`.
fn parse_request_line(line: &[u8]) -> Result<(String, String, bool), &'static str> {
    let line = trim_ascii(line.strip_suffix(b"\r").unwrap_or(line));
    if line.is_empty() {
        return Err("empty request line");
    }
    let text = std::str::from_utf8(line).map_err(|_| "request line is not valid UTF-8")?;
    let mut parts = text.split_whitespace();
    let method = parts.next().ok_or("empty request line")?;
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err("malformed method");
    }
    let target = parts.next().ok_or("missing request target")?;
    if !target.starts_with('/') {
        return Err("request target must be origin-form");
    }
    let version = parts.next().ok_or("missing HTTP version")?;
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err("unsupported HTTP version"),
    };
    if parts.next().is_some() {
        return Err("trailing junk after HTTP version");
    }
    Ok((method.to_owned(), target.to_owned(), http11))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(p: &mut Http1Parser) -> RawRequest {
        match p.next_request() {
            ParseStep::Request(r) => r,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn whole_request_in_one_feed() {
        let mut p = Http1Parser::new();
        p.feed(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
        let r = req(&mut p);
        assert_eq!(r.method, "GET");
        assert_eq!(r.target, "/health");
        assert!(r.keep_alive);
        assert_eq!(p.next_request(), ParseStep::Incomplete);
    }

    #[test]
    fn headers_split_across_reads() {
        let mut p = Http1Parser::new();
        for chunk in [
            "POST /assi".as_bytes(),
            b"gn?worker=3 HT",
            b"TP/1.1\r\nHo",
            b"st: test\r\nConne",
            b"ction: keep-alive\r\n",
        ] {
            p.feed(chunk);
            assert_eq!(p.next_request(), ParseStep::Incomplete);
        }
        p.feed(b"\r\n");
        let r = req(&mut p);
        assert_eq!(r.method, "POST");
        assert_eq!(r.target, "/assign?worker=3");
        assert!(r.keep_alive);
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut p = Http1Parser::new();
        p.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.0\r\n\r\n");
        assert_eq!(req(&mut p).target, "/a");
        assert_eq!(req(&mut p).target, "/b");
        let c = req(&mut p);
        assert_eq!(c.target, "/c");
        assert!(!c.keep_alive, "HTTP/1.0 defaults to close");
        assert_eq!(p.next_request(), ParseStep::Incomplete);
    }

    #[test]
    fn connection_close_is_honoured() {
        let mut p = Http1Parser::new();
        p.feed(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req(&mut p).keep_alive);
        let mut p = Http1Parser::new();
        p.feed(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(req(&mut p).keep_alive);
    }

    #[test]
    fn oversized_request_line_is_a_fatal_431() {
        let mut p = Http1Parser::new();
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_REQUEST_LINE));
        p.feed(long.as_bytes());
        match p.next_request() {
            ParseStep::Error { response, fatal } => {
                assert_eq!(response.status, 431);
                assert!(fatal);
            }
            other => panic!("expected 431, got {other:?}"),
        }
        // Dead: further bytes are ignored.
        p.feed(b"GET /ok HTTP/1.1\r\n\r\n");
        assert_eq!(p.next_request(), ParseStep::Incomplete);
    }

    #[test]
    fn oversized_line_detected_before_any_newline_arrives() {
        let mut p = Http1Parser::new();
        p.feed("G".repeat(MAX_REQUEST_LINE + 1).as_bytes());
        match p.next_request() {
            ParseStep::Error { response, fatal } => {
                assert_eq!(response.status, 431);
                assert!(fatal);
            }
            other => panic!("expected 431, got {other:?}"),
        }
    }

    #[test]
    fn malformed_request_is_a_400_and_the_connection_survives() {
        let mut p = Http1Parser::new();
        p.feed(b"this is not http\r\n\r\nGET /next HTTP/1.1\r\n\r\n");
        match p.next_request() {
            ParseStep::Error { response, fatal } => {
                assert_eq!(response.status, 400);
                assert!(!fatal, "a parseable-boundary 400 must not kill the conn");
            }
            other => panic!("expected 400, got {other:?}"),
        }
        // The parser resynchronized at the blank line.
        assert_eq!(req(&mut p).target, "/next");
    }

    #[test]
    fn leading_empty_lines_are_skipped_regardless_of_fragmentation() {
        // One packet.
        let mut p = Http1Parser::new();
        p.feed(b"\r\n\r\nGET /after HTTP/1.1\r\n\r\n");
        assert_eq!(req(&mut p).target, "/after");
        // Same bytes, hostile fragmentation.
        let mut p = Http1Parser::new();
        for chunk in [&b"\r"[..], b"\n", b"\r", b"\nGET /after HTTP/1.1\r\n\r\n"] {
            p.feed(chunk);
        }
        assert_eq!(req(&mut p).target, "/after");
    }

    #[test]
    fn malformed_line_reported_before_the_head_completes() {
        let mut p = Http1Parser::new();
        p.feed(b"garbage line\r\n"); // no blank line in sight yet
        match p.next_request() {
            ParseStep::Error { response, fatal } => {
                assert_eq!(response.status, 400);
                assert!(!fatal);
            }
            other => panic!("expected 400, got {other:?}"),
        }
        // The rest of the bad head trickles in, then a good request.
        p.feed(b"X-Junk: 1\r\n\r\nGET /ok HTTP/1.1\r\n\r\n");
        assert_eq!(req(&mut p).target, "/ok");
    }

    #[test]
    fn malformed_header_line_is_a_400() {
        let mut p = Http1Parser::new();
        p.feed(b"GET / HTTP/1.1\r\nno colon here\r\n\r\nGET /ok HTTP/1.1\r\n\r\n");
        match p.next_request() {
            ParseStep::Error { response, fatal } => {
                assert_eq!(response.status, 400);
                assert!(!fatal);
            }
            other => panic!("expected 400, got {other:?}"),
        }
        assert_eq!(req(&mut p).target, "/ok");
    }

    #[test]
    fn content_length_bodies_are_consumed() {
        let mut p = Http1Parser::new();
        p.feed(b"POST /register?keywords=a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel");
        assert_eq!(
            p.next_request(),
            ParseStep::Incomplete,
            "body still incomplete"
        );
        p.feed(b"loGET /next HTTP/1.1\r\n\r\n");
        assert_eq!(req(&mut p).target, "/register?keywords=a");
        assert_eq!(req(&mut p).target, "/next");
    }

    #[test]
    fn chunked_bodies_are_refused() {
        let mut p = Http1Parser::new();
        p.feed(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        match p.next_request() {
            ParseStep::Error { response, fatal } => {
                assert_eq!(response.status, 501);
                assert!(fatal);
            }
            other => panic!("expected 501, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_version_is_a_400() {
        let mut p = Http1Parser::new();
        p.feed(b"GET / HTTP/2.0\r\n\r\n");
        assert!(matches!(
            p.next_request(),
            ParseStep::Error { response, .. } if response.status == 400
        ));
    }

    #[test]
    fn buffer_compaction_keeps_memory_bounded() {
        let mut p = Http1Parser::new();
        for i in 0..2000 {
            p.feed(format!("GET /r{i} HTTP/1.1\r\n\r\n").as_bytes());
            let r = req(&mut p);
            assert_eq!(r.target, format!("/r{i}"));
        }
        assert!(
            p.buf.len() < 64 * 1024,
            "buffer grew to {} bytes across a keep-alive session",
            p.buf.len()
        );
    }

    #[test]
    fn response_serialization_framing() {
        let r = HttpResponse::json(200, "{\"ok\":true}".into());
        let bytes = r.serialize(true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n\r\n{\"ok\":true}"));

        let over = HttpResponse::overloaded(2);
        let text = String::from_utf8(over.serialize(true)).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 "));
        assert!(text.contains("Retry-After: 2\r\n"));

        let closed = HttpResponse::json(200, "x".into()).serialize(false);
        assert!(String::from_utf8(closed)
            .unwrap()
            .contains("Connection: close"));
    }
}
