//! A minimal blocking HTTP/1.1 client side — request bytes out, response
//! parsing in — shared by the integration tests and the load generator.

use std::io::{self, BufRead};

/// A parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body bytes (sized by `Content-Length`).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server intends to keep the connection open.
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }

    /// The body as (lossy) text.
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Serialize a body-less request.
pub fn request_bytes(method: &str, target: &str, keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive {
        ""
    } else {
        "Connection: close\r\n"
    };
    format!("{method} {target} HTTP/1.1\r\nHost: hta\r\n{connection}\r\n").into_bytes()
}

/// Read one response off a buffered stream. Blocks until the status line,
/// headers, and body have arrived. The body is sized by `Content-Length`
/// when present; a `Connection: close` response without one is read to EOF
/// (the pre-1.1 framing some servers still use for unsized bodies).
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<ClientResponse> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a status line",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed status line: {line:?}"),
            )
        })?;

    let mut headers = Vec::new();
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside the header block",
            ));
        }
        let header = header.trim_end_matches(['\r', '\n']);
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            headers.push((name.trim().to_owned(), value.trim().to_owned()));
        }
    }

    let length: Option<usize> = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse().ok());
    let connection_close = headers
        .iter()
        .any(|(n, v)| n.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("close"));
    let body = match length {
        Some(length) => {
            let mut body = vec![0u8; length];
            reader.read_exact(&mut body)?;
            body
        }
        None if connection_close => {
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            body
        }
        None => Vec::new(),
    };
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_a_serialized_response() {
        let wire = crate::http1::HttpResponse::json(200, "{\"ok\":true}".into()).serialize(true);
        let mut reader = BufReader::new(&wire[..]);
        let resp = read_response(&mut reader).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_text(), "{\"ok\":true}");
        assert!(resp.keep_alive());
        assert_eq!(resp.header("content-type"), Some("application/json"));
    }

    #[test]
    fn close_and_retry_after_are_visible() {
        let wire = crate::http1::HttpResponse::overloaded(3).serialize(false);
        let mut reader = BufReader::new(&wire[..]);
        let resp = read_response(&mut reader).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("3"));
        assert!(!resp.keep_alive());
    }

    #[test]
    fn location_header_round_trips() {
        let mut resp = crate::http1::HttpResponse::json(307, "{}".into());
        resp.location = Some("http://127.0.0.1:8080/assign?worker=0".into());
        let wire = resp.serialize(true);
        let mut reader = BufReader::new(&wire[..]);
        let parsed = read_response(&mut reader).unwrap();
        assert_eq!(parsed.status, 307);
        assert_eq!(
            parsed.header("location"),
            Some("http://127.0.0.1:8080/assign?worker=0")
        );
    }

    #[test]
    fn close_without_content_length_reads_to_eof() {
        let wire = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nraw bytes \x00\xff to eof";
        let mut reader = BufReader::new(&wire[..]);
        let resp = read_response(&mut reader).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"raw bytes \x00\xff to eof");
        assert!(!resp.keep_alive());
    }

    #[test]
    fn keep_alive_without_content_length_has_empty_body() {
        let wire = b"HTTP/1.1 204 No Content\r\n\r\n";
        let mut reader = BufReader::new(&wire[..]);
        let resp = read_response(&mut reader).unwrap();
        assert_eq!(resp.status, 204);
        assert!(resp.body.is_empty());
    }

    #[test]
    fn request_bytes_framing() {
        let keep = String::from_utf8(request_bytes("GET", "/x", true)).unwrap();
        assert_eq!(keep, "GET /x HTTP/1.1\r\nHost: hta\r\n\r\n");
        let close = String::from_utf8(request_bytes("POST", "/y", false)).unwrap();
        assert!(close.contains("Connection: close\r\n"));
    }
}
