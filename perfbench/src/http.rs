//! A keep-alive HTTP/1.1 client that honours `Connection: close`.
//!
//! The server closes a connection at `--max-requests` and whenever it
//! has a backlog, and says so in the reply head. A client that ignores
//! the header writes its next request into a dead socket and stalls on
//! the error, so [`Session`] drops the connection as soon as the reply
//! says `close`, reconnects lazily, and resends (every request the
//! benchmark sends is idempotent) when a connection dies mid-request.
//! Each reconnect after the first connection is counted.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket read/write timeout: longer than any query the benchmark sends
/// (the server's own request timeout is set above the slowest one).
const IO_TIMEOUT: Duration = Duration::from_secs(150);

/// Sends per request before the failure is reported.
const ATTEMPTS: u32 = 3;

/// One parsed reply.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// The server announced it closes the connection after this reply.
    pub close: bool,
}

struct Conn {
    stream: TcpStream,
    carry: Vec<u8>,
}

/// A client session against one server: at most one open connection.
pub struct Session {
    addr: SocketAddr,
    conn: Option<Conn>,
    connects: u64,
}

impl Session {
    /// A session against `addr`; nothing is connected until the first
    /// request.
    pub fn new(addr: SocketAddr) -> Session {
        Session {
            addr,
            conn: None,
            connects: 0,
        }
    }

    /// Connections opened after the first one: closes the server asked
    /// for plus connections that died under a request.
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// Closes the open connection, if any, so that the server worker
    /// serving it is released now rather than at its idle timeout.
    pub fn close(&mut self) {
        self.conn = None;
    }

    /// Sends one request and reads its reply, reconnecting and
    /// resending when the connection is closed under it.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> Result<Reply, String> {
        let mut last = String::new();
        for _ in 0..ATTEMPTS {
            if self.conn.is_none() {
                let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)
                    .map_err(|e| format!("connecting to {}: {e}", self.addr))?;
                stream
                    .set_read_timeout(Some(IO_TIMEOUT))
                    .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
                    .and_then(|()| stream.set_nodelay(true))
                    .map_err(|e| format!("configuring socket: {e}"))?;
                self.connects += 1;
                self.conn = Some(Conn {
                    stream,
                    carry: Vec::new(),
                });
            }
            let conn = self.conn.as_mut().expect("connected above");
            match exchange(conn, &self.addr, method, path, body) {
                Ok(reply) => {
                    if reply.close {
                        self.conn = None;
                    }
                    return Ok(reply);
                }
                Err(e) => {
                    self.conn = None;
                    last = e;
                }
            }
        }
        Err(last)
    }
}

fn exchange(
    conn: &mut Conn,
    addr: &SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<Reply, String> {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    );
    conn.stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("sending: {e}"))?;
    read_reply(&mut conn.stream, &mut conn.carry)
}

fn read_reply(stream: &mut impl Read, carry: &mut Vec<u8>) -> Result<Reply, String> {
    let head_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        fill(stream, carry)?;
    };
    let (status, content_length, close) = parse_head(&carry[..head_end])?;
    let total = head_end + 4 + content_length;
    while carry.len() < total {
        fill(stream, carry)?;
    }
    let body = String::from_utf8(carry[head_end + 4..total].to_vec())
        .map_err(|_| "reply body is not UTF-8".to_string())?;
    carry.drain(..total);
    Ok(Reply {
        status,
        body,
        close,
    })
}

fn fill(stream: &mut impl Read, carry: &mut Vec<u8>) -> Result<(), String> {
    let mut chunk = [0u8; 16 * 1024];
    match stream.read(&mut chunk) {
        Ok(0) => Err("connection closed by server".to_string()),
        Ok(n) => {
            carry.extend_from_slice(&chunk[..n]);
            Ok(())
        }
        Err(e) => Err(format!("reading: {e}")),
    }
}

/// Status, `Content-Length` and whether the server closes, from a reply
/// head (without the blank line).
fn parse_head(head: &[u8]) -> Result<(u16, usize, bool), String> {
    let text = std::str::from_utf8(head).map_err(|_| "reply head is not UTF-8".to_string())?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let mut length = 0;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            length = value
                .trim()
                .parse()
                .map_err(|_| "bad Content-Length".to_string())?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.trim().eq_ignore_ascii_case("close");
        }
    }
    Ok((status, length, close))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_carry_the_close_flag_and_leave_pipelined_bytes() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nabcHTTP/1.1 503 X\r\ncontent-length: 0\r\n\r\n";
        let mut src = &wire[..];
        let mut carry = Vec::new();
        let first = read_reply(&mut src, &mut carry).unwrap();
        assert_eq!(
            (first.status, first.body.as_str(), first.close),
            (200, "abc", true)
        );
        let second = read_reply(&mut src, &mut carry).unwrap();
        assert_eq!(
            (second.status, second.body.as_str(), second.close),
            (503, "", false)
        );
        assert!(read_reply(&mut src, &mut carry).is_err(), "EOF is an error");
    }
}
