//! The memcached text-protocol client side of `memcached-tcp`: request
//! encoding, an incremental reply parser that copes with replies split
//! anywhere across reads, and a pipelined TCP connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// What a request expects back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// One status line (`STORED`).
    Line,
    /// `VALUE` blocks terminated by `END` (get, scan).
    Values,
}

/// One `VALUE <key> <flags> <bytes>` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value {
    pub key: Vec<u8>,
    pub flags: u32,
    pub data: Vec<u8>,
}

/// A complete reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A status line other than an error (`STORED`, `DELETED`, ...).
    Status(Vec<u8>),
    /// The `VALUE` blocks before `END`; empty for a miss.
    Values(Vec<Value>),
    /// `ERROR`, `CLIENT_ERROR ...` or `SERVER_ERROR ...`.
    Error(String),
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

fn is_error(line: &[u8]) -> bool {
    line == b"ERROR" || line.starts_with(b"CLIENT_ERROR") || line.starts_with(b"SERVER_ERROR")
}

/// Parses one reply from the front of `buf`. `Ok(None)` means the reply
/// is not complete yet; otherwise returns it with the bytes it used.
pub fn parse_reply(buf: &[u8], expect: Expect) -> io::Result<Option<(Reply, usize)>> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut pos = 0usize;
    let mut values = Vec::new();
    loop {
        let Some(eol) = find_crlf(&buf[pos..]) else {
            return Ok(None);
        };
        let line = &buf[pos..pos + eol];
        let next = pos + eol + 2;
        if is_error(line) {
            return Ok(Some((
                Reply::Error(String::from_utf8_lossy(line).into_owned()),
                next,
            )));
        }
        match expect {
            Expect::Line => return Ok(Some((Reply::Status(line.to_vec()), next))),
            Expect::Values if line == b"END" => return Ok(Some((Reply::Values(values), next))),
            Expect::Values => {
                let text = std::str::from_utf8(line).map_err(|_| bad("non-UTF-8 header"))?;
                let mut parts = text.split_ascii_whitespace();
                let (Some("VALUE"), Some(key), Some(flags), Some(bytes), None) = (
                    parts.next(),
                    parts.next(),
                    parts.next(),
                    parts.next(),
                    parts.next(),
                ) else {
                    return Err(bad("malformed VALUE header"));
                };
                let flags: u32 = flags.parse().map_err(|_| bad("bad VALUE flags"))?;
                let bytes: usize = bytes.parse().map_err(|_| bad("bad VALUE length"))?;
                if bytes > 1 << 20 {
                    return Err(bad("VALUE length beyond 1 MiB"));
                }
                if buf.len() < next + bytes + 2 {
                    return Ok(None);
                }
                if &buf[next + bytes..next + bytes + 2] != b"\r\n" {
                    return Err(bad("VALUE data not terminated by CRLF"));
                }
                values.push(Value {
                    key: key.as_bytes().to_vec(),
                    flags,
                    data: buf[next..next + bytes].to_vec(),
                });
                pos = next + bytes + 2;
            }
        }
    }
}

/// Appends `get <key>`.
pub fn encode_get(out: &mut Vec<u8>, key: &[u8]) {
    out.extend_from_slice(b"get ");
    out.extend_from_slice(key);
    out.extend_from_slice(b"\r\n");
}

/// Appends `set <key> <flags> 0 <len>` and the data block.
pub fn encode_set(out: &mut Vec<u8>, key: &[u8], flags: u32, data: &[u8]) {
    out.extend_from_slice(b"set ");
    out.extend_from_slice(key);
    out.extend_from_slice(format!(" {flags} 0 {}\r\n", data.len()).as_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// Appends `scan <start> <count>`.
pub fn encode_scan(out: &mut Vec<u8>, start: &[u8], count: usize) {
    out.extend_from_slice(b"scan ");
    out.extend_from_slice(start);
    out.extend_from_slice(format!(" {count}\r\n").as_bytes());
}

/// A pipelined connection: write a whole window, then read its replies in
/// order.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 << 10),
            start: 0,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads the next reply and the instant it was complete.
    pub fn recv(&mut self, expect: Expect) -> io::Result<(Reply, Instant)> {
        loop {
            if let Some((reply, used)) = parse_reply(&self.buf[self.start..], expect)? {
                self.start += used;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                }
                return Ok((reply, Instant::now()));
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let len = self.buf.len();
            self.buf.resize(len + (16 << 10), 0);
            let n = self.stream.read(&mut self.buf[len..])?;
            self.buf.truncate(len + n);
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<u8> {
        let mut s = Vec::new();
        s.extend_from_slice(b"VALUE key:1 7 5\r\nhello\r\nEND\r\n");
        s.extend_from_slice(b"END\r\n");
        s.extend_from_slice(b"STORED\r\n");
        s.extend_from_slice(b"VALUE a 0 2\r\nEN\r\nVALUE b 1 3\r\n\r\nx\r\nEND\r\n");
        s.extend_from_slice(b"SERVER_ERROR out of memory\r\n");
        s
    }

    const EXPECTS: [Expect; 5] = [
        Expect::Values,
        Expect::Values,
        Expect::Line,
        Expect::Values,
        Expect::Values,
    ];

    fn whole() -> Vec<Reply> {
        let s = stream();
        let mut pos = 0;
        let mut out = Vec::new();
        for e in EXPECTS {
            let (r, used) = parse_reply(&s[pos..], e).unwrap().unwrap();
            pos += used;
            out.push(r);
        }
        assert_eq!(pos, s.len());
        out
    }

    #[test]
    fn parses_each_reply_kind() {
        let r = whole();
        assert_eq!(
            r[0],
            Reply::Values(vec![Value {
                key: b"key:1".to_vec(),
                flags: 7,
                data: b"hello".to_vec()
            }])
        );
        assert_eq!(r[1], Reply::Values(vec![]));
        assert_eq!(r[2], Reply::Status(b"STORED".to_vec()));
        // Data that looks like `END` or CRLF is framed by its length.
        let Reply::Values(v) = &r[3] else { panic!() };
        assert_eq!(v[0].data, b"EN");
        assert_eq!(v[1].data, b"\r\nx");
        assert!(matches!(&r[4], Reply::Error(e) if e.starts_with("SERVER_ERROR")));
    }

    /// Feeds the stream in every two-way split and in one-byte reads: the
    /// `VALUE`/`END` boundaries straddle reads and the replies still
    /// come out identical.
    #[test]
    fn replies_straddling_reads() {
        let s = stream();
        let expect = whole();
        let mut chunkings: Vec<Vec<usize>> = (1..s.len()).map(|cut| vec![cut, s.len()]).collect();
        chunkings.push((1..=s.len()).collect());
        for cuts in chunkings {
            let mut buf = Vec::new();
            let mut fed = 0;
            let mut got = Vec::new();
            let mut i = 0;
            for &cut in &cuts {
                buf.extend_from_slice(&s[fed..cut]);
                fed = cut;
                while i < EXPECTS.len() {
                    match parse_reply(&buf, EXPECTS[i]).unwrap() {
                        Some((r, used)) => {
                            buf.drain(..used);
                            got.push(r);
                            i += 1;
                        }
                        None => break,
                    }
                }
            }
            assert_eq!(got, expect, "cuts {cuts:?}");
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn rejects_malformed_headers() {
        assert!(parse_reply(b"VALUE k x 1\r\na\r\nEND\r\n", Expect::Values).is_err());
        assert!(parse_reply(b"VALUE k 0 1\r\nab\r\nEND\r\n", Expect::Values).is_err());
        assert!(parse_reply(b"HELLO\r\n", Expect::Values).is_err());
        assert_eq!(
            parse_reply(b"VALUE k 0 1\r\na", Expect::Values).unwrap(),
            None
        );
    }
}
