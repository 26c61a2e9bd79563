//! A blocking client for the `OK <n> [epoch=<e>]` / `ERR …` line protocol.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

/// One answer: the status line split from the payload lines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// `true` for `OK`.
    pub ok: bool,
    /// The `epoch=<e>` token of a snapshot-scoped answer.
    pub epoch: Option<u64>,
    /// Payload lines joined by `\n` (the error message for `ERR`).
    pub payload: String,
    /// Bytes received, status line included.
    pub bytes: usize,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            out: Vec::new(),
        })
    }

    /// Sends one request line in a single write and reads the whole answer.
    pub fn request(&mut self, line: &str) -> std::io::Result<Response> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        let mut status = String::new();
        let mut bytes = self.reader.read_line(&mut status)?;
        let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line");
        if let Some(msg) = status.trim_end().strip_prefix("ERR ") {
            return Ok(Response {
                ok: false,
                epoch: None,
                payload: msg.to_owned(),
                bytes,
            });
        }
        let mut tokens = status
            .trim_end()
            .strip_prefix("OK ")
            .ok_or_else(bad)?
            .split_whitespace();
        let n: usize = tokens.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
        let epoch = tokens
            .next()
            .and_then(|t| t.strip_prefix("epoch="))
            .and_then(|e| e.parse().ok());
        let mut payload = String::new();
        for i in 0..n {
            if i > 0 {
                payload.push('\n');
            }
            let start = payload.len();
            bytes += self.reader.read_line(&mut payload)?;
            if payload.ends_with('\n') {
                payload.pop();
            } else if payload.len() == start {
                return Err(bad());
            }
        }
        Ok(Response {
            ok: true,
            epoch,
            payload,
            bytes,
        })
    }
}
