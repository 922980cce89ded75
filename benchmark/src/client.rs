//! A minimal HTTP/1.1 client for the `serve --federate` front door: one
//! POST per connection, timing the status line (time to first byte) and
//! the complete body.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Reply {
    pub status: u16,
    pub ttfb: Duration,
    pub total: Duration,
    pub body: String,
}

/// POST `query` as `application/sparql-query` and read the whole reply.
pub fn post_query(addr: SocketAddr, client_id: &str, query: &str) -> std::io::Result<Reply> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let request = format!(
        "POST /sparql HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/sparql-query\r\n\
         Accept: application/sparql-results+json\r\nX-Client-Id: {client_id}\r\n\
         Connection: close\r\nContent-Length: {}\r\n\r\n{query}",
        query.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut reader = BufReader::new(stream);

    let mut line = String::new();
    reader.read_line(&mut line)?;
    let ttfb = started.elapsed();
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;

    let (mut length, mut chunked) = (None, false);
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid("headers cut short".to_string()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            }
        }
    }

    let mut body = Vec::new();
    if chunked {
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim().split(';').next().unwrap_or(""), 16)
                .map_err(|_| invalid(format!("bad chunk size {line:?}")))?;
            if size == 0 {
                break;
            }
            let start = body.len();
            body.resize(start + size, 0);
            reader.read_exact(&mut body[start..])?;
            line.clear();
            reader.read_line(&mut line)?;
        }
    } else if let Some(n) = length {
        body.resize(n, 0);
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
    }
    let body = String::from_utf8(body).map_err(|_| invalid("body is not UTF-8".to_string()))?;
    Ok(Reply {
        status,
        ttfb,
        total: started.elapsed(),
        body,
    })
}

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}
