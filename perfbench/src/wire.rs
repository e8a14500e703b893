//! A minimal closed-loop TCP client for `dynslice serve`.
//!
//! It speaks the same line protocol as `dynslice::SliceClient` but keeps
//! the raw request and response lines, so the traced run can time the
//! protocol codec on the exact bytes the workload exchanged, and it times
//! each call from encoding the request to parsing the reply.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dynslice::protocol::{Request, Response, ResponseBody, PROTO_VERSION};

use crate::spans::Spans;

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    out: String,
    line: String,
}

impl Conn {
    pub fn dial(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
            out: String::new(),
            line: String::new(),
        })
    }

    pub fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends `request`, reads one reply line and parses it; the duration
    /// runs from encoding the request to the parsed reply.
    pub fn call(&mut self, request: &Request) -> io::Result<(Response, Duration)> {
        let t0 = Instant::now();
        self.out.clear();
        self.out.push_str(&request.to_json());
        self.out.push('\n');
        self.writer.write_all(self.out.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"));
        }
        let response = Response::parse(self.line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok((response, t0.elapsed()))
    }

    /// [`Self::call`], recorded as span `name` under `parent`.
    pub fn traced(
        &mut self,
        spans: &Spans,
        name: &'static str,
        parent: u64,
        request: &Request,
    ) -> io::Result<(Response, Duration)> {
        let start = Instant::now();
        let out = self.call(request)?;
        spans.record(name, parent, request.id, start, start + out.1);
        Ok(out)
    }

    /// The last request line sent (without its newline).
    pub fn last_request(&self) -> &str {
        self.out.trim_end()
    }

    /// The last reply line read (without its newline).
    pub fn last_reply(&self) -> &str {
        self.line.trim_end()
    }

    /// The versioned handshake TCP requires before any other request.
    pub fn hello(&mut self) -> io::Result<Duration> {
        let id = self.fresh_id();
        let (response, took) = self.call(&Request::hello(id, PROTO_VERSION))?;
        match response.body {
            ResponseBody::Hello { .. } => Ok(took),
            other => Err(io::Error::other(format!("hello answered {other:?}"))),
        }
    }

    pub fn shutdown(&mut self) -> io::Result<()> {
        let id = self.fresh_id();
        match self.call(&Request::shutdown(id))?.0.body {
            ResponseBody::ShutdownAck => Ok(()),
            other => Err(io::Error::other(format!("shutdown answered {other:?}"))),
        }
    }
}
