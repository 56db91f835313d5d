//! Blocking client for the JSON-lines protocol.

use crate::protocol::{
    decode_response, encode_request, Frame, FrameReader, ProtoError, Request, Response,
};
use revel_core::engine::CacheStats;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Sends [`Client::request_raw_until_terminal`] makes before it hands a
/// still-retryable reply back to the caller.
const MAX_TERMINAL_ATTEMPTS: u32 = 200;

/// Pause before re-sending when a retryable reply carries no hint.
const DEFAULT_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// A connected client (one TCP stream, requests answered in order).
pub struct Client {
    writer: TcpStream,
    frames: FrameReader<TcpStream>,
    next_id: u64,
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server closed the connection.
    Closed,
    /// An undecodable or mismatched response frame.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Closed => f.write_str("server closed the connection"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Protocol(e.message)
    }
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7411`).
    ///
    /// # Errors
    /// Propagates connect errors.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { writer, frames: FrameReader::new(stream), next_id: 1 })
    }

    /// Sets the socket read timeout (a hang backstop — both directions of
    /// the connection share the underlying socket). `None` blocks forever.
    ///
    /// # Errors
    /// Propagates `set_read_timeout` I/O errors.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> Result<(), ClientError> {
        self.writer.set_read_timeout(dur)?;
        Ok(())
    }

    /// Sends one request and blocks for its response. The response `id`
    /// must echo the request's.
    ///
    /// # Errors
    /// Transport failures, a closed connection, or a protocol violation.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.writer.write_all(encode_request(id, req).as_bytes())?;
        match self.frames.next_frame()? {
            None => Err(ClientError::Closed),
            Some(Frame::Oversized(n)) => {
                Err(ClientError::Protocol(format!("oversized response frame ({n}+ bytes)")))
            }
            Some(Frame::Line(line)) => {
                let (rid, resp) = decode_response(&line)?;
                if rid != id {
                    return Err(ClientError::Protocol(format!(
                        "response id {rid} does not echo request id {id}"
                    )));
                }
                Ok(resp)
            }
        }
    }

    /// The engine-cache counters of a `stats` request — what every harness
    /// brackets a window of traffic with.
    ///
    /// # Errors
    /// As [`request`](Client::request); any other answer is a protocol
    /// violation.
    pub fn engine_stats(&mut self) -> Result<CacheStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats { engine, .. } => Ok(engine),
            other => Err(ClientError::Protocol(format!("stats answered {other:?}"))),
        }
    }

    /// Pipelining half 1: send one request without waiting for its reply,
    /// returning the frame id. The server answers a connection's requests
    /// strictly in order, so interleave [`recv`](Client::recv) calls FIFO.
    ///
    /// # Errors
    /// Transport failures.
    pub fn send(&mut self, req: &Request) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.writer.write_all(encode_request(id, req).as_bytes())?;
        Ok(id)
    }

    /// Pipelining half 2: block for the next response frame, `(id,
    /// response)`. A read timeout set via
    /// [`set_read_timeout`](Client::set_read_timeout) surfaces as
    /// [`ClientError::Io`] with `WouldBlock`/`TimedOut`; a partial frame
    /// survives in the buffer, so calling again resumes cleanly.
    ///
    /// # Errors
    /// Transport failures, a closed connection, or a protocol violation.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        match self.frames.next_frame()? {
            None => Err(ClientError::Closed),
            Some(Frame::Oversized(n)) => {
                Err(ClientError::Protocol(format!("oversized response frame ({n}+ bytes)")))
            }
            Some(Frame::Line(line)) => Ok(decode_response(&line)?),
        }
    }

    /// Sends a raw pre-encoded frame (replay mode) and decodes the reply.
    ///
    /// # Errors
    /// Transport failures, a closed connection, or a protocol violation.
    pub fn request_raw(&mut self, frame: &str) -> Result<(u64, Response), ClientError> {
        self.writer.write_all(frame.as_bytes())?;
        if !frame.ends_with('\n') {
            self.writer.write_all(b"\n")?;
        }
        match self.frames.next_frame()? {
            None => Err(ClientError::Closed),
            Some(Frame::Oversized(n)) => {
                Err(ClientError::Protocol(format!("oversized response frame ({n}+ bytes)")))
            }
            Some(Frame::Line(line)) => Ok(decode_response(&line)?),
        }
    }

    /// [`request_raw`](Client::request_raw), repeated until the answer is
    /// terminal: a retryable reply (`overloaded`, `injected_fault`,
    /// `shutting_down`) is re-sent after the server's `retry_after_ms`
    /// hint (10 ms without one). After 200 sends the last reply is
    /// returned as it is, so the caller sees what the server kept saying.
    /// The blocking counterpart of the scenario lanes' retry state
    /// machine, for tests that replay a frame file and compare answers.
    ///
    /// # Errors
    /// Transport failures, a closed connection, or a protocol violation —
    /// none of which is retried.
    pub fn request_raw_until_terminal(
        &mut self,
        frame: &str,
    ) -> Result<(u64, Response), ClientError> {
        for _ in 1..MAX_TERMINAL_ATTEMPTS {
            let (id, resp) = self.request_raw(frame)?;
            if !resp.is_retryable() {
                return Ok((id, resp));
            }
            std::thread::sleep(
                resp.retry_after_ms().map_or(DEFAULT_RETRY_PAUSE, Duration::from_millis),
            );
        }
        self.request_raw(frame)
    }
}
