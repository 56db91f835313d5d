//! The one harness: the only place a test boots, drives or tears down an
//! in-process server. [`ServerGuard`] is a standalone server on a
//! background thread; [`loopback`] is the configuration tests start it
//! with.

use crate::client::Client;
use crate::protocol::{Request, Response};
use crate::server::{FinalStats, Server, ServerConfig};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A loopback server configuration on an ephemeral port; every other
/// field keeps its default. Callers override with struct-update syntax.
pub fn loopback(workers: usize, queue_capacity: usize) -> ServerConfig {
    ServerConfig { addr: "127.0.0.1:0".to_string(), workers, queue_capacity, ..Default::default() }
}

/// A server running on a background thread. [`ServerGuard::shutdown`] is
/// the normal end; a guard dropped without it (a panicking test) still
/// stops and joins its server.
pub struct ServerGuard {
    addr: String,
    server: Arc<Server>,
    thread: Option<JoinHandle<std::io::Result<FinalStats>>>,
}

impl ServerGuard {
    /// Binds `cfg` and serves it on a background thread.
    ///
    /// # Errors
    /// Propagates bind errors.
    pub fn start(cfg: &ServerConfig) -> std::io::Result<ServerGuard> {
        let server = Arc::new(Server::bind(cfg)?);
        let addr = server.local_addr()?.to_string();
        let serving = Arc::clone(&server);
        let thread = std::thread::spawn(move || serving.serve());
        Ok(ServerGuard { addr, server, thread: Some(thread) })
    }

    /// The bound `host:port` (port 0 resolved).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Graceful end: sends a `shutdown` request, as an operator would,
    /// waits for the drain and returns the server's final counters.
    ///
    /// # Panics
    /// If the server does not answer `shutting_down`, or its thread
    /// panicked or died on a listener error: bugs in the server this
    /// guard started, not conditions a caller can handle.
    pub fn shutdown(mut self) -> FinalStats {
        let answer = Client::connect(&self.addr).and_then(|mut c| c.request(&Request::Shutdown));
        assert!(
            matches!(answer, Ok(Response::ShuttingDown)),
            "server at {} answered shutdown with {answer:?}",
            self.addr
        );
        let thread = self.thread.take().expect("a guard drains once");
        thread.join().expect("server thread panicked").expect("server died on a listener error")
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.server.request_shutdown();
            let _ = thread.join();
        }
    }
}
