//! Multi-threaded TCP server fronting a [`ServeEngine`].
//!
//! One accept thread polls a non-blocking listener; each admitted
//! connection gets its own session thread running the state machine
//! documented in `DESIGN.md` §4h:
//!
//! ```text
//! preamble → hello → welcome → (request → response|error)* → goodbye/close
//! ```
//!
//! The server never re-implements engine semantics: after admission and
//! rate limiting every request is one [`ServeEngine::serve_as`] call,
//! so a response over the wire is the same [`Response`] value the
//! in-process path produces (the loopback differential suite holds the
//! two byte-identical).
//!
//! Defense lines, outermost first:
//!
//! 1. **Admission** — at most `max_connections` concurrent sessions; a
//!    connection beyond the cap is answered with a typed
//!    [`ErrorKind::RateLimited`] error frame and closed.
//! 2. **Read timeout** — every session read is bounded; a stalled or
//!    slow-writing client gets a typed [`ErrorKind::Protocol`] error
//!    frame and the session ends. No client can hold a thread forever.
//! 3. **Frame cap** — oversized declared lengths are refused from the
//!    header ([`wire::MAX_FRAME`]) before any allocation.
//! 4. **Rate limiting** — one token bucket per role; an empty bucket
//!    refuses the request (typed `RateLimited` frame) but keeps the
//!    session open.
//!
//! Shutdown drains: [`NetServer::shutdown`] stops the accept loop, then
//! half-closes every session's *read* side — an in-flight request still
//! writes its response — and waits for the sessions to finish.

use crate::limiter::TokenBucket;
use crate::wire::{self, Frame, WireError};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xac_serve::{ErrorKind, Request, Response, Role, ServeEngine};

/// Tunables for [`NetServer::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks a free port (read it back from
    /// [`NetServer::local_addr`]).
    pub listen: String,
    /// Concurrent-session cap (admission control).
    pub max_connections: usize,
    /// Per-read timeout; a client silent mid-frame for longer is cut
    /// off with a typed protocol error.
    pub read_timeout: Duration,
    /// Requests per second allowed per role (bucket capacity equals the
    /// rate, so a full burst of one second is admitted). `None`
    /// disables rate limiting.
    pub rate_limit: Option<u32>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            rate_limit: None,
        }
    }
}

/// State shared between the accept loop and the session threads.
struct Shared {
    engine: Arc<ServeEngine>,
    config: ServerConfig,
    shutdown: AtomicBool,
    next_session: AtomicU64,
    sessions: Arc<Sessions>,
    /// Per-role token buckets (present iff rate limiting is on).
    buckets: Mutex<HashMap<&'static str, TokenBucket>>,
}

/// Live sessions: the admission count, plus a socket clone per session
/// for the drain's read-side half-close.
#[derive(Default)]
struct Sessions {
    active: AtomicUsize,
    streams: Mutex<HashMap<u64, TcpStream>>,
}

/// One admitted session's registration in [`Sessions`]. Dropping it
/// releases the admission slot and the socket clone: when the session
/// returns, when its thread unwinds from a panic, and when the thread
/// never spawns (the spawn drops the closure that owns the slot).
struct SessionSlot {
    sessions: Arc<Sessions>,
    id: u64,
}

impl SessionSlot {
    fn register(sessions: &Arc<Sessions>, id: u64, stream: &TcpStream) -> SessionSlot {
        sessions.active.fetch_add(1, Ordering::AcqRel);
        if let Ok(clone) = stream.try_clone() {
            sessions.streams.lock().unwrap_or_else(|e| e.into_inner()).insert(id, clone);
        }
        SessionSlot { sessions: Arc::clone(sessions), id }
    }
}

impl Drop for SessionSlot {
    fn drop(&mut self) {
        let sessions = &self.sessions;
        sessions.streams.lock().unwrap_or_else(|e| e.into_inner()).remove(&self.id);
        sessions.active.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Shared {
    fn counter(name: &str) {
        xac_obs::counter(name).inc();
    }

    /// Admit one request for `role`, refilling from the monotonic
    /// clock. `true` when no limit is configured.
    fn admit_request(&self, role: Role) -> bool {
        let Some(rate) = self.config.rate_limit else { return true };
        let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        buckets
            .entry(role.name())
            .or_insert_with(|| TokenBucket::new(rate, rate))
            .try_take()
    }
}

/// A running TCP server. Dropping it shuts it down (gracefully, same as
/// [`NetServer::shutdown`]).
pub struct NetServer {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl NetServer {
    /// Bind `config.listen` and start accepting. The engine is shared —
    /// in-process callers may keep using it concurrently.
    pub fn start(engine: Arc<ServeEngine>, config: ServerConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            config,
            shutdown: AtomicBool::new(false),
            next_session: AtomicU64::new(0),
            sessions: Arc::default(),
            buckets: Mutex::new(HashMap::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("xac-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(NetServer { shared, accept_thread: Some(accept_thread), local_addr })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live session count.
    pub fn active_sessions(&self) -> usize {
        self.shared.sessions.active.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop accepting, half-close every session's
    /// read side (in-flight responses still go out), wait for the
    /// sessions to drain (bounded by the read timeout plus slack).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        {
            let sessions =
                self.shared.sessions.streams.lock().unwrap_or_else(|e| e.into_inner());
            for stream in sessions.values() {
                // Read side only: a session blocked in read wakes with
                // EOF; one mid-serve still writes its response.
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        let deadline =
            Instant::now() + self.shared.config.read_timeout + Duration::from_secs(1);
        while self.shared.sessions.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown_inner();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                Shared::counter("xac_net_connections_total");
                if shared.sessions.active.load(Ordering::Acquire) >= shared.config.max_connections
                {
                    Shared::counter("xac_net_rejected_total{reason=\"admission\"}");
                    refuse(stream, "connection limit reached, try again later");
                    continue;
                }
                let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
                let slot = SessionSlot::register(&shared.sessions, id, &stream);
                let session_shared = Arc::clone(&shared);
                // The thread owns the slot, so a normal return, a panic
                // and a failed spawn all release it.
                let _ = std::thread::Builder::new()
                    .name(format!("xac-net-session-{id}"))
                    .spawn(move || {
                        let _slot = slot;
                        session(stream, &session_shared);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Refuse a connection pre-handshake with a typed error frame. Best
/// effort — the client may already be gone.
fn refuse(mut stream: TcpStream, message: &str) {
    let frame = Frame::Error { kind: ErrorKind::RateLimited, message: message.into() };
    let _ = stream.write_all(&frame.to_bytes());
    linger_close(stream);
}

/// Lingering close: half-close the write side, then briefly drain
/// whatever the peer already sent. Closing a socket with unread bytes
/// in its receive buffer makes TCP reset the connection, which can
/// destroy an error frame in flight before the peer reads it.
fn linger_close(mut stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let deadline = Instant::now() + Duration::from_millis(250);
    let mut sink = [0u8; 4096];
    while Instant::now() < deadline {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Send a typed error frame, best effort (the peer may have vanished).
fn send_error(stream: &mut TcpStream, kind: ErrorKind, message: String) {
    let _ = wire::write_frame(stream, &Frame::Error { kind, message });
}

/// Flight-record one wire request: phase breakdown into the always-on
/// recorder, plus the per-verb latency histogram (exemplared with the
/// request's trace id) that `Request::Scrape` exposes and `xmlac top`
/// renders. `response` is `None` for rate-limit refusals, which never
/// reach the engine.
#[allow(clippy::too_many_arguments)]
fn record_flight(
    shared: &Shared,
    req: &Request,
    trace_id: u128,
    decode_dur: Duration,
    queue_dur: Duration,
    execute_dur: Option<Duration>,
    served: Instant,
    response: Option<&Response>,
) {
    let outcome = match response {
        None => "error:rate_limited".to_string(),
        Some(Response::Decision { granted: true, .. }) => "granted".to_string(),
        Some(Response::Decision { granted: false, .. }) => "denied".to_string(),
        Some(Response::Update { applied: true, .. }) => "applied".to_string(),
        Some(Response::Update { applied: false, .. }) => "refused".to_string(),
        Some(Response::Error { kind, .. }) => format!("error:{kind}"),
        Some(_) => "ok".to_string(),
    };
    let total_us = (decode_dur + served.elapsed()).as_micros() as u64;
    xac_obs::flight_recorder().record(xac_obs::FlightRecord {
        trace_id,
        verb: req.verb().to_string(),
        backend: shared.engine.backend_name().to_string(),
        outcome,
        epoch: shared.engine.epoch(),
        decode_us: decode_dur.as_micros() as u64,
        queue_us: queue_dur.as_micros() as u64,
        execute_us: execute_dur.unwrap_or_default().as_micros() as u64,
        total_us,
        seq: 0,
    });
    let key = xac_obs::sample_key("xac_net_request_us", &[("verb", req.verb())]);
    xac_obs::histogram(&key).observe_with_exemplar(total_us, trace_id);
}

/// One session: handshake, then the request/response loop, then a
/// lingering close so the last frame written always reaches the peer.
fn session(stream: TcpStream, shared: &Shared) {
    let mut stream = stream;
    run_session(&mut stream, shared);
    linger_close(stream);
}

/// The session state machine. Every exit path either answered with a
/// typed error frame or saw the peer leave first — the session never
/// panics and never blocks unboundedly (all reads carry the configured
/// timeout).
fn run_session(stream: &mut TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_nodelay(true);

    // Preamble: six raw bytes before any frame.
    if let Err(e) = wire::read_preamble(stream) {
        Shared::counter("xac_net_rejected_total{reason=\"preamble\"}");
        send_error(stream, ErrorKind::Protocol, e.to_string());
        return;
    }

    // Handshake: exactly one hello, answered with welcome.
    let role = match wire::read_frame(stream) {
        Ok(Frame::Hello { role }) => role,
        Ok(other) => {
            Shared::counter("xac_net_rejected_total{reason=\"handshake\"}");
            send_error(
                stream,
                ErrorKind::Protocol,
                WireError::Unexpected { wanted: "hello", got: other.kind_name() }.to_string(),
            );
            return;
        }
        Err(e) => {
            // Covers unknown roles (decoded as Malformed with the shared
            // `unknown role` message), torn frames, and garbage.
            Shared::counter("xac_net_rejected_total{reason=\"handshake\"}");
            send_error(stream, ErrorKind::Protocol, e.to_string());
            return;
        }
    };
    let welcome = Frame::Welcome {
        backend: shared.engine.backend_name().to_string(),
        epoch: shared.engine.epoch(),
    };
    if wire::write_frame(stream, &welcome).is_err() {
        return;
    }
    Shared::counter(&format!("xac_net_sessions_total{{role=\"{}\"}}", role.name()));

    loop {
        match wire::read_frame_timed(stream) {
            Ok((Frame::Request(req, trace), decode_dur)) => {
                // Re-enter the client's trace context (if the frame
                // carried one) so every span and record below shares
                // its trace id. The decode span is backfilled — the
                // context only exists once decode has finished.
                let _ctx = trace.map(|t| xac_obs::trace::enter(t.to_context()));
                xac_obs::trace::record_span("net.server_decode", decode_dur);
                let trace_id = trace.map_or(0, |t| t.trace_id);
                let served = Instant::now();
                let queue_dur;
                {
                    let _span = xac_obs::span("net.queue_wait");
                    let queue_start = Instant::now();
                    let admitted = shared.admit_request(role);
                    queue_dur = queue_start.elapsed();
                    if !admitted {
                        Shared::counter("xac_net_rejected_total{reason=\"rate_limit\"}");
                        record_flight(
                            shared, &req, trace_id, decode_dur, queue_dur, None, served, None,
                        );
                        send_error(
                            stream,
                            ErrorKind::RateLimited,
                            format!(
                                "role `{role}` exceeded {} requests/sec",
                                shared.config.rate_limit.unwrap_or(0)
                            ),
                        );
                        continue;
                    }
                }
                Shared::counter(&format!(
                    "xac_net_requests_total{{verb=\"{}\"}}",
                    req.verb()
                ));
                let execute_start = Instant::now();
                let response = shared.engine.serve_as(role, &req);
                let execute_dur = execute_start.elapsed();
                if matches!(response, Response::Error { .. }) {
                    Shared::counter("xac_net_request_errors_total");
                }
                let sent = wire::write_frame(stream, &Frame::Response(response.clone()));
                record_flight(
                    shared,
                    &req,
                    trace_id,
                    decode_dur,
                    queue_dur,
                    Some(execute_dur),
                    served,
                    Some(&response),
                );
                if sent.is_err() {
                    return;
                }
            }
            Ok((Frame::Goodbye, _)) => return,
            Ok((other, _)) => {
                send_error(
                    stream,
                    ErrorKind::Protocol,
                    WireError::Unexpected { wanted: "request", got: other.kind_name() }
                        .to_string(),
                );
                return;
            }
            // Clean close between frames: the drain path (read side
            // half-closed by shutdown) and impatient clients alike.
            Err(WireError::Closed) => return,
            Err(e) if e.is_timeout() => {
                if shared.shutdown.load(Ordering::Acquire) {
                    send_error(
                        stream,
                        ErrorKind::Shutdown,
                        "server is draining for shutdown".into(),
                    );
                } else {
                    Shared::counter("xac_net_rejected_total{reason=\"timeout\"}");
                    send_error(
                        stream,
                        ErrorKind::Protocol,
                        format!(
                            "read timed out after {:?} mid-session",
                            shared.config.read_timeout
                        ),
                    );
                }
                return;
            }
            Err(e @ (WireError::Oversized { .. }
            | WireError::UnknownTag(_)
            | WireError::Malformed(_))) => {
                Shared::counter("xac_net_rejected_total{reason=\"protocol\"}");
                send_error(stream, ErrorKind::Protocol, e.to_string());
                return;
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_slot_is_released_when_its_session_unwinds() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let sessions = Arc::new(Sessions::default());
        let slot = SessionSlot::register(&sessions, 7, &stream);
        assert_eq!(sessions.active.load(Ordering::Acquire), 1);
        assert!(sessions.streams.lock().unwrap().contains_key(&7));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _slot = slot;
            panic!("session panicked");
        }));
        assert!(unwound.is_err());
        assert_eq!(sessions.active.load(Ordering::Acquire), 0, "admission slot released");
        assert!(sessions.streams.lock().unwrap().is_empty(), "session entry removed");
    }
}
