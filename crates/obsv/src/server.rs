//! The embedded ops HTTP server: a std-only `TcpListener` accept loop
//! serving the route table in the crate docs.
//!
//! Design constraints, in order:
//!
//! - **No dependencies.** The workspace is offline; the server is
//!   hand-rolled HTTP/1.1 over `std::net` (see [`crate::http`]).
//! - **Never wedge the serving path.** Scrapes read registry
//!   snapshots — atomic loads no recording thread ever waits on —
//!   and each connection is handled on its own short-lived thread
//!   under a socket timeout, with a hard cap on concurrent handlers
//!   (excess connections get an immediate 503 rather than a queue).
//! - **Graceful shutdown.** Dropping [`ObsvServer`] flips a flag,
//!   nudges the blocked `accept` with a self-connection, and joins the
//!   accept thread, so tests and `serve` runs exit cleanly.
//!
//! Tier-specific facts (readiness, trace lookup) come through
//! [`OpsSource`] so this crate depends only on `telemetry`; `servetier`
//! implements it for `ServeTier`.

use crate::http::{read_request, respond, HttpError, Request};
use crate::profile::profile_for;
use crate::slo::SloTracker;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::Registry;

/// What the ops server asks the serving tier. Every method has a
/// conservative default so a bare registry can be served without a
/// tier (e.g. batch sweeps that want `/metrics` only).
pub trait OpsSource: Send + Sync {
    /// `Ok` when the process should receive traffic; `Err(reason)`
    /// renders as a 503 on `/readyz`.
    fn ready(&self) -> Result<(), String> {
        Ok(())
    }

    /// Extra JSON object (without braces) merged into `/healthz`,
    /// e.g. `"shards":4,"queued":12`. Empty = nothing extra.
    fn health_detail(&self) -> String {
        String::new()
    }

    /// `(request id, trace id)` pairs of recently traced requests,
    /// oldest first.
    fn trace_index(&self) -> Vec<(u64, u64)> {
        Vec::new()
    }

    /// Chrome-trace JSON for one traced request, by request id.
    /// (Named to avoid colliding with inherent methods on the
    /// implementing type.)
    fn request_trace_json(&self, _request_id: u64) -> Option<String> {
        None
    }
}

/// Construction parameters for [`ObsvServer::start`].
pub struct ObsvConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral; read the
    /// bound port back via [`ObsvServer::local_addr`]).
    pub addr: String,
    /// Registry served on `/metrics` and `/stats.json`.
    pub registry: Arc<Registry>,
    /// Tier hook for `/readyz`, `/healthz` detail and `/traces`.
    pub source: Option<Arc<dyn OpsSource>>,
    /// SLO tracker served on `/slo.json`.
    pub slo: Option<Arc<SloTracker>>,
    /// Concurrent handler cap; further connections get 503.
    pub max_connections: usize,
    /// Upper bound on `/profile?seconds=N`.
    pub profile_max_seconds: f64,
}

impl ObsvConfig {
    pub fn new(addr: impl Into<String>, registry: Arc<Registry>) -> ObsvConfig {
        ObsvConfig {
            addr: addr.into(),
            registry,
            source: None,
            slo: None,
            max_connections: 8,
            profile_max_seconds: 30.0,
        }
    }
}

/// Shared state for handler threads.
struct Shared {
    registry: Arc<Registry>,
    source: Option<Arc<dyn OpsSource>>,
    slo: Option<Arc<SloTracker>>,
    profile_max_seconds: f64,
    started: Instant,
    active: AtomicUsize,
    shutting_down: AtomicBool,
}

/// A running ops server; shuts down when dropped.
pub struct ObsvServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl ObsvServer {
    /// Bind `config.addr` and start serving.
    pub fn start(config: ObsvConfig) -> io::Result<ObsvServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            registry: config.registry,
            source: config.source,
            slo: config.slo,
            profile_max_seconds: config.profile_max_seconds,
            started: Instant::now(),
            active: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
        });
        let max_connections = config.max_connections.max(1);
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("obsv-http".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_shared.shutting_down.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    if accept_shared.active.load(Ordering::Relaxed) >= max_connections {
                        respond(
                            &mut stream,
                            503,
                            "text/plain",
                            "too many concurrent ops connections\n",
                        );
                        continue;
                    }
                    accept_shared.active.fetch_add(1, Ordering::Relaxed);
                    let handler_shared = Arc::clone(&accept_shared);
                    let spawned = std::thread::Builder::new()
                        .name("obsv-handler".to_string())
                        .spawn(move || {
                            handle_connection(&handler_shared, &mut stream);
                            handler_shared.active.fetch_sub(1, Ordering::Relaxed);
                        });
                    if spawned.is_err() {
                        accept_shared.active.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            })?;
        Ok(ObsvServer {
            shared,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ObsvServer {
    fn drop(&mut self) {
        self.shared.shutting_down.store(true, Ordering::Relaxed);
        // Unblock the accept loop; it checks the flag before handling.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn handle_connection(shared: &Shared, stream: &mut TcpStream) {
    match read_request(stream) {
        Ok(request) => route(shared, stream, &request),
        Err(HttpError::BadRequest(reason)) => {
            respond(stream, 400, "text/plain", &format!("{reason}\n"));
        }
        Err(HttpError::MethodNotAllowed) => {
            respond(stream, 405, "text/plain", "only GET is supported\n");
        }
        Err(HttpError::Io) => {}
    }
}

fn route(shared: &Shared, stream: &mut TcpStream, request: &Request) {
    match request.path.as_str() {
        "/" => {
            let body = "obsv ops plane\n\
                 /metrics /stats.json /healthz /readyz /slo.json\n\
                 /traces /traces/latest /traces/<request-id>\n\
                 /profile?seconds=N&hz=H\n";
            respond(stream, 200, "text/plain", body);
        }
        "/metrics" => {
            let body = shared.registry.snapshot().to_prometheus();
            respond(stream, 200, "text/plain; version=0.0.4", &body);
        }
        "/stats.json" => {
            let body = shared.registry.snapshot().to_json();
            respond(stream, 200, "application/json", &body);
        }
        "/healthz" => {
            let detail = shared
                .source
                .as_ref()
                .map(|s| s.health_detail())
                .filter(|d| !d.is_empty())
                .map(|d| format!(",{d}"))
                .unwrap_or_default();
            let body = format!(
                "{{\"status\":\"ok\",\"uptime_ms\":{}{detail}}}",
                shared.started.elapsed().as_millis()
            );
            respond(stream, 200, "application/json", &body);
        }
        "/readyz" => match shared.source.as_ref().map_or(Ok(()), |s| s.ready()) {
            Ok(()) => respond(stream, 200, "application/json", "{\"ready\":true}"),
            Err(reason) => {
                let body = format!(
                    "{{\"ready\":false,\"reason\":\"{}\"}}",
                    crate::json_escape(&reason)
                );
                respond(stream, 503, "application/json", &body);
            }
        },
        "/slo.json" => match &shared.slo {
            Some(tracker) => respond(stream, 200, "application/json", &tracker.to_json()),
            None => respond(stream, 404, "text/plain", "no SLO tracker configured\n"),
        },
        "/traces" => {
            let index = shared
                .source
                .as_ref()
                .map(|s| s.trace_index())
                .unwrap_or_default();
            let mut body = String::from("{\"traces\":[");
            for (i, (request_id, trace_id)) in index.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&format!(
                    "{{\"request_id\":{request_id},\"trace_id\":{trace_id}}}"
                ));
            }
            body.push_str("]}");
            respond(stream, 200, "application/json", &body);
        }
        path if path.starts_with("/traces/") => {
            let tail = &path["/traces/".len()..];
            let request_id = if tail == "latest" {
                shared
                    .source
                    .as_ref()
                    .and_then(|s| s.trace_index().last().map(|&(rid, _)| rid))
            } else {
                tail.parse::<u64>().ok()
            };
            let trace = request_id.and_then(|rid| {
                shared
                    .source
                    .as_ref()
                    .and_then(|s| s.request_trace_json(rid))
            });
            match trace {
                Some(json) => respond(stream, 200, "application/json", &json),
                None => respond(stream, 404, "text/plain", "no such trace\n"),
            }
        }
        "/profile" => {
            let seconds = request
                .param("seconds")
                .and_then(|s| s.parse::<f64>().ok())
                .unwrap_or(1.0)
                .clamp(0.05, shared.profile_max_seconds.max(0.05));
            let hz = request
                .param("hz")
                .and_then(|s| s.parse::<u32>().ok())
                .unwrap_or(100);
            // Runs inline on this handler thread: other routes stay
            // responsive on their own threads while we sample.
            let report = profile_for(Duration::from_secs_f64(seconds), hz);
            respond(stream, 200, "text/plain", &report.to_text());
        }
        _ => respond(stream, 404, "text/plain", "unknown ops route\n"),
    }
}
