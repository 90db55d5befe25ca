//! End-to-end tests for the ops HTTP server: real sockets, real
//! routes, a scripted `OpsSource` standing in for the serving tier.

use obsv::{ObsvConfig, ObsvServer, OpsSource, SloConfig, SloSpec, SloTracker};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use telemetry::Registry;

/// Minimal HTTP GET: returns `(status, body)`.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect ops server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Scripted tier stand-in.
struct FakeTier {
    ready: AtomicBool,
}

impl OpsSource for FakeTier {
    fn ready(&self) -> Result<(), String> {
        if self.ready.load(Ordering::Relaxed) {
            Ok(())
        } else {
            Err("shards warming".to_string())
        }
    }

    fn health_detail(&self) -> String {
        "\"shards\":2".to_string()
    }

    fn trace_index(&self) -> Vec<(u64, u64)> {
        vec![(7, 700), (9, 900)]
    }

    fn request_trace_json(&self, request_id: u64) -> Option<String> {
        (request_id == 7 || request_id == 9)
            .then(|| format!("{{\"traceEvents\":[],\"request\":{request_id}}}"))
    }
}

fn server_with(registry: Arc<Registry>, source: Option<Arc<dyn OpsSource>>) -> ObsvServer {
    let mut config = ObsvConfig::new("127.0.0.1:0", registry);
    config.source = source;
    ObsvServer::start(config).expect("start ops server")
}

#[test]
fn metrics_and_stats_serve_the_registry() {
    let registry = Registry::new_arc();
    registry.describe("obsvtest.hits", "Hits recorded by the server test.");
    registry.counter("obsvtest.hits").add(41);
    registry
        .histogram("obsvtest.latency")
        .record_duration(Duration::from_millis(3));
    let server = server_with(Arc::clone(&registry), None);
    let addr = server.local_addr();

    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("obsvtest_hits 41"), "{body}");
    assert!(
        body.contains("# HELP obsvtest_hits Hits recorded by the server test."),
        "{body}"
    );
    assert!(body.contains("obsvtest_latency_count"), "{body}");

    let (status, body) = get(addr, "/stats.json");
    assert_eq!(status, 200);
    let parsed: serde_json::Value = serde_json::from_str(&body).expect("stats.json parses");
    let hits = parsed
        .get("counters")
        .and_then(|c| c.get("obsvtest.hits"))
        .and_then(|v| v.as_u64());
    assert_eq!(hits, Some(41));
}

#[test]
fn health_and_readiness_follow_the_source() {
    let tier = Arc::new(FakeTier {
        ready: AtomicBool::new(false),
    });
    let server = server_with(
        Registry::new_arc(),
        Some(tier.clone() as Arc<dyn OpsSource>),
    );
    let addr = server.local_addr();

    // Liveness is unconditional; readiness follows the tier.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"shards\":2"), "{body}");

    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 503);
    assert!(body.contains("shards warming"), "{body}");

    tier.ready.store(true, Ordering::Relaxed);
    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ready\":true"), "{body}");
}

#[test]
fn readyz_defaults_to_ready_without_a_source() {
    let server = server_with(Registry::new_arc(), None);
    let (status, _) = get(server.local_addr(), "/readyz");
    assert_eq!(status, 200);
}

#[test]
fn traces_index_and_lookup() {
    let tier = Arc::new(FakeTier {
        ready: AtomicBool::new(true),
    });
    let server = server_with(Registry::new_arc(), Some(tier as Arc<dyn OpsSource>));
    let addr = server.local_addr();

    let (status, body) = get(addr, "/traces");
    assert_eq!(status, 200);
    let parsed: serde_json::Value = serde_json::from_str(&body).expect("trace index parses");
    let traces = parsed.get("traces").expect("traces array");
    let entry = |i: usize, key: &str| {
        traces
            .get_index(i)
            .and_then(|e| e.get(key))
            .and_then(|v| v.as_u64())
    };
    assert_eq!(entry(0, "request_id"), Some(7));
    assert_eq!(entry(1, "trace_id"), Some(900));

    let (status, body) = get(addr, "/traces/7");
    assert_eq!(status, 200);
    assert!(body.contains("\"request\":7"), "{body}");

    // `latest` resolves to the newest index entry.
    let (status, body) = get(addr, "/traces/latest");
    assert_eq!(status, 200);
    assert!(body.contains("\"request\":9"), "{body}");

    let (status, _) = get(addr, "/traces/12345");
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/traces/not-a-number");
    assert_eq!(status, 404);
}

#[test]
fn slo_json_serves_the_tracker() {
    let registry = Registry::new_arc();
    let tracker = SloTracker::new(
        Arc::clone(&registry),
        SloConfig {
            specs: vec![SloSpec::new("tenant-a", 50.0, 0.99)],
            ..SloConfig::default()
        },
    );
    registry
        .histogram_labeled("tier.request", &[("tenant", "tenant-a")])
        .record_duration(Duration::from_millis(1));
    tracker.tick();

    let mut config = ObsvConfig::new("127.0.0.1:0", Arc::clone(&registry));
    config.slo = Some(Arc::clone(&tracker));
    let server = ObsvServer::start(config).unwrap();
    let addr = server.local_addr();

    let (status, body) = get(addr, "/slo.json");
    assert_eq!(status, 200);
    let parsed: serde_json::Value = serde_json::from_str(&body).expect("slo.json parses");
    let tenant = parsed
        .get("tenants")
        .and_then(|t| t.get_index(0))
        .expect("one tenant row");
    assert_eq!(
        tenant.get("tenant").and_then(|v| v.as_str()),
        Some("tenant-a")
    );
    assert_eq!(tenant.get("total").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(
        tenant.get("budget_remaining").and_then(|v| v.as_f64()),
        Some(1.0)
    );

    // The derived gauges surface on /metrics too.
    let (_, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("slo_budget_remaining"), "{metrics}");
    assert!(metrics.contains("slo_burn_rate"), "{metrics}");
}

#[test]
fn slo_route_404s_when_unconfigured() {
    let server = server_with(Registry::new_arc(), None);
    let (status, _) = get(server.local_addr(), "/slo.json");
    assert_eq!(status, 404);
}

#[test]
fn profile_route_samples_and_stays_concurrent() {
    let server = server_with(Registry::new_arc(), None);
    let addr = server.local_addr();

    // Hold a live stage on a worker so the profile has something to
    // fold; the session inside profile_for enables publishing, so open
    // the guard while a profile is known to be running.
    let profiler = std::thread::spawn(move || get(addr, "/profile?seconds=0.4&hz=200"));
    std::thread::sleep(Duration::from_millis(50));
    let _session = telemetry::StageSession::start();
    const PROFILED: telemetry::Stage = telemetry::Stage::scratch("obsvtest.profiled");
    let _stage = telemetry::stage(PROFILED);

    // While the profile runs, other routes answer on their own
    // threads.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);

    let (status, body) = profiler.join().unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with("# samples"), "{body}");
    assert!(body.contains("obsvtest.profiled"), "{body}");
}

#[test]
fn unknown_routes_and_bad_methods_are_rejected() {
    let server = server_with(Registry::new_arc(), None);
    let addr = server.local_addr();
    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);

    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
}

#[test]
fn drop_shuts_the_listener_down() {
    let server = server_with(Registry::new_arc(), None);
    let addr = server.local_addr();
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    drop(server);
    // The port must stop answering (connect may still succeed briefly
    // on some stacks, but a request must not).
    let answered = TcpStream::connect(addr).is_ok_and(|mut s| {
        let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
        write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").is_ok() && {
            let mut buf = [0u8; 16];
            matches!(s.read(&mut buf), Ok(n) if n > 0)
        }
    });
    assert!(!answered, "server still answering after drop");
}
