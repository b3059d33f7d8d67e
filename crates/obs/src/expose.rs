//! Metrics exposition: a Prometheus-text-format snapshot of a registry,
//! and a minimal one-thread HTTP listener serving it (the `--expose=PORT`
//! flag; the groundwork for `jcc-serve`).
//!
//! The format targets Prometheus text exposition 0.0.4: `# TYPE` comments,
//! one sample per line, histograms as cumulative `_bucket{le="…"}` series
//! plus `_sum`/`_count`. Everything is integers (the registry is `u64`
//! all the way down), so rendering is exact and deterministic.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::metrics::{global, Registry};

/// Map a registry metric name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`), prefixed with the `jcc_` namespace:
/// `petri.reach.states` → `jcc_petri_reach_states`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("jcc_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Inclusive upper bound of log2 bucket `i` (the Prometheus `le` label):
/// bucket `i` covers `[2^(i-1), 2^i)`, so its `le` is `2^i - 1`.
fn bucket_le(i: u32) -> u64 {
    if i >= 64 {
        u64::MAX
    } else if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

/// Render every counter, gauge and histogram of `reg` in Prometheus text
/// exposition format. Name-sorted per kind, deterministic for a given
/// registry state.
pub fn render_prometheus(reg: &Registry) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, value) in reg.counter_values() {
        let n = sanitize_metric_name(&name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in reg.gauge_values() {
        let n = sanitize_metric_name(&name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, snap) in reg.histogram_values() {
        let n = sanitize_metric_name(&name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        for &(bucket, count) in &snap.buckets {
            cumulative += count;
            let _ = writeln!(
                out,
                "{n}_bucket{{le=\"{}\"}} {cumulative}",
                bucket_le(bucket)
            );
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", snap.count);
        let _ = writeln!(out, "{n}_sum {}", snap.sum);
        let _ = writeln!(out, "{n}_count {}", snap.count);
    }
    out
}

/// A minimal metrics endpoint: a `TcpListener` accept loop that answers
/// every connection with one `HTTP/1.0 200` response carrying
/// [`render_prometheus`] of the global registry. Each scrape is served on
/// the accept thread itself, under a 500 ms timeout both ways, so the server
/// runs exactly one thread however many clients connect; a silent client
/// delays the queue by at most one timeout. No routing, no keep-alive —
/// exactly enough for `curl localhost:PORT/metrics` and a Prometheus
/// scrape.
#[derive(Debug)]
pub struct ExposeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// How long one scrape may block on reading its request or writing its
/// response.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

fn serve_conn(mut stream: TcpStream) {
    // Drain (a prefix of) the request so well-behaved clients aren't cut
    // off mid-send; the response is the same whatever they asked for.
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut buf = [0u8; 1024];
    let _ = stream.read(&mut buf);
    let body = render_prometheus(global());
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(response.as_bytes());
}

impl ExposeServer {
    /// Bind `127.0.0.1:port` (0 picks an ephemeral port — see
    /// [`local_addr`](ExposeServer::local_addr)) and start the accept
    /// loop.
    pub fn start(port: u16) -> std::io::Result<ExposeServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("jcc-obs-expose".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        serve_conn(stream);
                    }
                }
            })?;
        Ok(ExposeServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept call with one last connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for ExposeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A `curl`-shaped client for tests and benches: fetch the metrics page
/// from an [`ExposeServer`] and return the response body.
pub fn fetch_metrics(addr: SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((headers, body)) if headers.starts_with("HTTP/1.0 200") => Ok(body.to_string()),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed metrics response",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sanitized_into_the_prometheus_grammar() {
        assert_eq!(
            sanitize_metric_name("petri.reach.states"),
            "jcc_petri_reach_states"
        );
        assert_eq!(
            sanitize_metric_name("span.vm-explore"),
            "jcc_span_vm_explore"
        );
    }

    #[test]
    fn render_covers_every_metric_kind() {
        let reg = Registry::new();
        reg.counter("demo.states").add(128);
        reg.gauge("demo.frontier").set(7);
        reg.histogram("demo.latency_ns").record(5);
        reg.histogram("demo.latency_ns").record(900);
        let text = render_prometheus(&reg);
        assert!(text.contains("# TYPE jcc_demo_states counter"), "{text}");
        assert!(text.contains("jcc_demo_states 128"), "{text}");
        assert!(text.contains("# TYPE jcc_demo_frontier gauge"), "{text}");
        assert!(text.contains("jcc_demo_frontier 7"), "{text}");
        assert!(
            text.contains("# TYPE jcc_demo_latency_ns histogram"),
            "{text}"
        );
        // 5 lands in bucket 3 ([4,8), le=7); 900 in bucket 10 ([512,1024),
        // le=1023). Buckets are cumulative.
        assert!(text.contains("jcc_demo_latency_ns_bucket{le=\"7\"} 1"), "{text}");
        assert!(
            text.contains("jcc_demo_latency_ns_bucket{le=\"1023\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("jcc_demo_latency_ns_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("jcc_demo_latency_ns_sum 905"), "{text}");
        assert!(text.contains("jcc_demo_latency_ns_count 2"), "{text}");
    }

    #[test]
    fn render_is_deterministic() {
        let reg = Registry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").inc();
        reg.histogram("h").record(1);
        assert_eq!(render_prometheus(&reg), render_prometheus(&reg));
        let text = render_prometheus(&reg);
        let a = text.find("jcc_a_first").unwrap();
        let z = text.find("jcc_z_last").unwrap();
        assert!(a < z, "name-sorted output");
    }

    #[test]
    fn server_answers_a_curl_style_fetch() {
        // The global registry is shared across the test binary; only
        // assert on metrics this test owns.
        global().counter("expose.test.hits").add(3);
        let server = ExposeServer::start(0).expect("bind ephemeral port");
        let addr = server.local_addr();
        let body = fetch_metrics(addr).expect("fetch metrics");
        assert!(body.contains("jcc_expose_test_hits 3"), "{body}");
        // Two fetches: the accept loop keeps serving.
        let again = fetch_metrics(addr).expect("second fetch");
        assert!(again.contains("jcc_expose_test_hits"), "{again}");
        server.stop();
    }

    /// A flood of clients that never send is served one at a time on the
    /// accept thread: no per-connection thread exists while they hang, and
    /// the endpoint still answers once they go away.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_silent_connection_flood_spawns_no_threads() {
        let server = ExposeServer::start(0).expect("bind ephemeral port");
        let addr = server.local_addr();
        let silent: Vec<TcpStream> = (0..16)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        // Thread names are truncated to 15 bytes in `comm`.
        let per_connection = std::fs::read_dir("/proc/self/task")
            .expect("list threads")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("jcc-obs-expose-"))
            .count();
        assert_eq!(per_connection, 0, "one thread per connection");
        drop(silent);
        fetch_metrics(addr).expect("fetch after the flood");
        server.stop();
    }
}
