//! Time-to-first-byte gate for the HTTP front door.
//!
//! Sequential keep-alive queries — each with a query text the server has
//! not seen, so no result-cache hit hides the query's lifecycle — run
//! against a plain `lusail serve` store server and against a
//! `serve --federate` service. The p99 time from sending a request to
//! reading the first response byte must stay within [`TTFB_P99_BOUND`]:
//! a query that does microseconds of work must not wait out a fixed
//! polling window before it answers. On Linux the process thread count is
//! also sampled throughout, and must never rise above its level before
//! the first request: the server answers without spawning a thread per
//! request.

use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::{Federation, NetworkProfile, SimulatedEndpoint, SparqlEndpoint};
use lusail_rdf::{Graph, Term};
use lusail_server::federate::{FederateConfig, FederationService};
use lusail_server::{QueryBackend, ServerConfig, ServerHandle, SparqlServer};
use lusail_store::Store;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Bound on p99 time-to-first-byte over loopback.
const TTFB_P99_BOUND: Duration = Duration::from_millis(20);

/// Sequential queries per front door. With 100 samples the nearest-rank
/// p99 tolerates one scheduler hiccup on a loaded host.
const QUERIES: usize = 100;

/// The thread-count samples are process-wide, so the two cases must not
/// overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn graph() -> Graph {
    let mut g = Graph::new();
    for i in 0..20 {
        g.add(
            Term::iri(format!("http://x/s{i}")),
            Term::iri("http://x/name"),
            Term::literal(format!("name-{i}")),
        );
    }
    g
}

/// The `i`-th query: a distinct text every time, never a cache hit.
fn query(i: usize) -> String {
    format!(
        "SELECT ?s ?n WHERE {{ ?s <http://x/name> ?n }} LIMIT {}",
        i + 1
    )
}

/// Threads in this process right now (Linux only).
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(|dir| dir.count())
}

/// Samples the process thread count every millisecond until
/// [`finish`](ThreadSampler::finish)ed and remembers the peak.
struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicUsize>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ThreadSampler {
    fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicUsize::new(0));
        let thread = {
            let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(n) = thread_count() {
                        peak.fetch_max(n, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        ThreadSampler {
            stop,
            peak,
            thread: Some(thread),
        }
    }

    fn finish(mut self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("sampler thread");
        }
        self.peak.load(Ordering::Relaxed)
    }
}

/// Read one HTTP response (Content-Length or chunked) off a keep-alive
/// connection; returns its status line.
fn read_response(reader: &mut BufReader<TcpStream>) -> String {
    let mut status = String::new();
    reader.read_line(&mut status).expect("status line");
    let mut content_length = None;
    let mut chunked = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').expect("header");
        match name.to_ascii_lowercase().as_str() {
            "content-length" => content_length = Some(value.trim().parse().unwrap()),
            "transfer-encoding" => chunked = value.trim().eq_ignore_ascii_case("chunked"),
            _ => {}
        }
    }
    if chunked {
        loop {
            let mut size = String::new();
            reader.read_line(&mut size).expect("chunk size");
            let size = usize::from_str_radix(size.trim(), 16).expect("hex chunk size");
            let mut body = vec![0u8; size + 2];
            reader.read_exact(&mut body).expect("chunk");
            if size == 0 {
                break;
            }
        }
    } else {
        let mut body = vec![0u8; content_length.expect("framed response")];
        reader.read_exact(&mut body).expect("body");
    }
    status.trim_end().to_string()
}

/// Run [`QUERIES`] sequential keep-alive queries against `server`;
/// returns every time-to-first-byte and the peak thread count seen while
/// they ran, against the count before the first request.
fn measure(server: &ServerHandle) -> (Vec<Duration>, Option<(usize, usize)>) {
    let sock = TcpStream::connect(server.local_addr()).expect("connect");
    sock.set_nodelay(true).ok();
    sock.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let mut writer = sock.try_clone().expect("clone");
    let mut reader = BufReader::new(sock);
    let baseline = thread_count();
    let sampler = ThreadSampler::start();
    let mut ttfb = Vec::with_capacity(QUERIES);
    for i in 0..QUERIES {
        let body = query(i);
        let request = format!(
            "POST /sparql HTTP/1.1\r\nHost: h\r\nContent-Type: application/sparql-query\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
            body.len(),
            body
        );
        let sent = Instant::now();
        writer.write_all(request.as_bytes()).expect("send");
        reader.fill_buf().expect("first byte");
        ttfb.push(sent.elapsed());
        let status = read_response(&mut reader);
        assert!(status.contains("200"), "query {i}: {status}");
    }
    // The sampler itself is one thread above the baseline.
    let peak = sampler.finish().saturating_sub(1);
    (ttfb, baseline.map(|b| (b, peak)))
}

fn assert_fast_and_threadless(what: &str, server: &ServerHandle) {
    let (mut ttfb, threads) = measure(server);
    ttfb.sort();
    let p99 = ttfb[(ttfb.len() * 99).div_ceil(100) - 1];
    assert!(
        p99 <= TTFB_P99_BOUND,
        "{what}: p99 TTFB {p99:?} over {QUERIES} queries exceeds {TTFB_P99_BOUND:?} \
         (p50 {:?}, max {:?})",
        ttfb[ttfb.len() / 2],
        ttfb[ttfb.len() - 1]
    );
    if let Some((baseline, peak)) = threads {
        assert!(
            peak <= baseline,
            "{what}: thread count rose from {baseline} to {peak} while answering"
        );
    }
}

#[test]
fn store_server_first_byte_is_not_stalled() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let server = SparqlServer::bind(
        "127.0.0.1:0",
        Store::from_graph(&graph()),
        ServerConfig::default(),
    )
    .expect("bind")
    .spawn();
    assert_fast_and_threadless("lusail serve", &server);
    server.shutdown();
}

#[test]
fn federate_front_door_first_byte_is_not_stalled() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let endpoint: Arc<dyn SparqlEndpoint> = Arc::new(SimulatedEndpoint::new(
        "names",
        Store::from_graph(&graph()),
        NetworkProfile::instant(),
    ));
    let engine = LusailEngine::new(Federation::new(vec![endpoint]), LusailConfig::default());
    let service = Arc::new(FederationService::new(engine, FederateConfig::default()));
    let server = SparqlServer::with_backend(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn QueryBackend>,
        ServerConfig::default(),
    )
    .expect("bind")
    .spawn();
    assert_fast_and_threadless("serve --federate", &server);
    assert_eq!(
        service.results().stats().hits,
        0,
        "every query text must be new to the result cache"
    );
    server.shutdown();
}
