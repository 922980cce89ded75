//! Seeded cancel-chaos e2e suite for the federation service's query
//! lifecycle supervision (`LUSAIL_CHAOS_SEED` picks the fault stream;
//! default 42; replay a CI failure by exporting the printed seed).
//!
//! The three supervision paths from the acceptance bar, plus admin
//! cancellation, each proven over real loopback HTTP:
//!
//! * a client that disconnects mid-query — even while its query is stuck
//!   on a `FaultProfile::hang` endpoint — has its cancel token tripped,
//!   its pool ledger freed, its 499 counted, and outbound endpoint
//!   requests halted well before the query deadline;
//! * a `FaultProfile::hang`-wedged query (the endpoint accepts, then
//!   never answers and ignores its time budget) is reaped by the
//!   watchdog at deadline + grace, with its memory returned to the pool;
//! * `POST /queries/<id>/cancel` kills a running query from the outside
//!   and its caller receives a structured 499 error naming the reason;
//! * an injected engine panic yields a 500 JSON error on that one
//!   connection while the server keeps serving and `peak_ledgers` is
//!   fully released.

use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::{
    FaultProfile, FaultyConfig, FaultyEndpoint, Federation, NetworkProfile, SimulatedEndpoint,
    SimulatedTransport, SparqlEndpoint,
};
use lusail_rdf::{Graph, Term};
use lusail_server::federate::{FederateConfig, FederationService};
use lusail_server::{QueryBackend, ServerConfig, ServerHandle, SparqlServer};
use lusail_store::Store;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn chaos_seed() -> u64 {
    std::env::var("LUSAIL_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Three graphs whose answers require cross-endpoint joins, so a query
/// keeps issuing outbound requests long enough to be killed mid-flight.
fn shards() -> Vec<(String, Graph)> {
    let mut people = Graph::new();
    let mut advisors = Graph::new();
    let mut depts = Graph::new();
    for i in 0..5 {
        people.add(
            Term::iri(format!("http://x/s{i}")),
            Term::iri("http://x/name"),
            Term::literal(format!("name-{i}")),
        );
    }
    for i in 0..3 {
        advisors.add(
            Term::iri(format!("http://x/s{i}")),
            Term::iri("http://x/advisor"),
            Term::iri(format!("http://x/a{i}")),
        );
        depts.add(
            Term::iri(format!("http://x/a{i}")),
            Term::iri("http://x/dept"),
            Term::iri(format!("http://x/d{}", i % 2)),
        );
    }
    vec![
        ("people".to_string(), people),
        ("advisors".to_string(), advisors),
        ("depts".to_string(), depts),
    ]
}

const JOIN_QUERY: &str = "SELECT ?n ?d WHERE { ?s <http://x/name> ?n . \
     ?s <http://x/advisor> ?a . ?a <http://x/dept> ?d }";

/// Mount a service over the given endpoints and expose it on loopback.
fn front_door(
    endpoints: Vec<Arc<dyn SparqlEndpoint>>,
    config: FederateConfig,
) -> (Arc<FederationService>, ServerHandle) {
    let engine = LusailEngine::new(Federation::new(endpoints), LusailConfig::default());
    let service = Arc::new(FederationService::new(engine, config));
    let server = SparqlServer::with_backend(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn QueryBackend>,
        ServerConfig::default(),
    )
    .expect("bind front door");
    (service, server.spawn())
}

/// Raw one-shot HTTP exchange; returns (status line, full response text).
fn raw_roundtrip(addr: SocketAddr, request: &str) -> (String, String) {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.write_all(request.as_bytes()).expect("send");
    let mut text = String::new();
    sock.read_to_string(&mut text).expect("read");
    let status = text.lines().next().unwrap_or("").to_string();
    (status, text)
}

fn get_request(query: &str) -> String {
    format!(
        "GET /sparql?query={} HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        lusail_federation::http::percent_encode(query)
    )
}

fn stats(addr: SocketAddr) -> String {
    let (status, text) = raw_roundtrip(
        addr,
        "GET /stats HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
    );
    assert!(status.contains("200"), "{text}");
    text
}

/// Pull `"key":N` out of a flat JSON blob.
fn json_u64(text: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let start = text
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} in {text}"))
        + needle.len();
    text[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("numeric {key} in {text}"))
}

#[test]
fn client_disconnect_frees_the_ledger_and_halts_outbound_requests() {
    let seed = chaos_seed();
    println!("LUSAIL_CHAOS_SEED={seed}");
    // High per-request latency keeps the cross-endpoint join in flight
    // for hundreds of milliseconds; the seed jitters it so different CI
    // runs exercise different interleavings of liveness probe vs. phase.
    let latency = Duration::from_millis(90 + seed % 40);
    let sims: Vec<Arc<SimulatedEndpoint>> = shards()
        .iter()
        .map(|(name, g)| {
            Arc::new(SimulatedEndpoint::new(
                name.clone(),
                Store::from_graph(g),
                NetworkProfile {
                    latency,
                    ..NetworkProfile::instant()
                },
            ))
        })
        .collect();
    let deadline = Duration::from_secs(30);
    let (service, front) = front_door(
        sims.iter()
            .map(|s| Arc::clone(s) as Arc<dyn SparqlEndpoint>)
            .collect(),
        FederateConfig {
            query_timeout: Some(deadline),
            ..Default::default()
        },
    );

    // Send the join query, then vanish mid-execution: the full close
    // sends FIN, which the query token's liveness probe reads as EOF.
    let started = Instant::now();
    let mut sock = TcpStream::connect(front.local_addr()).expect("connect");
    sock.write_all(get_request(JOIN_QUERY).as_bytes())
        .expect("send");
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(
        service.pool().in_use(),
        1,
        "the query must hold its ledger while executing"
    );
    drop(sock);

    // The ledger must come back long before the 30s deadline would
    // return it. Generous bound: the probe peeks at the engine's next
    // cooperative check, at most every 10ms.
    let freed_within = Duration::from_secs(5);
    while service.pool().in_use() > 0 {
        assert!(
            started.elapsed() < freed_within,
            "ledger still held {:?} after the client vanished",
            started.elapsed()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        started.elapsed() < deadline / 2,
        "release must not be deadline-driven"
    );

    // Outbound traffic halts with the cancellation: the endpoint
    // counters freeze once the ledger is back.
    let before: Vec<u64> = sims.iter().map(|s| s.traffic().requests).collect();
    std::thread::sleep(Duration::from_millis(250));
    let after: Vec<u64> = sims.iter().map(|s| s.traffic().requests).collect();
    assert_eq!(
        before, after,
        "a cancelled query must stop issuing endpoint requests"
    );

    let text = stats(front.local_addr());
    assert!(json_u64(&text, "client_disconnected") >= 1, "{text}");
    assert_eq!(json_u64(&text, "inflight"), 0, "{text}");
    front.shutdown();
}

#[test]
fn client_disconnect_during_a_hang_wedged_request_is_detected() {
    let seed = chaos_seed();
    println!("LUSAIL_CHAOS_SEED={seed}");
    let (name, g) = &shards()[0];
    let wedged = Arc::new(FaultyEndpoint::with_config(
        SimulatedTransport::new(
            name.clone(),
            Store::from_graph(g),
            NetworkProfile::instant(),
        ),
        seed,
        FaultProfile::hang(),
        FaultyConfig::default(),
    ));
    // Neither the deadline nor the watchdog can free this query within
    // the test: only noticing the vanished client can.
    let deadline = Duration::from_secs(30);
    let (service, front) = front_door(
        vec![Arc::clone(&wedged) as Arc<dyn SparqlEndpoint>],
        FederateConfig {
            query_timeout: Some(deadline),
            ..Default::default()
        },
    );

    let started = Instant::now();
    let mut sock = TcpStream::connect(front.local_addr()).expect("connect");
    sock.write_all(get_request("SELECT ?s WHERE { ?s <http://x/name> ?n }").as_bytes())
        .expect("send");
    // The wedge is entered almost at once; the seed varies how long the
    // query sits in it before the client vanishes.
    std::thread::sleep(Duration::from_millis(60 + seed % 40));
    assert_eq!(
        service.pool().in_use(),
        1,
        "the wedged query holds its ledger"
    );
    drop(sock);

    while service.pool().in_use() > 0 {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "ledger still held {:?} after the client vanished",
            started.elapsed()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let before = wedged.traffic().requests;
    std::thread::sleep(Duration::from_millis(250));
    assert_eq!(
        wedged.traffic().requests,
        before,
        "a cancelled query must stop issuing endpoint requests"
    );

    // The abandoned query is accounted as a 499: an error, never served.
    let text = stats(front.local_addr());
    assert!(json_u64(&text, "client_disconnected") >= 1, "{text}");
    assert_eq!(json_u64(&text, "inflight"), 0, "{text}");
    let counts = front.stats();
    assert!(counts.errors >= 1, "{counts:?}");
    assert_eq!(counts.served, 1, "only the /stats request was served");
    front.shutdown();
}

#[test]
fn watchdog_reaps_a_hang_wedged_query_and_returns_its_memory() {
    let seed = chaos_seed();
    println!("LUSAIL_CHAOS_SEED={seed}");
    let (name, g) = &shards()[0];
    let wedged = Arc::new(FaultyEndpoint::with_config(
        SimulatedTransport::new(
            name.clone(),
            Store::from_graph(g),
            NetworkProfile::instant(),
        ),
        seed,
        FaultProfile::hang(),
        FaultyConfig::default(),
    ));
    // The wedge ignores its time budget, so the cooperative deadline
    // never fires: only the watchdog (deadline + grace) can free it.
    let (service, front) = front_door(
        vec![Arc::clone(&wedged) as Arc<dyn SparqlEndpoint>],
        FederateConfig {
            query_timeout: Some(Duration::from_millis(150)),
            watchdog_grace: Duration::from_millis(100),
            ..Default::default()
        },
    );

    let started = Instant::now();
    let (status, text) = raw_roundtrip(
        front.local_addr(),
        &get_request("SELECT ?s WHERE { ?s <http://x/name> ?n }"),
    );
    assert!(status.contains("504"), "{text}");
    assert!(text.contains("watchdog"), "{text}");
    assert!(
        started.elapsed() >= Duration::from_millis(250),
        "the reap happens at deadline + grace, not at the deadline"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the reap must actually free the wedged query"
    );

    // The memory came back with the reap.
    assert_eq!(service.pool().in_use(), 0, "ledger returned to the pool");
    assert!(service.pool().stats().peak_ledgers >= 1);
    let text = stats(front.local_addr());
    assert!(json_u64(&text, "watchdog_reaps") >= 1, "{text}");
    assert!(json_u64(&text, "watchdog_reaped") >= 1, "{text}");
    assert_eq!(json_u64(&text, "inflight"), 0, "{text}");
    front.shutdown();
}

#[test]
fn admin_cancel_returns_a_structured_error_to_the_caller() {
    let seed = chaos_seed();
    println!("LUSAIL_CHAOS_SEED={seed}");
    let (name, g) = &shards()[0];
    let wedged = Arc::new(FaultyEndpoint::with_config(
        SimulatedTransport::new(
            name.clone(),
            Store::from_graph(g),
            NetworkProfile::instant(),
        ),
        seed,
        FaultProfile::hang(),
        FaultyConfig::default(),
    ));
    // No deadline at all: without the admin nothing would ever free this
    // query — the watchdog only reaps past a deadline.
    let (_service, front) = front_door(
        vec![Arc::clone(&wedged) as Arc<dyn SparqlEndpoint>],
        FederateConfig {
            query_timeout: None,
            ..Default::default()
        },
    );
    let addr = front.local_addr();

    let victim = std::thread::spawn(move || {
        raw_roundtrip(
            addr,
            &get_request("SELECT ?s WHERE { ?s <http://x/name> ?n }"),
        )
    });
    std::thread::sleep(Duration::from_millis(150));

    // The registry names the wedged query.
    let (status, list) = raw_roundtrip(
        addr,
        "GET /queries HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
    );
    assert!(status.contains("200"), "{list}");
    assert!(list.contains("\"phase\":\"executing\""), "{list}");
    assert!(list.contains("\"cancelled\":null"), "{list}");
    let id = json_u64(&list, "id");

    // Cancel it from a second connection; first win is acknowledged.
    let cancel = format!(
        "POST /queries/{id}/cancel HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\
         Content-Length: 0\r\n\r\n"
    );
    let (status, body) = raw_roundtrip(addr, &cancel);
    assert!(status.contains("200"), "{body}");
    assert!(
        body.contains(&format!("{{\"id\":{id},\"cancelled\":true}}")),
        "{body}"
    );

    // The caller gets a structured error naming who pulled the plug.
    let (status, text) = victim.join().expect("victim thread");
    assert!(status.contains("499"), "{text}");
    assert!(text.contains("cancelled by administrator"), "{text}");

    // The registry is empty again and the cancellation is counted.
    let (_, list) = raw_roundtrip(
        addr,
        "GET /queries HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
    );
    assert!(list.contains("\"queries\":[]"), "{list}");
    let text = stats(addr);
    assert!(json_u64(&text, "admin_cancelled") >= 1, "{text}");

    // An unknown id is a 404, not a silent no-op.
    let (status, _) = raw_roundtrip(
        addr,
        "POST /queries/999999/cancel HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\
         Content-Length: 0\r\n\r\n",
    );
    assert!(status.contains("404"), "{status}");
    front.shutdown();
}

#[test]
fn engine_panic_is_contained_to_one_connection() {
    let seed = chaos_seed();
    println!("LUSAIL_CHAOS_SEED={seed}");
    let (name, g) = &shards()[0];
    let faulty = Arc::new(FaultyEndpoint::with_config(
        SimulatedTransport::new(
            name.clone(),
            Store::from_graph(g),
            NetworkProfile::instant(),
        ),
        seed,
        FaultProfile::panics_on_select(),
        FaultyConfig::default(),
    ));
    let (service, front) = front_door(
        vec![Arc::clone(&faulty) as Arc<dyn SparqlEndpoint>],
        FederateConfig::default(),
    );
    let addr = front.local_addr();
    let query = "SELECT ?s WHERE { ?s <http://x/name> ?n }";

    // The panic is contained to this one request: a 500 JSON error, not
    // a dead server.
    let (status, text) = raw_roundtrip(addr, &get_request(query));
    assert!(status.contains("500"), "{text}");
    assert!(text.contains("panicked"), "{text}");

    // Heal the endpoint: the very same server keeps serving, and the
    // panicking query leaked nothing — its ledger and quota slot are
    // back, so admission still works at full capacity.
    faulty.set_faults(FaultProfile::none());
    let (status, text) = raw_roundtrip(addr, &get_request(query));
    assert!(status.contains("200"), "{text}");
    assert_eq!(service.pool().in_use(), 0, "no leaked ledger");
    assert!(service.pool().stats().peak_ledgers <= service.pool().max_ledgers());

    let text = stats(addr);
    assert!(json_u64(&text, "panics_contained") >= 1, "{text}");
    assert_eq!(json_u64(&text, "inflight"), 0, "{text}");
    front.shutdown();
}
