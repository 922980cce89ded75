//! Loopback end-to-end proof that the binary results codec is a pure
//! transport optimization: a federation negotiating the compact codec
//! returns *byte-identical* solutions to one forced onto SPARQL JSON, on
//! healthy fleets, against non-negotiating (JSON-only) endpoints, and in
//! `--partial` mode with a chaos endpoint down mid-fleet.
//!
//! The chaos case draws from the seeded PRNG discipline of the other
//! chaos suites: set `LUSAIL_CHAOS_SEED` to replay (the `codec` group in
//! `scripts/ci.sh` prints the seed on failure).

use integration::{assert_same_solutions, ground_truth};
use lusail_core::{LusailConfig, LusailEngine, ResultPolicy};
use lusail_federation::{
    results_json, FaultProfile, FaultyConfig, FaultyEndpoint, Federation, HttpConfig, HttpEndpoint,
    HttpTransport, RetryPolicy, SparqlEndpoint,
};
use lusail_rdf::Graph;
use lusail_server::{ServerConfig, ServerHandle, SparqlServer};
use lusail_sparql::solution::Relation;
use lusail_store::{eval::QueryResult, Store};
use lusail_workloads::{lubm, qfed};
use std::sync::Arc;
use std::time::Duration;

fn chaos_seed() -> u64 {
    std::env::var("LUSAIL_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Spin one loopback server per graph. `server_offers_binary = false`
/// emulates foreign endpoints that only speak SPARQL JSON.
fn servers(graphs: &[(String, Graph)], server_offers_binary: bool) -> Vec<ServerHandle> {
    graphs
        .iter()
        .map(|(name, g)| {
            SparqlServer::bind(
                "127.0.0.1:0",
                Store::from_graph(g),
                ServerConfig {
                    name: name.clone(),
                    offer_binary: server_offers_binary,
                    ..ServerConfig::default()
                },
            )
            .expect("bind ephemeral port")
            .spawn()
        })
        .collect()
}

/// A federation of HTTP clients over the handles, offering (or not) the
/// binary codec in their `Accept` headers.
fn federation(
    graphs: &[(String, Graph)],
    handles: &[ServerHandle],
    client_offers_binary: bool,
) -> Federation {
    let endpoints: Vec<Arc<dyn SparqlEndpoint>> = graphs
        .iter()
        .zip(handles)
        .map(|((name, _), h)| {
            Arc::new(
                HttpEndpoint::new(name.clone(), &h.url())
                    .expect("valid loopback URL")
                    .with_config(HttpConfig {
                        offer_binary: client_offers_binary,
                        ..HttpConfig::default()
                    }),
            ) as Arc<dyn SparqlEndpoint>
        })
        .collect();
    Federation::new(endpoints)
}

/// Canonical bytes of a relation: rows sorted, then serialized as a
/// SPARQL JSON document. Two relations are byte-identical exactly when
/// these strings are equal.
fn canonical_bytes(rel: &Relation) -> String {
    let mut sorted = rel.clone();
    sorted.rows_mut().sort();
    results_json::serialize(&QueryResult::Solutions(sorted))
}

fn shutdown_all(handles: Vec<ServerHandle>) {
    for h in handles {
        h.shutdown();
    }
}

/// Healthy fleets on LUBM and QFed: the binary-negotiated federation must
/// produce byte-identical solutions to the JSON-forced one (and to the
/// merged-graph ground truth), while actually using the binary codec on
/// the wire with zero fallbacks.
#[test]
fn binary_negotiation_is_byte_identical_on_lubm_and_qfed() {
    let workloads: Vec<(&str, Vec<(String, Graph)>, Vec<_>)> = vec![
        (
            "lubm",
            lubm::generate_all(&lubm::LubmConfig::with_universities(2)),
            lubm::queries(),
        ),
        (
            "qfed",
            qfed::generate_all(&qfed::QfedConfig::default()),
            qfed::queries(),
        ),
    ];
    for (tag, graphs, queries) in workloads {
        let handles = servers(&graphs, true);
        let bin_fed = federation(&graphs, &handles, true);
        let json_fed = federation(&graphs, &handles, false);
        let bin_engine = LusailEngine::new(bin_fed.clone(), Default::default());
        let json_engine = LusailEngine::new(json_fed.clone(), Default::default());
        for q in &queries {
            let parsed = q.parse();
            let over_bin = bin_engine.execute(&parsed).expect(q.name);
            let over_json = json_engine.execute(&parsed).expect(q.name);
            assert_eq!(
                canonical_bytes(&over_bin),
                canonical_bytes(&over_json),
                "{tag}/{}: binary-negotiated bytes differ from JSON-negotiated",
                q.name
            );
            assert_same_solutions(
                &format!("{tag}/{} vs ground truth", q.name),
                &over_bin,
                &ground_truth(&graphs, &parsed),
            );
        }
        let bin_codec = bin_fed.total_codec().expect("wire-backed federation");
        assert!(
            bin_codec.binary_responses > 0,
            "{tag}: negotiation must actually pick the binary codec"
        );
        assert_eq!(
            bin_codec.fallbacks, 0,
            "{tag}: no fallbacks against a negotiating fleet"
        );
        assert_eq!(
            bin_codec.json_responses, 0,
            "{tag}: every response should be binary"
        );
        let json_codec = json_fed.total_codec().expect("wire-backed federation");
        assert_eq!(
            json_codec.binary_responses, 0,
            "{tag}: a JSON-only client must never receive binary"
        );
        assert!(json_codec.json_responses > 0);
        shutdown_all(handles);
    }
}

/// Foreign endpoints that never heard of the codec: the client offers
/// binary, the servers answer JSON, and the federation transparently
/// falls back — identical solutions, every response counted as a
/// fallback.
#[test]
fn json_only_endpoints_fall_back_transparently() {
    let graphs = lubm::generate_all(&lubm::LubmConfig::with_universities(2));
    // Servers that only speak SPARQL JSON, clients that offer binary.
    let handles = servers(&graphs, false);
    let fed = federation(&graphs, &handles, true);
    let engine = LusailEngine::new(fed.clone(), Default::default());
    for q in lubm::queries() {
        let parsed = q.parse();
        let rel = engine.execute(&parsed).expect(q.name);
        assert_same_solutions(
            &format!("{} via fallback vs ground truth", q.name),
            &rel,
            &ground_truth(&graphs, &parsed),
        );
    }
    let codec = fed.total_codec().expect("wire-backed federation");
    assert_eq!(
        codec.binary_responses, 0,
        "a non-negotiating server must never emit binary"
    );
    assert!(codec.json_responses > 0);
    assert_eq!(
        codec.fallbacks, codec.json_responses,
        "every JSON response to a binary offer is a counted fallback"
    );
    shutdown_all(handles);
}

/// `--partial` with a chaos endpoint: one endpoint of three is hard-down
/// (wrapped in the seeded fault injector); partial mode must return the
/// same bytes whether the survivors speak binary or JSON, with the
/// degradation warned either way.
#[test]
fn partial_mode_is_codec_identical_with_chaos_endpoint() {
    let graphs = lubm::generate_all(&lubm::LubmConfig::with_universities(3));
    let handles = servers(&graphs, true);

    let build_fed = |offer: bool| -> Federation {
        let endpoints: Vec<Arc<dyn SparqlEndpoint>> = graphs
            .iter()
            .zip(&handles)
            .enumerate()
            .map(|(i, ((name, _), h))| {
                if i == graphs.len() - 1 {
                    // The last endpoint is dead for the whole test: its
                    // transport is never dialled, so it needs no config.
                    let http =
                        HttpTransport::new(name.clone(), &h.url()).expect("valid loopback URL");
                    Arc::new(
                        FaultyEndpoint::with_config(
                            http,
                            chaos_seed(),
                            FaultProfile::hard_down(),
                            FaultyConfig {
                                failure_latency: Duration::from_micros(200),
                            },
                        )
                        .with_retry(RetryPolicy {
                            retries: 1,
                            backoff: Duration::from_micros(100),
                        }),
                    ) as Arc<dyn SparqlEndpoint>
                } else {
                    Arc::new(
                        HttpEndpoint::new(name.clone(), &h.url())
                            .expect("valid loopback URL")
                            .with_config(HttpConfig {
                                offer_binary: offer,
                                ..HttpConfig::default()
                            })
                            .with_retry(RetryPolicy {
                                retries: 1,
                                ..RetryPolicy::default()
                            }),
                    )
                }
            })
            .collect();
        Federation::new(endpoints)
    };

    let config = LusailConfig {
        result_policy: ResultPolicy::Partial,
        ..LusailConfig::without_cache()
    };
    let bin_fed = build_fed(true);
    let json_fed = build_fed(false);
    let bin_engine = LusailEngine::new(bin_fed.clone(), config.clone());
    let json_engine = LusailEngine::new(json_fed, config);

    let mut degraded = 0;
    for q in lubm::queries() {
        let parsed = q.parse();
        let (bin_rel, bin_profile) = bin_engine
            .execute_profiled(&parsed)
            .unwrap_or_else(|e| panic!("{} (seed {}): {e}", q.name, chaos_seed()));
        let (json_rel, json_profile) = json_engine
            .execute_profiled(&parsed)
            .unwrap_or_else(|e| panic!("{} (seed {}): {e}", q.name, chaos_seed()));
        assert_eq!(
            canonical_bytes(&bin_rel),
            canonical_bytes(&json_rel),
            "{} (seed {}): partial results differ between codecs",
            q.name,
            chaos_seed()
        );
        assert_eq!(
            bin_profile.warnings.is_empty(),
            json_profile.warnings.is_empty(),
            "{} (seed {}): codecs disagree on degradation",
            q.name,
            chaos_seed()
        );
        if !bin_profile.warnings.is_empty() {
            degraded += 1;
        }
    }
    assert!(
        degraded > 0,
        "seed {}: at least one query must have ridden out the dead endpoint",
        chaos_seed()
    );
    let codec = bin_fed.total_codec().expect("wire-backed federation");
    assert!(
        codec.binary_responses > 0,
        "survivors must still negotiate binary under partial mode"
    );
    shutdown_all(handles);
}
