//! The four workloads: how each sets up the system under test through its
//! public API, drives the query mix, and reads the layers' counters.

use crate::client;
use crate::mix::{self, CatalogQuery, Digest, Scale};
use crate::trace::{TracedEndpoint, Tracer};
use lusail_core::{ExecutionProfile, LusailConfig, LusailEngine, QueryCache};
use lusail_federation::{
    results_json, CodecSnapshot, Federation, HttpEndpoint, NetworkProfile, SimulatedEndpoint,
    SparqlEndpoint,
};
use lusail_server::federate::{FederateConfig, FederationService};
use lusail_server::{RequestCounts, ServerConfig, ServerHandle, SparqlServer};
use lusail_store::eval::QueryResult;
use lusail_store::Store;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process engine over eight loopback `lusail serve` endpoints,
    /// warm analysis caches, one closed-loop client.
    LoopbackWarm,
    /// Simulated geo-distributed endpoints, analysis caches cleared before
    /// every query, one closed-loop client.
    GeoCold,
    /// Two closed-loop HTTP clients against the `serve --federate` front
    /// door over eight loopback endpoints; 8 of every 19 queries repeat
    /// cached texts, the rest are unseen variants.
    FederateMix,
    /// Large data on instant simulated endpoints, warm caches, one client.
    LargeInstant,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LoopbackWarm,
        Workload::GeoCold,
        Workload::FederateMix,
        Workload::LargeInstant,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LoopbackWarm => "loopback-warm",
            Workload::GeoCold => "geo-cold",
            Workload::FederateMix => "federate-mix",
            Workload::LargeInstant => "large-instant",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn scale(self) -> Scale {
        match self {
            Workload::LargeInstant => Scale::LARGE,
            _ => Scale::DEFAULT,
        }
    }

    pub fn clients(self) -> usize {
        match self {
            Workload::FederateMix => 2,
            _ => 1,
        }
    }

    fn loopback(self) -> bool {
        matches!(self, Workload::LoopbackWarm | Workload::FederateMix)
    }
}

/// Seconds spent in each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: f64,
    pub load: f64,
    pub bind: f64,
    pub warm: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate + self.load + self.bind + self.warm
    }
}

/// The system under test, set up for one workload.
pub struct System {
    workload: Workload,
    servers: Vec<ServerHandle>,
    /// Engine for the in-process workloads.
    engine: Option<LusailEngine>,
    /// Front door for `federate-mix`.
    front: Option<(ServerHandle, Arc<FederationService>)>,
    /// One store per endpoint, kept for the traced run's replay split.
    pub replay_stores: Vec<Store>,
    pub times: SetupTimes,
}

impl System {
    /// Generate the data, load one store per endpoint, bind servers and
    /// build the engine with every config at its default, then run one
    /// warm pass of the mix (checked against `truth`).
    pub fn build(
        workload: Workload,
        catalog: &[CatalogQuery],
        truth: &[Digest],
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<System, String> {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let graphs = mix::generate(workload.scale());
        times.generate = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let stores: Vec<(String, Store)> = graphs
            .into_iter()
            .map(|(name, g)| (name, Store::from_graph(&g)))
            .collect();
        times.load = t.elapsed().as_secs_f64();
        let replay_stores = match tracer {
            Some(_) => stores.iter().map(|(_, s)| s.clone()).collect(),
            None => Vec::new(),
        };

        let t = Instant::now();
        let mut servers = Vec::new();
        let mut endpoints: Vec<Arc<dyn SparqlEndpoint>> = Vec::new();
        for (name, store) in stores {
            let ep: Arc<dyn SparqlEndpoint> = if workload.loopback() {
                let server = SparqlServer::bind("127.0.0.1:0", store, ServerConfig::default())
                    .map_err(|e| format!("bind endpoint {name}: {e}"))?
                    .spawn();
                let ep = HttpEndpoint::new(name.clone(), &server.url())
                    .map_err(|e| format!("endpoint {name}: {e}"))?;
                servers.push(server);
                Arc::new(ep)
            } else {
                let profile = match workload {
                    Workload::GeoCold => NetworkProfile::geo_distributed(),
                    _ => NetworkProfile::instant(),
                };
                Arc::new(SimulatedEndpoint::new(name, store, profile))
            };
            endpoints.push(match tracer {
                Some(tr) => Arc::new(TracedEndpoint::new(ep, endpoints.len(), Arc::clone(tr))),
                None => ep,
            });
        }
        let federation = Federation::new(endpoints);
        let (engine, front) = if workload == Workload::FederateMix {
            let config = FederateConfig::default();
            let engine = LusailEngine::with_cache(
                federation,
                LusailConfig::default(),
                QueryCache::with_limits(config.cache_limits()),
            );
            let service = Arc::new(FederationService::new(engine, config));
            let front = SparqlServer::with_backend(
                "127.0.0.1:0",
                Arc::clone(&service) as Arc<dyn lusail_server::QueryBackend>,
                ServerConfig::default(),
            )
            .map_err(|e| format!("bind front door: {e}"))?
            .spawn();
            (None, Some((front, service)))
        } else {
            (
                Some(LusailEngine::new(federation, LusailConfig::default())),
                None,
            )
        };
        times.bind = t.elapsed().as_secs_f64();

        let mut system = System {
            workload,
            servers,
            engine,
            front,
            replay_stores,
            times,
        };
        let t = Instant::now();
        for (i, q) in catalog.iter().enumerate() {
            let outcome = system.ask(&q.text, "warm");
            if outcome.digest != Some(truth[i]) {
                system.shutdown();
                return Err(format!(
                    "warm pass: {} answered {:?}, ground truth {:?}",
                    q.name, outcome.digest, truth[i]
                ));
            }
        }
        system.times.warm = t.elapsed().as_secs_f64();
        Ok(system)
    }

    pub fn engine(&self) -> &LusailEngine {
        match (&self.engine, &self.front) {
            (Some(engine), _) => engine,
            (None, Some((_, service))) => service.engine(),
            (None, None) => unreachable!("a system has an engine or a front door"),
        }
    }

    fn front_addr(&self) -> Option<SocketAddr> {
        self.front.as_ref().map(|(h, _)| h.local_addr())
    }

    /// Run one query the way this workload's users send it: text into the
    /// in-process engine, or text over HTTP to the front door.
    fn ask(&self, text: &str, client_id: &str) -> Outcome {
        let started = Instant::now();
        if let Some(addr) = self.front_addr() {
            return match client::post_query(addr, client_id, text) {
                Ok(reply) => {
                    // The streaming decoder, as the engine's HTTP transport
                    // uses: the whole-document `results_json::parse` scans
                    // the rest of the body once per string character, which
                    // costs seconds on the big-literal queries.
                    let digest = (reply.status == 200)
                        .then(|| results_json::parse_capped(&reply.body, None).ok())
                        .flatten()
                        .map(|r| match r.result {
                            QueryResult::Solutions(rel) => mix::digest(&rel),
                            QueryResult::Boolean(_) => Digest::default(),
                        });
                    Outcome {
                        latency: reply.total.as_secs_f64(),
                        ttfb: Some(reply.ttfb.as_secs_f64()),
                        status: reply.status,
                        digest,
                        profile: None,
                    }
                }
                Err(e) => {
                    eprintln!("front door request failed: {e}");
                    Outcome::failed(started, 0)
                }
            };
        }
        let parsed = match lusail_sparql::parse_query(text) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("query does not parse: {e}");
                return Outcome::failed(started, 400);
            }
        };
        match self.engine().execute_profiled(&parsed) {
            Ok((rel, profile)) => Outcome {
                latency: started.elapsed().as_secs_f64(),
                ttfb: None,
                status: 200,
                digest: Some(mix::digest(&rel)),
                profile: Some(profile),
            },
            Err(e) => {
                eprintln!("query failed: {e}");
                Outcome::failed(started, 500)
            }
        }
    }

    /// Stop every server and wait for its threads.
    pub fn shutdown(self) {
        let System {
            servers,
            engine,
            front,
            ..
        } = self;
        if let Some((handle, service)) = front {
            handle.shutdown();
            drop(service);
        }
        drop(engine);
        for s in servers {
            s.shutdown();
        }
    }

    /// A reading of every counter the layers expose.
    pub fn counters(&self) -> Counters {
        let engine = self.engine();
        let fed = engine.federation();
        let traffic = fed.total_traffic();
        let (mut retries, mut failures) = (0, 0);
        for (_, ep) in fed.iter() {
            if let Some(h) = ep.health() {
                retries += h.retries;
                failures += h.failures;
            }
        }
        let (mut verifications, mut pages) = (0, 0);
        for (_, s) in engine.integrity().snapshot() {
            verifications += s.verifications;
            pages += s.pages_fetched;
        }
        let cache = engine.cache().stats();
        let endpoint =
            self.servers
                .iter()
                .map(|s| s.stats())
                .fold(RequestCounts::default(), |a, b| RequestCounts {
                    served: a.served + b.served,
                    shed: a.shed + b.shed,
                    errors: a.errors + b.errors,
                });
        let (front, results, pool) = match &self.front {
            Some((handle, service)) => {
                let r = service.results().stats();
                let p = service.pool().stats();
                (
                    handle.stats(),
                    [r.hits, r.misses, r.evictions],
                    [p.queued, p.shed, p.peak_ledgers as u64],
                )
            }
            None => (RequestCounts::default(), [0; 3], [0; 3]),
        };
        Counters {
            requests: traffic.requests,
            bytes_in: traffic.bytes_received,
            codec: fed.total_codec().unwrap_or_default(),
            retries,
            failures,
            verifications,
            pages,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            endpoint,
            front,
            results,
            pool,
        }
    }
}

/// What one query returned, as the client saw it.
struct Outcome {
    latency: f64,
    ttfb: Option<f64>,
    status: u16,
    digest: Option<Digest>,
    profile: Option<ExecutionProfile>,
}

impl Outcome {
    fn failed(started: Instant, status: u16) -> Outcome {
        Outcome {
            latency: started.elapsed().as_secs_f64(),
            ttfb: None,
            status,
            digest: None,
            profile: None,
        }
    }
}

/// Cumulative layer counters; windows report the difference of two.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub requests: u64,
    pub bytes_in: u64,
    pub codec: CodecSnapshot,
    pub retries: u64,
    pub failures: u64,
    pub verifications: u64,
    pub pages: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub endpoint: RequestCounts,
    /// The front-door server's own counters.
    pub front: RequestCounts,
    /// Front-door result cache: hits, misses, evictions.
    pub results: [u64; 3],
    /// Admission pool: queued, shed, peak ledgers (a high-water mark).
    pub pool: [u64; 3],
}

impl Counters {
    pub fn since(&self, before: &Counters) -> Counters {
        let c = |a: &CodecSnapshot, b: &CodecSnapshot| CodecSnapshot {
            json_responses: a.json_responses - b.json_responses,
            binary_responses: a.binary_responses - b.binary_responses,
            json_bytes_in: a.json_bytes_in - b.json_bytes_in,
            binary_bytes_in: a.binary_bytes_in - b.binary_bytes_in,
            dict_terms: a.dict_terms - b.dict_terms,
            fallbacks: a.fallbacks - b.fallbacks,
        };
        Counters {
            requests: self.requests - before.requests,
            bytes_in: self.bytes_in - before.bytes_in,
            codec: c(&self.codec, &before.codec),
            retries: self.retries - before.retries,
            failures: self.failures - before.failures,
            verifications: self.verifications - before.verifications,
            pages: self.pages - before.pages,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            endpoint: counts_since(&self.endpoint, &before.endpoint),
            front: counts_since(&self.front, &before.front),
            results: [
                self.results[0] - before.results[0],
                self.results[1] - before.results[1],
                self.results[2] - before.results[2],
            ],
            pool: [
                self.pool[0] - before.pool[0],
                self.pool[1] - before.pool[1],
                self.pool[2],
            ],
        }
    }
}

fn counts_since(now: &RequestCounts, before: &RequestCounts) -> RequestCounts {
    RequestCounts {
        served: now.served - before.served,
        shed: now.shed - before.shed,
        errors: now.errors - before.errors,
    }
}

/// Profile sums over a window's in-process queries.
#[derive(Debug, Clone, Default)]
pub struct ProfileSums {
    pub profiled: usize,
    pub source_selection: f64,
    pub analysis: f64,
    pub execution: f64,
    pub check_queries: usize,
    pub subqueries: usize,
    pub delayed: usize,
    pub memory_peak_bytes: usize,
    pub spills: u64,
}

impl ProfileSums {
    fn add(&mut self, p: &ExecutionProfile) {
        self.profiled += 1;
        self.source_selection += p.source_selection.as_secs_f64();
        self.analysis += p.analysis.as_secs_f64();
        self.execution += p.execution.as_secs_f64();
        self.check_queries += p.check_queries;
        self.subqueries += p.subqueries;
        self.delayed += p.delayed;
        self.memory_peak_bytes = self.memory_peak_bytes.max(p.memory.peak_bytes);
        self.spills += p.memory.spill_count;
    }
}

/// One measured window: whole passes of the mix.
#[derive(Default)]
pub struct Window {
    pub elapsed: f64,
    pub passes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub shed_503: u64,
    pub quota_429: u64,
    /// Seconds per query, in completion order.
    pub latencies: Vec<f64>,
    pub ttfbs: Vec<f64>,
    /// Query spans in tracer time (traced windows only).
    pub query_spans: Vec<QuerySpan>,
    pub profiles: ProfileSums,
    pub counters: Counters,
}

/// One query as its client saw it: an `execute_profiled` call or one HTTP
/// request. Request spans of single-client workloads carry its `id`.
#[derive(Debug, Clone, Copy)]
pub struct QuerySpan {
    pub id: u64,
    /// Catalog index.
    pub query: usize,
    pub start: f64,
    pub end: f64,
}

/// One item of a pass: catalog index and the text to send.
#[derive(Clone)]
struct Item {
    query: usize,
    text: String,
}

/// Repeated (result-cache hit) texts per `federate-mix` pass.
const FEDERATE_REPEATS: usize = 8;

/// The items of pass `pass`. Every workload sends each catalog query once
/// per pass in seeded order, except `federate-mix`: it sends an unseen
/// variant of each catalog query plus a seeded choice of
/// [`FEDERATE_REPEATS`] catalog texts cached during set-up.
fn pass_items(workload: Workload, catalog: &[CatalogQuery], seed: u64, pass: u64) -> Vec<Item> {
    let mut rng = mix::pass_rng(seed, pass);
    let mut items: Vec<Item> = catalog
        .iter()
        .enumerate()
        .map(|(i, q)| Item {
            query: i,
            text: q.text.clone(),
        })
        .collect();
    if workload == Workload::FederateMix {
        // Eleven unseen variants and eight repeats: the 42% repeat share
        // keeps the median inside the unseen (result-cache miss) mode
        // rather than on the boundary between hit and miss latencies.
        mix::shuffle(&mut items, &mut rng);
        items.truncate(FEDERATE_REPEATS);
        let n = catalog.len() as u64;
        for (i, q) in catalog.iter().enumerate() {
            let tag = pass * n + i as u64 + 1;
            items.push(Item {
                query: i,
                text: mix::variant(&q.parsed, &mut rng, tag),
            });
        }
    }
    mix::shuffle(&mut items, &mut rng);
    items
}

/// Drive whole passes, starting at pass `first_pass`, until `seconds`
/// have elapsed at a pass boundary, with the workload's closed-loop
/// clients. Every answer is checked against `truth`.
pub fn run_window(
    system: &System,
    catalog: &[CatalogQuery],
    truth: &[Digest],
    seed: u64,
    first_pass: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Window {
    struct Shared {
        pass: u64,
        items: Vec<Item>,
        next: usize,
        window: Window,
        next_query_id: u64,
    }
    let workload = system.workload;
    let shared = Mutex::new(Shared {
        pass: first_pass,
        items: pass_items(workload, catalog, seed, first_pass),
        next: 0,
        window: Window::default(),
        next_query_id: 1,
    });
    let before = system.counters();
    let started = Instant::now();
    let client = |c: usize| {
        let client_id = format!("bench-client-{c}");
        loop {
            let (item, id) = {
                let mut s = shared.lock().expect("window state poisoned");
                if s.next == s.items.len() {
                    if started.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                    s.pass += 1;
                    s.items = pass_items(workload, catalog, seed, s.pass);
                    s.next = 0;
                }
                s.next += 1;
                s.next_query_id += 1;
                (s.items[s.next - 1].clone(), s.next_query_id)
            };
            if workload == Workload::GeoCold {
                // Never-seen queries: nothing learned from earlier ones.
                system.engine().cache().clear();
            }
            if let (Some(tr), 1) = (tracer, workload.clients()) {
                tr.set_query(id);
            }
            let span_start = tracer.map(|t| t.now());
            let outcome = system.ask(&item.text, &client_id);
            let span_end = tracer.map(|t| t.now());
            let correct = outcome.digest == Some(truth[item.query]);
            if outcome.status == 200 && !correct {
                eprintln!(
                    "wrong answer for {}: {:?}, ground truth {:?}",
                    catalog[item.query].name, outcome.digest, truth[item.query]
                );
            }
            let mut s = shared.lock().expect("window state poisoned");
            let w = &mut s.window;
            w.attempted += 1;
            w.failed += u64::from(!correct);
            w.shed_503 += u64::from(outcome.status == 503);
            w.quota_429 += u64::from(outcome.status == 429);
            w.latencies.push(outcome.latency);
            w.ttfbs.extend(outcome.ttfb);
            if let (Some(start), Some(end)) = (span_start, span_end) {
                w.query_spans.push(QuerySpan {
                    id,
                    query: item.query,
                    start,
                    end,
                });
            }
            if let Some(p) = &outcome.profile {
                w.profiles.add(p);
            }
        }
    };
    let client = &client;
    std::thread::scope(|scope| {
        for c in 0..workload.clients() {
            scope.spawn(move || client(c));
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let shared = shared.into_inner().expect("window state poisoned");
    let mut window = shared.window;
    window.elapsed = elapsed;
    window.passes = shared.pass - first_pass + 1;
    window.counters = system.counters().since(&before);
    window
}
