//! The Lusail benchmark: one command that runs a workload against the
//! engine through its public API, checks every answer against merged-store
//! ground truth, and prints end-to-end metrics (or, with `--trace 1`, the
//! per-layer metrics of a traced run).
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload geo-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `BENCHMARK.json` at the repository root names the workloads and metrics
//! the benchmark is judged on. Two workloads run but are left out there,
//! because their throughput swings about twofold between host states that
//! last tens of minutes on a shared 2-core machine: `loopback-warm`, where
//! how often the endpoint servers' 100 ms time-to-first-byte stall fires
//! depends on thread scheduling, and the CPU-bound `large-instant`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the run record (seed, scale, core count, commit, run length, tail
//! percentile, sample counts).
//!
//! Every program config (`LusailConfig`, `HttpConfig`, `ServerConfig`,
//! `FederateConfig`) stays at its default. A traced run measures half its
//! time untraced and half with every endpoint wrapped in a span recorder;
//! the difference is reported as tracing overhead. Its recorded requests
//! are then replayed against the owning endpoint's store and through the
//! query-text round trip, which splits request time into store, text and
//! transport shares. Spans are written to `benchmark/out/`.

mod client;
mod mix;
mod stats;
mod trace;
mod workload;

use lusail_store::Evaluator;
use stats::{median, percentile, tail};
use std::fmt::Write as _;
use std::time::Instant;
use trace::{Kind, Span, Tracer};
use workload::{run_window, QuerySpan, SetupTimes, System, Window, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: lusail-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>
workloads: loopback-warm, geo-cold, federate-mix, large-instant";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_string())?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "bad --seed".to_string())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?}")),
        },
    })
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((result, correct)) => {
            println!("{result}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(String, bool), String> {
    let w = args.workload;
    let catalog = mix::catalog();
    let truth = mix::ground_truth(&mix::generate(w.scale()), &catalog);

    let tracer = args.trace.then(Tracer::new);
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut system = None;
    for i in 0..SETUP_REPEATS {
        let s = System::build(w, &catalog, &truth, tracer.as_ref())?;
        setups.push(s.times);
        if i + 1 < SETUP_REPEATS {
            s.shutdown();
        } else {
            system = Some(s);
        }
    }
    let system = system.expect("at least one set-up");
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let (metrics, window, extra) = if let Some(tracer) = &tracer {
        // Untraced then traced halves on the same system, so their
        // difference is the tracing overhead.
        let half = args.seconds / 2.0;
        let plain = run_window(&system, &catalog, &truth, args.seed, 0, half, None);
        tracer.set_on(true);
        let traced = run_window(
            &system,
            &catalog,
            &truth,
            args.seed,
            plain.passes,
            half,
            Some(tracer),
        );
        tracer.set_on(false);
        let spans = tracer.take();
        let replay = replay(&system, &spans);
        let path = write_spans(args, &catalog, &spans, &traced.query_spans);
        let overhead = 100.0 * (mean(&traced.latencies) / mean(&plain.latencies) - 1.0);
        let metrics = per_layer(&traced, &spans, &replay, overhead, &setup_median);
        let extra = format!(
            r#""untraced_queries": {}, "traced_queries": {}, "spans": {}, "spans_file": {}"#,
            plain.attempted,
            traced.attempted,
            spans.len(),
            json_str(&path)
        );
        let mut both = traced;
        both.attempted += plain.attempted;
        both.failed += plain.failed;
        (metrics, both, extra)
    } else {
        let window = run_window(&system, &catalog, &truth, args.seed, 0, args.seconds, None);
        let metrics = end_to_end(&window, setup_median(SetupTimes::total));
        (metrics, window, String::new())
    };
    system.shutdown();

    let mut sorted = window.latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let t = tail(&sorted);
    let scale = w.scale();
    println!(
        r#"{{"record": {{"workload": {}, "seed": {}, "seconds": {}, "trace": {}, "scale": {{"lubm": {}, "qfed": {}}}, "nproc": {}, "commit": {}, "clients": {}, "passes": {}, "elapsed_s": {}, "queries": {}, "tail_percentile": {}, "tail_samples_beyond": {}, "setup_repeats": {}, "setup_s": [{}]{}{}}}}}"#,
        json_str(w.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        scale.lubm,
        scale.qfed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&commit()),
        w.clients(),
        window.passes,
        window.elapsed,
        window.latencies.len(),
        t.percentile,
        t.beyond,
        SETUP_REPEATS,
        setups
            .iter()
            .map(|s| s.total().to_string())
            .collect::<Vec<_>>()
            .join(", "),
        if extra.is_empty() { "" } else { ", " },
        extra,
    );

    let correct = window.failed == 0;
    let mut out = format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{"#,
        window.attempted, window.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        );
    }
    out.push_str("}}");
    Ok((out, correct))
}

fn end_to_end(w: &Window, setup_s: f64) -> Vec<Metric> {
    let mut sorted = w.latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let n = w.attempted.max(1) as f64;
    vec![
        ("setup_s", setup_s, "s"),
        ("qps", (w.attempted - w.failed) as f64 / w.elapsed, "1/s"),
        ("latency_p50_ms", 1e3 * percentile(&sorted, 50.0), "ms"),
        ("latency_tail_ms", 1e3 * tail(&sorted).value, "ms"),
        (
            "requests_per_query",
            w.counters.requests as f64 / n,
            "1/query",
        ),
        (
            "bytes_in_per_query",
            w.counters.bytes_in as f64 / n,
            "B/query",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Endpoint-side evaluation and query-text round trip of each recorded
/// request, replayed on the owning endpoint's store.
struct Replay {
    eval_s: f64,
    rows_out: usize,
    text_s: f64,
}

fn replay(system: &System, spans: &[Span]) -> Replay {
    let mut r = Replay {
        eval_s: 0.0,
        rows_out: 0,
        text_s: 0.0,
    };
    for span in spans.iter().filter(|s| s.ok) {
        let t = Instant::now();
        let text = lusail_sparql::serializer::serialize_query(&span.request);
        let parsed = lusail_sparql::parse_query(&text).expect("a sent request re-parses");
        r.text_s += t.elapsed().as_secs_f64();
        let store = &system.replay_stores[span.endpoint];
        let t = Instant::now();
        let result = Evaluator::new(store).query(&parsed);
        r.eval_s += t.elapsed().as_secs_f64();
        r.rows_out += match result {
            lusail_store::eval::QueryResult::Solutions(rel) => rel.len(),
            lusail_store::eval::QueryResult::Boolean(_) => 1,
        };
    }
    r
}

fn per_layer(
    w: &Window,
    spans: &[Span],
    replay: &Replay,
    overhead_pct: f64,
    setup_median: &dyn Fn(fn(&SetupTimes) -> f64) -> f64,
) -> Vec<Metric> {
    let n = w.attempted.max(1) as f64;
    let per_q = |x: f64| x / n;
    let ms_per_q = |s: f64| 1e3 * s / n;
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };

    let mut durations: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    durations.sort_by(f64::total_cmp);
    let busy: f64 = durations.iter().sum();
    let intervals = || spans.iter().map(|s| (s.start, s.end)).collect::<Vec<_>>();
    let union = trace::union_len(intervals());
    let queries = || {
        w.query_spans
            .iter()
            .map(|q| (q.start, q.end))
            .collect::<Vec<_>>()
    };
    let covered = trace::overlap_len(queries(), intervals());
    let kind = |k: Kind| spans.iter().filter(move |s| s.kind == k);
    let kind_count = |k: Kind| per_q(kind(k).count() as f64);
    let kind_busy = |k: Kind| ms_per_q(kind(k).map(|s| s.end - s.start).sum());
    let c = &w.counters;
    let p = &w.profiles;
    let per_profile = |x: f64| {
        if p.profiled == 0 {
            0.0
        } else {
            x / p.profiled as f64
        }
    };
    let mut ttfbs = w.ttfbs.clone();
    ttfbs.sort_by(f64::total_cmp);

    vec![
        ("failed_ratio", w.failed as f64 / n, "ratio"),
        ("trace.overhead_pct", overhead_pct, "%"),
        (
            "federation.requests_over_50ms",
            durations.iter().filter(|d| **d > 0.05).count() as f64,
            "count",
        ),
        (
            "federation.request_p50_ms",
            1e3 * percentile(&durations, 50.0),
            "ms",
        ),
        (
            "federation.request_p99_ms",
            1e3 * percentile(&durations, 99.0),
            "ms",
        ),
        ("federation.ask.requests", kind_count(Kind::Ask), "1/query"),
        ("federation.ask.busy_ms", kind_busy(Kind::Ask), "ms/query"),
        (
            "federation.check.requests",
            kind_count(Kind::Check),
            "1/query",
        ),
        (
            "federation.check.busy_ms",
            kind_busy(Kind::Check),
            "ms/query",
        ),
        (
            "federation.count.requests",
            kind_count(Kind::Count),
            "1/query",
        ),
        (
            "federation.count.busy_ms",
            kind_busy(Kind::Count),
            "ms/query",
        ),
        (
            "federation.bound.requests",
            kind_count(Kind::Bound),
            "1/query",
        ),
        (
            "federation.bound.busy_ms",
            kind_busy(Kind::Bound),
            "ms/query",
        ),
        (
            "federation.select.requests",
            kind_count(Kind::Select),
            "1/query",
        ),
        (
            "federation.select.busy_ms",
            kind_busy(Kind::Select),
            "ms/query",
        ),
        (
            "federation.concurrency",
            if union > 0.0 { busy / union } else { 0.0 },
            "requests",
        ),
        (
            "federation.codec.binary_bytes_in",
            per_q(c.codec.binary_bytes_in as f64),
            "B/query",
        ),
        (
            "federation.codec.json_bytes_in",
            per_q(c.codec.json_bytes_in as f64),
            "B/query",
        ),
        (
            "federation.codec.fallbacks",
            per_q(c.codec.fallbacks as f64),
            "1/query",
        ),
        (
            "federation.transport_ms",
            ms_per_q(busy - replay.eval_s - replay.text_s),
            "ms/query",
        ),
        ("federation.retries", per_q(c.retries as f64), "1/query"),
        ("federation.failures", per_q(c.failures as f64), "1/query"),
        (
            "federation.integrity.verifications",
            per_q(c.verifications as f64),
            "1/query",
        ),
        (
            "federation.integrity.pages_fetched",
            per_q(c.pages as f64),
            "1/query",
        ),
        (
            "core.source_selection_ms",
            1e3 * per_profile(p.source_selection),
            "ms/query",
        ),
        (
            "core.analysis_ms",
            1e3 * per_profile(p.analysis),
            "ms/query",
        ),
        (
            "core.execution_ms",
            1e3 * per_profile(p.execution),
            "ms/query",
        ),
        (
            "core.check_queries",
            per_profile(p.check_queries as f64),
            "1/query",
        ),
        (
            "core.cache.hit_ratio",
            ratio(c.cache_hits, c.cache_misses),
            "ratio",
        ),
        (
            "core.self_ms",
            ms_per_q(trace::union_len(queries()) - covered),
            "ms/query",
        ),
        (
            "core.subqueries",
            per_profile(p.subqueries as f64),
            "1/query",
        ),
        ("core.delayed", per_profile(p.delayed as f64), "1/query"),
        ("core.memory_peak_bytes", p.memory_peak_bytes as f64, "B"),
        ("core.spills", p.spills as f64, "count"),
        ("store.eval_ms", ms_per_q(replay.eval_s), "ms/query"),
        (
            "store.rows_out",
            per_q(replay.rows_out as f64),
            "rows/query",
        ),
        ("sparql.text_ms", ms_per_q(replay.text_s), "ms/query"),
        ("server.endpoint.served", c.endpoint.served as f64, "count"),
        ("server.endpoint.shed", c.endpoint.shed as f64, "count"),
        ("server.endpoint.errors", c.endpoint.errors as f64, "count"),
        ("server.front.served", c.front.served as f64, "count"),
        ("server.front.errors", c.front.errors as f64, "count"),
        (
            "server.front.ttfb_p50_ms",
            1e3 * percentile(&ttfbs, 50.0),
            "ms",
        ),
        (
            "server.front.ttfb_p99_ms",
            1e3 * percentile(&ttfbs, 99.0),
            "ms",
        ),
        ("server.front.shed_503", w.shed_503 as f64, "count"),
        ("server.front.quota_429", w.quota_429 as f64, "count"),
        (
            "server.result_cache.hit_ratio",
            ratio(c.results[0], c.results[1]),
            "ratio",
        ),
        (
            "server.result_cache.evictions",
            c.results[2] as f64,
            "count",
        ),
        ("server.admission.queued", c.pool[0] as f64, "count"),
        ("server.admission.shed", c.pool[1] as f64, "count"),
        ("server.admission.peak_ledgers", c.pool[2] as f64, "count"),
        ("workloads.generate_s", setup_median(|s| s.generate), "s"),
        ("store.load_s", setup_median(|s| s.load), "s"),
        ("server.bind_s", setup_median(|s| s.bind), "s"),
        ("core.warm_s", setup_median(|s| s.warm), "s"),
    ]
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Process peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, when the working directory is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| r.to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write the traced window's spans, one JSON object per line.
fn write_spans(
    args: &Args,
    catalog: &[mix::CatalogQuery],
    spans: &[Span],
    queries: &[QuerySpan],
) -> String {
    let path = format!(
        "benchmark/out/spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    );
    let mut text = String::new();
    for q in queries {
        let _ = writeln!(
            text,
            r#"{{"span": "query", "id": {}, "name": "{}", "start": {}, "end": {}}}"#,
            q.id, catalog[q.query].name, q.start, q.end
        );
    }
    for s in spans {
        let _ = writeln!(
            text,
            r#"{{"span": "request", "query": {}, "endpoint": {}, "kind": "{}", "start": {}, "end": {}, "rows": {}, "bytes": {}, "ok": {}}}"#,
            s.query,
            s.endpoint,
            s.kind.label(),
            s.start,
            s.end,
            s.rows,
            s.bytes,
            s.ok
        );
    }
    let written =
        std::fs::create_dir_all("benchmark/out").and_then(|_| std::fs::write(&path, text));
    match written {
        Ok(()) => path,
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            String::new()
        }
    }
}
