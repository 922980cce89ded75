//! The traced run's spans: an endpoint wrapper that records one span per
//! endpoint request, the request classifier, and interval arithmetic over
//! spans. Spans live in memory and are written out when the run ends.

use lusail_federation::erh::{Deadline, HealthSnapshot};
use lusail_federation::{
    CodecSnapshot, EndpointError, ReplicaMemberSnapshot, SelectResponse, SparqlEndpoint,
    TrafficSnapshot,
};
use lusail_sparql::ast::{Expression, GraphPattern, Projection, Query, QueryForm};
use lusail_sparql::Relation;
use lusail_store::eval::QueryResult;
use lusail_store::StoreStats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What an endpoint request does for the engine, read from its AST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Source-selection `ASK`.
    Ask,
    /// LADE locality check (`FILTER NOT EXISTS`).
    Check,
    /// `COUNT` cardinality probe or integrity cross-check.
    Count,
    /// Bound join: a subquery carrying a `VALUES` block.
    Bound,
    /// A plain subquery.
    Select,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Ask => "ask",
            Kind::Check => "check",
            Kind::Count => "count",
            Kind::Bound => "bound",
            Kind::Select => "select",
        }
    }
}

pub fn classify(q: &Query) -> Kind {
    match &q.form {
        QueryForm::Ask(_) => Kind::Ask,
        QueryForm::Select(s) if matches!(s.projection, Projection::Count { .. }) => Kind::Count,
        QueryForm::Select(s) if has_not_exists(&s.pattern) => Kind::Check,
        QueryForm::Select(s) if has_values(&s.pattern) => Kind::Bound,
        QueryForm::Select(_) => Kind::Select,
    }
}

fn has_not_exists(p: &GraphPattern) -> bool {
    match p {
        GraphPattern::Filter(inner, e) => {
            matches!(e, Expression::NotExists(_)) || has_not_exists(inner)
        }
        GraphPattern::Join(a, b)
        | GraphPattern::LeftJoin(a, b)
        | GraphPattern::Union(a, b)
        | GraphPattern::Minus(a, b) => has_not_exists(a) || has_not_exists(b),
        GraphPattern::Bind(inner, _, _) => has_not_exists(inner),
        GraphPattern::SubSelect(s) => has_not_exists(&s.pattern),
        GraphPattern::Bgp(_) | GraphPattern::Values(..) => false,
    }
}

fn has_values(p: &GraphPattern) -> bool {
    match p {
        GraphPattern::Values(..) => true,
        GraphPattern::Join(a, b)
        | GraphPattern::LeftJoin(a, b)
        | GraphPattern::Union(a, b)
        | GraphPattern::Minus(a, b) => has_values(a) || has_values(b),
        GraphPattern::Filter(inner, _) | GraphPattern::Bind(inner, _, _) => has_values(inner),
        GraphPattern::SubSelect(s) => has_values(&s.pattern),
        GraphPattern::Bgp(_) => false,
    }
}

/// One endpoint request. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub query: u64,
    pub endpoint: usize,
    pub kind: Kind,
    pub start: f64,
    pub end: f64,
    pub rows: usize,
    pub bytes: usize,
    pub ok: bool,
    /// The request itself, kept for the replay split.
    pub request: Query,
}

/// Collects request spans while switched on.
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    current_query: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            current_query: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Tag later request spans with query `id` (single-client workloads;
    /// concurrent clients leave it at 0).
    pub fn set_query(&self, id: u64) {
        self.current_query.store(id, Ordering::SeqCst);
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// A [`SparqlEndpoint`] that forwards every method to the wrapped one, so
/// the engine behaves identically, and records a span around each request.
pub struct TracedEndpoint {
    inner: Arc<dyn SparqlEndpoint>,
    id: usize,
    tracer: Arc<Tracer>,
}

impl TracedEndpoint {
    pub fn new(inner: Arc<dyn SparqlEndpoint>, id: usize, tracer: Arc<Tracer>) -> Self {
        TracedEndpoint { inner, id, tracer }
    }

    fn record<T>(
        &self,
        query: &Query,
        size: impl Fn(&T) -> (usize, usize),
        call: impl FnOnce() -> Result<T, EndpointError>,
    ) -> Result<T, EndpointError> {
        if !self.tracer.on.load(Ordering::Relaxed) {
            return call();
        }
        let start = self.tracer.now();
        let out = call();
        let end = self.tracer.now();
        let (rows, bytes) = out.as_ref().map(&size).unwrap_or((0, 0));
        let span = Span {
            query: self.tracer.current_query.load(Ordering::Relaxed),
            endpoint: self.id,
            kind: classify(query),
            start,
            end,
            rows,
            bytes,
            ok: out.is_ok(),
            request: query.clone(),
        };
        self.tracer
            .spans
            .lock()
            .expect("span log poisoned")
            .push(span);
        out
    }
}

fn result_size(r: &QueryResult) -> (usize, usize) {
    match r {
        QueryResult::Solutions(rel) => rel_size(rel),
        QueryResult::Boolean(_) => (1, 1),
    }
}

fn rel_size(rel: &Relation) -> (usize, usize) {
    (rel.len(), rel.wire_size())
}

impl SparqlEndpoint for TracedEndpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute_within(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<QueryResult, EndpointError> {
        self.record(query, result_size, || {
            self.inner.execute_within(query, deadline)
        })
    }

    fn execute(&self, query: &Query) -> Result<QueryResult, EndpointError> {
        self.record(query, result_size, || self.inner.execute(query))
    }

    fn traffic(&self) -> TrafficSnapshot {
        self.inner.traffic()
    }

    fn reset_traffic(&self) {
        self.inner.reset_traffic()
    }

    fn health(&self) -> Option<HealthSnapshot> {
        self.inner.health()
    }

    fn collect_stats(&self) -> Option<StoreStats> {
        self.inner.collect_stats()
    }

    fn codec(&self) -> Option<CodecSnapshot> {
        self.inner.codec()
    }

    fn replica_members(&self) -> Option<Vec<ReplicaMemberSnapshot>> {
        self.inner.replica_members()
    }

    fn ask(&self, query: &Query) -> Result<bool, EndpointError> {
        self.record(query, |_| (1, 1), || self.inner.ask(query))
    }

    fn ask_within(&self, query: &Query, deadline: Deadline) -> Result<bool, EndpointError> {
        self.record(query, |_| (1, 1), || self.inner.ask_within(query, deadline))
    }

    fn select(&self, query: &Query) -> Result<Relation, EndpointError> {
        self.record(query, rel_size, || self.inner.select(query))
    }

    fn select_within(&self, query: &Query, deadline: Deadline) -> Result<Relation, EndpointError> {
        self.record(query, rel_size, || {
            self.inner.select_within(query, deadline)
        })
    }

    fn select_with_meta(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<SelectResponse, EndpointError> {
        self.record(
            query,
            |r: &SelectResponse| rel_size(&r.rows),
            || self.inner.select_with_meta(query, deadline),
        )
    }

    fn set_quarantined(&self, on: bool) {
        self.inner.set_quarantined(on)
    }

    fn count(&self, query: &Query) -> Result<usize, EndpointError> {
        self.record(query, |_| (1, 8), || self.inner.count(query))
    }

    fn count_within(&self, query: &Query, deadline: Deadline) -> Result<usize, EndpointError> {
        self.record(
            query,
            |_| (1, 8),
            || self.inner.count_within(query, deadline),
        )
    }
}

/// Sort and merge intervals into disjoint ones.
pub fn merge(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of a set of intervals, counting overlaps once.
pub fn union_len(iv: Vec<(f64, f64)>) -> f64 {
    merge(iv).iter().map(|(s, e)| e - s).sum()
}

/// Length of the time covered by both interval sets.
pub fn overlap_len(a: Vec<(f64, f64)>, b: Vec<(f64, f64)>) -> f64 {
    let (a, b) = (merge(a), merge(b));
    let (mut i, mut j, mut total) = (0, 0, 0.0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_sparql::parse_query;

    fn kind(text: &str) -> Kind {
        classify(&parse_query(text).expect("test query parses"))
    }

    #[test]
    fn classifier_reads_the_ast() {
        assert_eq!(kind("ASK { ?s <http://x/p> ?o }"), Kind::Ask);
        assert_eq!(
            kind("SELECT (COUNT(*) AS ?c) WHERE { ?s <http://x/p> ?o }"),
            Kind::Count
        );
        assert_eq!(
            kind(
                "SELECT ?s WHERE { ?s <http://x/p> ?o . \
                 FILTER NOT EXISTS { ?o <http://x/q> ?z } } LIMIT 1"
            ),
            Kind::Check
        );
        assert_eq!(
            kind("SELECT ?s ?o WHERE { ?s <http://x/p> ?o . VALUES ?s { <http://x/a> } }"),
            Kind::Bound
        );
        assert_eq!(
            kind("SELECT ?s WHERE { ?s <http://x/p> ?o OPTIONAL { ?o <http://x/q> ?z } }"),
            Kind::Select
        );
        // A COUNT cross-probe that keeps its VALUES block is still a COUNT.
        assert_eq!(
            kind(
                "SELECT (COUNT(*) AS ?c) WHERE { ?s <http://x/p> ?o . VALUES ?s { <http://x/a> } }"
            ),
            Kind::Count
        );
    }

    #[test]
    fn interval_union_counts_overlap_once() {
        assert_eq!(union_len(vec![]), 0.0);
        assert_eq!(union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_len(vec![(4.0, 5.0), (0.0, 10.0), (2.0, 3.0)]), 10.0);
        // Empty and inverted intervals cover nothing.
        assert_eq!(union_len(vec![(1.0, 1.0), (3.0, 2.0)]), 0.0);
        // Touching intervals merge without a gap.
        assert_eq!(merge(vec![(0.0, 1.0), (1.0, 2.0)]), vec![(0.0, 2.0)]);
    }

    #[test]
    fn overlap_of_two_interval_sets() {
        let queries = vec![(0.0, 10.0), (20.0, 30.0)];
        let requests = vec![(1.0, 3.0), (2.0, 4.0), (9.0, 21.0), (40.0, 41.0)];
        // [1,4] + [9,10] + [20,21] = 3 + 1 + 1.
        assert_eq!(overlap_len(queries, requests), 5.0);
    }
}
