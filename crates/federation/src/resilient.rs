//! The one resilience layer every endpoint transport runs under.
//!
//! A [`Transport`] makes one raw attempt and classifies its failure.
//! [`Resilient`] owns everything around it: breaker admission, the retry
//! loop and the [`EndpointHealth`] bookkeeping. Per logical request:
//!
//! * an open breaker fails fast with [`FailureKind::CircuitOpen`];
//! * an expired deadline or tripped cancel token ends the request with
//!   `Deadline`/`Cancelled`, never a breaker strike;
//! * a `Transport` failure is a strike and is retried after a doubling
//!   backoff (paused on the deadline) until the budget is spent or the
//!   breaker opens;
//! * `Rejected` counts as a breaker success and returns at once; other
//!   kinds pass through.

use crate::endpoint::{EndpointError, FailureKind, SelectResponse, SparqlEndpoint};
use crate::erh::{Admission, BreakerConfig, Deadline, EndpointHealth, HealthSnapshot};
use crate::network::{CodecSnapshot, TrafficSnapshot};
use lusail_sparql::ast::Query;
use lusail_store::eval::QueryResult;
use lusail_store::StoreStats;
use std::time::{Duration, Instant};

/// One raw request path to an endpoint, with no retries and no breaker.
pub trait Transport: Send + Sync {
    /// A stable human-readable name (e.g. `"DrugBank"` or `"univ3"`).
    fn name(&self) -> &str;

    /// Make one attempt under `deadline`. Returns the result together with
    /// whether the server advertised that it truncated it
    /// (`X-Lusail-Truncated`; transports that cannot see one say `false`).
    fn attempt(
        &self,
        query: &Query,
        deadline: &Deadline,
    ) -> Result<(QueryResult, bool), EndpointError>;

    /// Traffic counters: one request per attempt.
    fn traffic(&self) -> TrafficSnapshot;

    /// Reset traffic counters.
    fn reset_traffic(&self);

    /// Data-plane codec counters, when the transport negotiates a codec.
    fn codec(&self) -> Option<CodecSnapshot> {
        None
    }

    /// VoID-style statistics, when the transport can compute them.
    fn collect_stats(&self) -> Option<StoreStats> {
        None
    }
}

/// How often, and how patiently, a failed attempt is retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first, on transport failures.
    pub retries: u32,
    /// Sleep before the first retry; doubles on each subsequent one.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 2,
            backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// The pause after attempt `made` (1-based) fails: the backoff doubled
    /// once per earlier retry, the factor capped at 2^16, saturating.
    fn pause_after(&self, made: u32) -> Duration {
        self.backoff
            .saturating_mul(1u32 << made.saturating_sub(1).min(16))
    }
}

/// A transport behind the retry/breaker loop (see module docs).
pub struct Resilient<T> {
    pub(crate) transport: T,
    pub(crate) health: EndpointHealth,
    policy: RetryPolicy,
}

impl<T: Transport> Resilient<T> {
    /// Wrap `transport` with the default retry policy and breaker.
    pub fn over(transport: T) -> Self {
        Resilient {
            transport,
            health: EndpointHealth::new(BreakerConfig::default()),
            policy: RetryPolicy::default(),
        }
    }

    /// Override the retry policy.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Override the circuit-breaker tuning (resets the health registry).
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.health = EndpointHealth::new(config);
        self
    }

    /// The retry/breaker loop every endpoint type runs (see module docs).
    fn run(
        &self,
        query: &Query,
        deadline: &Deadline,
    ) -> Result<(QueryResult, bool), EndpointError> {
        let name = self.transport.name();
        // An open circuit fails fast without touching the transport or
        // burning any of the retry budget.
        if let Admission::Rejected { retry_in } = self.health.admit() {
            return Err(EndpointError::circuit_open(name, retry_in));
        }
        let attempts = self.policy.retries.saturating_add(1);
        let mut made = 0u32;
        let last_failure = loop {
            if deadline.expired() {
                return Err(EndpointError::expired(name, deadline));
            }
            if made > 0 {
                self.health.record_retry();
            }
            made += 1;
            let started = Instant::now();
            let failure = match self.transport.attempt(query, deadline) {
                Ok(answer) => {
                    self.health.record_success(started.elapsed());
                    return Ok(answer);
                }
                Err(e) if e.kind == FailureKind::Rejected => {
                    // The endpoint answered; it refused this request. The
                    // breaker sees a success, and retrying cannot help.
                    self.health.record_success(started.elapsed());
                    return Err(e);
                }
                Err(e) if e.kind != FailureKind::Transport => return Err(e),
                // Our own budget clipped the attempt (or its token tripped
                // mid-read): not evidence against the endpoint.
                Err(_) if deadline.expired() => {
                    return Err(EndpointError::expired(name, deadline));
                }
                Err(e) => e,
            };
            // Stop once the budget is spent, or once the breaker opened
            // (possibly fed by parallel requests): retrying a circuit
            // everyone else already fails fast on only adds load.
            let open = self.health.record_failure();
            if made == attempts || open {
                break failure.message;
            }
            // Backoff never overruns the query budget, and a cancel token
            // wakes it at once.
            deadline.pause(self.policy.pause_after(made));
        };
        Err(EndpointError::transport(
            name,
            format!("giving up after {made} attempts: {last_failure}"),
        ))
    }
}

impl<T: Transport> SparqlEndpoint for Resilient<T> {
    fn name(&self) -> &str {
        self.transport.name()
    }

    fn execute_within(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<QueryResult, EndpointError> {
        Ok(self.run(query, &deadline)?.0)
    }

    fn select_with_meta(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<SelectResponse, EndpointError> {
        let (result, truncated) = self.run(query, &deadline)?;
        Ok(SelectResponse {
            rows: result.into_solutions(),
            truncated,
        })
    }

    fn traffic(&self) -> TrafficSnapshot {
        self.transport.traffic()
    }

    fn reset_traffic(&self) {
        self.transport.reset_traffic();
    }

    fn health(&self) -> Option<HealthSnapshot> {
        Some(self.health.snapshot())
    }

    fn set_quarantined(&self, on: bool) {
        self.health.set_quarantined(on);
    }

    fn collect_stats(&self) -> Option<StoreStats> {
        self.transport.collect_stats()
    }

    fn codec(&self) -> Option<CodecSnapshot> {
        self.transport.codec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::{CancelReason, CancelToken};
    use crate::erh::BreakerState;
    use lusail_sparql::parse_query;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// A fake transport that answers every attempt with the failure kind
    /// it is scripted with (`None` = success) and counts its attempts.
    struct Scripted {
        outcome: Mutex<Option<FailureKind>>,
        attempts: AtomicU64,
    }

    impl Scripted {
        fn new(outcome: Option<FailureKind>) -> Self {
            Scripted {
                outcome: Mutex::new(outcome),
                attempts: AtomicU64::new(0),
            }
        }

        fn set(&self, outcome: Option<FailureKind>) {
            *self.outcome.lock().unwrap() = outcome;
        }

        fn attempts(&self) -> u64 {
            self.attempts.load(Ordering::Relaxed)
        }
    }

    impl Transport for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }

        fn attempt(
            &self,
            _query: &Query,
            _deadline: &Deadline,
        ) -> Result<(QueryResult, bool), EndpointError> {
            self.attempts.fetch_add(1, Ordering::Relaxed);
            match *self.outcome.lock().unwrap() {
                None => Ok((QueryResult::Boolean(true), false)),
                Some(kind) => Err(EndpointError::new(
                    "scripted",
                    format!("scripted {kind:?}"),
                    kind,
                )),
            }
        }

        fn traffic(&self) -> TrafficSnapshot {
            TrafficSnapshot::default()
        }

        fn reset_traffic(&self) {}
    }

    fn resilient(
        outcome: Option<FailureKind>,
        retries: u32,
        threshold: u32,
    ) -> Resilient<Scripted> {
        Resilient::over(Scripted::new(outcome))
            .with_retry(RetryPolicy {
                retries,
                backoff: Duration::from_micros(100),
            })
            .with_breaker(BreakerConfig {
                failure_threshold: threshold,
                cooldown: Duration::from_millis(30),
                ewma_alpha: 0.2,
            })
    }

    fn ask() -> Query {
        parse_query("ASK { ?s ?p ?o }").unwrap()
    }

    #[test]
    fn transport_error_burns_exactly_the_retry_budget() {
        let ep = resilient(Some(FailureKind::Transport), 4, u32::MAX);
        let err = ep.execute(&ask()).unwrap_err();
        assert_eq!(err.kind, FailureKind::Transport);
        assert!(err.message.contains("giving up after 5 attempts"), "{err}");
        assert!(err.message.contains("scripted Transport"), "{err}");
        assert_eq!(ep.transport.attempts(), 5);
    }

    #[test]
    fn transport_error_stops_retrying_once_the_breaker_opens() {
        let ep = resilient(Some(FailureKind::Transport), 10, 3);
        let err = ep.execute(&ask()).unwrap_err();
        assert!(err.message.contains("giving up after 3 attempts"), "{err}");
        assert_eq!(ep.transport.attempts(), 3);
        assert_eq!(ep.health().unwrap().breaker, BreakerState::Open);
    }

    #[test]
    fn rejection_is_one_attempt_and_no_strike() {
        let ep = resilient(Some(FailureKind::Rejected), 5, 1);
        let err = ep.execute(&ask()).unwrap_err();
        assert_eq!(err.kind, FailureKind::Rejected);
        assert_eq!(ep.transport.attempts(), 1);
        let h = ep.health().unwrap();
        assert_eq!((h.failures, h.retries), (0, 0));
        assert_eq!(h.breaker, BreakerState::Closed);
    }

    #[test]
    fn expired_deadline_is_no_strike() {
        let ep = resilient(Some(FailureKind::Transport), 5, 1);
        let err = ep
            .execute_within(&ask(), Deadline::within(Duration::ZERO))
            .unwrap_err();
        assert_eq!(err.kind, FailureKind::Deadline);
        assert_eq!(ep.transport.attempts(), 0);
        // A cancelled token is the same verdict, with its reason.
        let token = CancelToken::new();
        token.cancel(CancelReason::AdminCancelled);
        let err = ep
            .execute_within(&ask(), Deadline::none().with_token(token))
            .unwrap_err();
        assert_eq!(err.kind, FailureKind::Cancelled);
        let h = ep.health().unwrap();
        assert_eq!(h.failures, 0);
        assert_eq!(h.breaker, BreakerState::Closed);
    }

    #[test]
    fn health_counts_each_wire_attempt_once() {
        let ep = resilient(Some(FailureKind::Transport), 2, u32::MAX);
        ep.execute(&ask()).unwrap_err();
        ep.transport.set(None);
        ep.execute(&ask()).unwrap();
        ep.execute(&ask()).unwrap();
        let h = ep.health().unwrap();
        // Logical requests plus retries is the number of wire attempts.
        assert_eq!(h.requests + h.retries, ep.transport.attempts());
        assert_eq!((h.requests, h.retries, h.failures), (3, 2, 3));
    }

    #[test]
    fn max_retry_budget_does_not_overflow() {
        let ep = resilient(None, u32::MAX, 3);
        assert!(ep.ask(&ask()).unwrap());
        assert_eq!(ep.transport.attempts(), 1);
        // The backoff multiply saturates instead of overflowing.
        let policy = RetryPolicy {
            retries: u32::MAX,
            backoff: Duration::MAX,
        };
        assert_eq!(policy.pause_after(u32::MAX), Duration::MAX);
    }

    #[test]
    fn hard_down_burns_retries_then_opens_breaker() {
        let ep = resilient(Some(FailureKind::Transport), 2, 3);
        let err = ep.execute(&ask()).unwrap_err();
        assert_eq!(err.kind, FailureKind::Transport);
        assert!(err.message.contains("3 attempts"), "{err}");
        // Threshold 3 was hit during those attempts: now failing fast.
        let err = ep.execute(&ask()).unwrap_err();
        assert_eq!(err.kind, FailureKind::CircuitOpen);
        assert_eq!(ep.transport.attempts(), 3, "an open circuit never dials");
        assert_eq!(ep.health().unwrap().breaker, BreakerState::Open);
    }

    #[test]
    fn recovery_after_faults_clear() {
        let ep = resilient(Some(FailureKind::Transport), 2, 3);
        assert!(ep.execute(&ask()).is_err());
        assert_eq!(ep.health().unwrap().breaker, BreakerState::Open);
        ep.transport.set(None);
        std::thread::sleep(Duration::from_millis(40));
        // Cooldown elapsed: the probe goes through and closes the breaker.
        assert!(ep.ask(&ask()).unwrap());
        assert_eq!(ep.health().unwrap().breaker, BreakerState::Closed);
    }
}
