//! Cooperative cancellation: a shared token that execution checks at every
//! existing deadline point, kept orthogonal to the engine itself.
//!
//! A [`CancelToken`] is a cheap clonable handle to a shared flag plus a
//! structured [`CancelReason`]. The first `cancel()` wins; later calls are
//! no-ops so the recorded reason is stable. Sleeps and waits throughout the
//! federation layer go through [`CancelToken::wait_timeout`] (via
//! `Deadline::pause`) so a cancelled query stops burning its backoff and
//! hedge windows immediately instead of sleeping them out.
//!
//! A token may also carry a client liveness probe ([`CancelToken::arm_probe`]),
//! peeked by whichever thread already reads the token, so detecting a
//! vanished client costs no thread of its own.

use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Minimum spacing between two liveness peeks of one token.
const PROBE_INTERVAL: Duration = Duration::from_millis(10);
/// State-byte layout: the high bit is set while a probe is armed, the low
/// bits hold `CancelReason::code` (0 = live).
const PROBE_ARMED: u8 = 0x80;
const REASON_MASK: u8 = 0x7F;

/// Why a query was cancelled. Ordered by who pulled the trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The client hung up while the query was executing or streaming.
    ClientDisconnected,
    /// An operator cancelled it via `POST /queries/<id>/cancel`.
    AdminCancelled,
    /// The lifecycle watchdog reaped it past deadline + grace.
    WatchdogReaped,
    /// The server is shutting down and force-cancelled stragglers.
    ServerDraining,
}

impl CancelReason {
    /// Stable lower-snake name used in JSON stats and error bodies.
    pub fn as_str(self) -> &'static str {
        match self {
            CancelReason::ClientDisconnected => "client_disconnected",
            CancelReason::AdminCancelled => "admin_cancelled",
            CancelReason::WatchdogReaped => "watchdog_reaped",
            CancelReason::ServerDraining => "server_draining",
        }
    }

    fn code(self) -> u8 {
        match self {
            CancelReason::ClientDisconnected => 1,
            CancelReason::AdminCancelled => 2,
            CancelReason::WatchdogReaped => 3,
            CancelReason::ServerDraining => 4,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(CancelReason::ClientDisconnected),
            2 => Some(CancelReason::AdminCancelled),
            3 => Some(CancelReason::WatchdogReaped),
            4 => Some(CancelReason::ServerDraining),
            _ => None,
        }
    }
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CancelReason::ClientDisconnected => "client disconnected",
            CancelReason::AdminCancelled => "cancelled by administrator",
            CancelReason::WatchdogReaped => "reaped by watchdog",
            CancelReason::ServerDraining => "server draining",
        })
    }
}

#[derive(Debug)]
struct CancelInner {
    /// [`PROBE_ARMED`] | `CancelReason::code` (0 = live).
    state: AtomicU8,
    /// Wakes sleepers in `wait_timeout` the moment the token trips.
    gate: Mutex<()>,
    bell: Condvar,
    /// The armed client socket and when it was last peeked. Holding this
    /// lock is what makes `disarm_probe` a barrier: no peek (which toggles
    /// the socket's shared `O_NONBLOCK` flag) can be in flight after it.
    probe: Mutex<Option<(TcpStream, Instant)>>,
}

/// Shared cancellation flag with a structured reason. Clones observe the
/// same underlying state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                state: AtomicU8::new(0),
                gate: Mutex::new(()),
                bell: Condvar::new(),
                probe: Mutex::new(None),
            }),
        }
    }

    /// Trip the token. The first reason wins; returns whether this call
    /// was the one that tripped it.
    pub fn cancel(&self, reason: CancelReason) -> bool {
        let won = self
            .inner
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| {
                (s & REASON_MASK == 0).then_some(s | reason.code())
            })
            .is_ok();
        if won {
            // Take the lock so a waiter between its check and its wait
            // cannot miss the notification.
            let _g = self.inner.gate.lock().unwrap_or_else(|e| e.into_inner());
            self.inner.bell.notify_all();
        }
        won
    }

    pub fn is_cancelled(&self) -> bool {
        self.reason().is_some()
    }

    /// The recorded reason, if the token has tripped. With a probe armed,
    /// this is also where a vanished client is noticed.
    pub fn reason(&self) -> Option<CancelReason> {
        let state = self.inner.state.load(Ordering::Acquire);
        if state == 0 {
            return None;
        }
        if state & REASON_MASK == 0 {
            self.poll_probe();
        }
        self.tripped()
    }

    /// The recorded reason without probing the client.
    fn tripped(&self) -> Option<CancelReason> {
        CancelReason::from_code(self.inner.state.load(Ordering::Acquire) & REASON_MASK)
    }

    /// Watch the requesting client through `socket` (a `try_clone` of the
    /// connection): from now on reading the token also peeks the socket,
    /// at most once per [`PROBE_INTERVAL`], and trips
    /// [`CancelReason::ClientDisconnected`] on EOF or a hard error. The
    /// owner must [`disarm_probe`](Self::disarm_probe) before it uses the
    /// connection again.
    pub fn arm_probe(&self, socket: TcpStream) {
        *self.inner.probe.lock().unwrap_or_else(|e| e.into_inner()) =
            Some((socket, Instant::now()));
        self.inner.state.fetch_or(PROBE_ARMED, Ordering::AcqRel);
    }

    /// Stop watching the client and drop the socket handle. Waits out a
    /// peek in flight, so on return no thread touches the socket's flags.
    pub fn disarm_probe(&self) {
        let mut probe = self.inner.probe.lock().unwrap_or_else(|e| e.into_inner());
        self.inner.state.fetch_and(!PROBE_ARMED, Ordering::AcqRel);
        *probe = None;
    }

    /// One rate-limited peek. Concurrent readers skip rather than queue:
    /// whoever holds the lock is already probing. Must not be called with
    /// `gate` held, since a trip takes `gate` to ring the bell (the lock
    /// order is always probe, then gate).
    fn poll_probe(&self) {
        let Ok(mut probe) = self.inner.probe.try_lock() else {
            return;
        };
        let Some((socket, last)) = probe.as_mut() else {
            return;
        };
        if last.elapsed() < PROBE_INTERVAL {
            return;
        }
        *last = Instant::now();
        let mut byte = [0u8; 1];
        let alive = socket.set_nonblocking(true).is_ok() && {
            let peeked = socket.peek(&mut byte);
            // Restore blocking mode before anyone else can see the socket.
            socket.set_nonblocking(false).is_ok()
                && match peeked {
                    // Orderly EOF: the client hung up mid-query.
                    Ok(0) => false,
                    // Pipelined bytes of the next request.
                    Ok(_) => true,
                    Err(e) => matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ),
                }
        };
        if !alive {
            self.cancel(CancelReason::ClientDisconnected);
        }
    }

    /// Sleep for up to `timeout`, waking early if the token trips. Returns
    /// the reason if cancellation cut the sleep short (or had already
    /// happened). With a probe armed the sleep is cut into
    /// [`PROBE_INTERVAL`] slices, probing between them outside `gate`.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<CancelReason> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(reason) = self.reason() {
                return Some(reason);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let slice = if self.inner.state.load(Ordering::Acquire) & PROBE_ARMED != 0 {
                left.min(PROBE_INTERVAL)
            } else {
                left
            };
            let guard = self.inner.gate.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(reason) = self.tripped() {
                return Some(reason);
            }
            let _ = self
                .inner
                .bell
                .wait_timeout(guard, slice)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Two handles to the same underlying token.
    pub fn same_token(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
    }

    #[test]
    fn first_cancel_wins() {
        let t = CancelToken::new();
        assert!(t.cancel(CancelReason::AdminCancelled));
        assert!(!t.cancel(CancelReason::WatchdogReaped));
        assert_eq!(t.reason(), Some(CancelReason::AdminCancelled));
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel(CancelReason::ClientDisconnected);
        assert_eq!(c.reason(), Some(CancelReason::ClientDisconnected));
        assert!(t.same_token(&c));
        assert!(!t.same_token(&CancelToken::new()));
    }

    #[test]
    fn wait_timeout_sleeps_full_window_when_live() {
        let t = CancelToken::new();
        let start = Instant::now();
        assert_eq!(t.wait_timeout(Duration::from_millis(30)), None);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn wait_timeout_wakes_on_cancel() {
        let t = CancelToken::new();
        let waker = t.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.cancel(CancelReason::ServerDraining);
        });
        let start = Instant::now();
        let reason = t.wait_timeout(Duration::from_secs(10));
        assert_eq!(reason, Some(CancelReason::ServerDraining));
        assert!(start.elapsed() < Duration::from_secs(5));
        h.join().unwrap();
    }

    #[test]
    fn wait_timeout_returns_immediately_when_already_cancelled() {
        let t = CancelToken::new();
        t.cancel(CancelReason::WatchdogReaped);
        let start = Instant::now();
        assert_eq!(
            t.wait_timeout(Duration::from_secs(10)),
            Some(CancelReason::WatchdogReaped)
        );
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    /// A connected loopback pair: (client, server side).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn probe_trips_when_the_client_hangs_up() {
        let (client, server) = socket_pair();
        let t = CancelToken::new();
        t.arm_probe(server.try_clone().unwrap());
        assert_eq!(t.reason(), None);
        drop(client);
        let start = Instant::now();
        assert_eq!(
            t.wait_timeout(Duration::from_secs(10)),
            Some(CancelReason::ClientDisconnected)
        );
        assert!(start.elapsed() < Duration::from_secs(5));
        t.disarm_probe();
    }

    #[test]
    fn probe_keeps_a_live_client_and_its_blocking_socket() {
        let (mut client, server) = socket_pair();
        let t = CancelToken::new();
        t.arm_probe(server.try_clone().unwrap());
        assert_eq!(t.wait_timeout(Duration::from_millis(40)), None);
        // Pipelined bytes of a next request are not a hang-up.
        std::io::Write::write_all(&mut client, b"GET").unwrap();
        assert_eq!(t.wait_timeout(Duration::from_millis(40)), None);
        t.disarm_probe();
        // Disarmed, the socket is back in blocking mode for the worker's
        // own reads: an empty read waits out its timeout.
        let mut buf = [0u8; 8];
        server
            .set_read_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(std::io::Read::read(&mut &server, &mut buf).unwrap(), 3);
        let start = Instant::now();
        assert!(std::io::Read::read(&mut &server, &mut buf).is_err());
        assert!(start.elapsed() >= Duration::from_millis(20), "non-blocking");
        // And a hang-up is no longer the token's business.
        drop(client);
        assert_eq!(t.wait_timeout(Duration::from_millis(20)), None);
    }

    #[test]
    fn reason_names_are_stable() {
        assert_eq!(
            CancelReason::ClientDisconnected.as_str(),
            "client_disconnected"
        );
        assert_eq!(CancelReason::AdminCancelled.as_str(), "admin_cancelled");
        assert_eq!(CancelReason::WatchdogReaped.as_str(), "watchdog_reaped");
        assert_eq!(CancelReason::ServerDraining.as_str(), "server_draining");
    }
}
