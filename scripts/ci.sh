#!/usr/bin/env bash
# Tier-1 gate. Every PR must leave this green. The build is fully offline:
# the workspace has no third-party dependencies (see DESIGN.md → Dependency
# policy), so --offline both works and enforces that nothing sneaks in.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release --offline
cargo test --workspace -q --offline
# The benchmark package (its own workspace under benchmark/) implements
# SparqlEndpoint and builds endpoints through the public API, so a
# federation API change can break it: build and test it here too.
cargo test --manifest-path benchmark/Cargo.toml --offline -q
cargo fmt --all --check

# Chaos group: fault-injection e2e (tests/tests/chaos.rs). The fault
# sequences are drawn from a seeded PRNG; export LUSAIL_CHAOS_SEED to try
# other histories. On failure we print the seed so the run can be replayed.
seed="${LUSAIL_CHAOS_SEED:-42}"
if ! LUSAIL_CHAOS_SEED="$seed" cargo test -p integration --test chaos -q --offline; then
    echo "chaos suite failed with LUSAIL_CHAOS_SEED=$seed -- replay with:" >&2
    echo "    LUSAIL_CHAOS_SEED=$seed cargo test -p integration --test chaos" >&2
    exit 1
fi

# Replica-chaos group: failover and hedging e2e (tests/tests/replica_chaos.rs).
# Covers one member killed mid-wave (dies_after) and one member slow (the
# hedge path), under the same seeded PRNG discipline as the chaos group.
if ! LUSAIL_CHAOS_SEED="$seed" cargo test -p integration --test replica_chaos -q --offline; then
    echo "replica-chaos suite failed with LUSAIL_CHAOS_SEED=$seed -- replay with:" >&2
    echo "    LUSAIL_CHAOS_SEED=$seed cargo test -p integration --test replica_chaos" >&2
    exit 1
fi

# Mem-chaos group: memory-budget e2e (tests/tests/mem_chaos.rs). A
# result-bomb endpoint runs against a small --memory-budget: fail-fast
# must surface BudgetExceeded naming the endpoint, --partial must truncate
# within budget, and the spilling join must match the in-memory join.
if ! LUSAIL_CHAOS_SEED="$seed" cargo test -p integration --test mem_chaos -q --offline; then
    echo "mem-chaos suite failed with LUSAIL_CHAOS_SEED=$seed -- replay with:" >&2
    echo "    LUSAIL_CHAOS_SEED=$seed cargo test -p integration --test mem_chaos" >&2
    exit 1
fi

# Federate group: federation-service e2e (tests/tests/federate.rs).
# Parallel clients against `serve --federate` must match single-shot
# answers, a repeated hot query must reach zero backend endpoints, a
# saturated pool must shed with 503 + Retry-After without exceeding its
# ledger count, quotas must 429 the noisy client, and the seeded chaos
# case (LUSAIL_CHAOS_SEED picks a dead endpoint behind the service) must
# still yield partial results with warnings.
if ! LUSAIL_CHAOS_SEED="$seed" cargo test -p integration --test federate -q --offline; then
    echo "federate suite failed with LUSAIL_CHAOS_SEED=$seed -- replay with:" >&2
    echo "    LUSAIL_CHAOS_SEED=$seed cargo test -p integration --test federate" >&2
    exit 1
fi

# Cancel-chaos group: query-lifecycle e2e (tests/tests/cancel_chaos.rs).
# A client disconnecting mid-query must free its ledger and halt outbound
# requests well before the deadline, a hang-wedged query must be reaped
# by the watchdog with its memory returned, POST /queries/<id>/cancel
# must surface a structured 499 to the caller, and an injected engine
# panic must be contained to its one connection with nothing leaked.
if ! LUSAIL_CHAOS_SEED="$seed" cargo test -p integration --test cancel_chaos -q --offline; then
    echo "cancel-chaos suite failed with LUSAIL_CHAOS_SEED=$seed -- replay with:" >&2
    echo "    LUSAIL_CHAOS_SEED=$seed cargo test -p integration --test cancel_chaos" >&2
    exit 1
fi

# TTFB group: front-door latency gate (tests/tests/ttfb.rs). Sequential
# keep-alive queries with never-seen texts against `lusail serve` and
# `serve --federate` must reach their first response byte within 20ms at
# p99, and answering must not raise the process thread count: disconnect
# detection rides on the query's cancel token, not a thread per request.
if ! cargo test -p integration --test ttfb -q --offline; then
    echo "ttfb gate failed -- replay with:" >&2
    echo "    cargo test -p integration --test ttfb" >&2
    exit 1
fi

# Codec group: binary results interchange e2e (tests/tests/codec.rs). A
# binary-negotiated loopback federation must be byte-identical to a
# JSON-negotiated one on LUBM and QFed, fall back transparently against
# endpoints that only speak SPARQL JSON (fallbacks counted), and stay
# identical under --partial with a seeded chaos endpoint down mid-fleet.
if ! LUSAIL_CHAOS_SEED="$seed" cargo test -p integration --test codec -q --offline; then
    echo "codec suite failed with LUSAIL_CHAOS_SEED=$seed -- replay with:" >&2
    echo "    LUSAIL_CHAOS_SEED=$seed cargo test -p integration --test codec" >&2
    exit 1
fi

# Integrity-chaos group: result-integrity e2e (tests/tests/integrity_chaos.rs).
# A silently-truncating fleet must be recovered byte-identical to the
# all-healthy run on LUBM and QFed, a miscounting endpoint must end up
# quarantined with observed-vs-claimed counts in the warning (--partial)
# or a structured integrity error (fail-fast), recovery must stop under a
# tight memory budget and respect the deadline, and the paged-merge
# property must hold for arbitrary page sizes and row counts.
if ! LUSAIL_CHAOS_SEED="$seed" cargo test -p integration --test integrity_chaos -q --offline; then
    echo "integrity-chaos suite failed with LUSAIL_CHAOS_SEED=$seed -- replay with:" >&2
    echo "    LUSAIL_CHAOS_SEED=$seed cargo test -p integration --test integrity_chaos" >&2
    exit 1
fi
