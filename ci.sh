#!/bin/sh
# The repo's CI gate, runnable locally. Order matters: the cheap
# style/lint checks on the serving layer run after the functional gate
# so a broken build is reported first.
set -eux

# Tier-1 gate: the umbrella crate must build in release and every test
# in the workspace must pass.
cargo build --release
cargo test -q --workspace

# System-benchmark gate: sysbench's own tests and its smoke run check
# every kernel answer against a naive-CSR oracle and the tier's
# queue_depth/underflow gauges, so a kernel change that breaks answers
# fails here rather than in a benchmark run. (A package of its own;
# builds into sysbench/target.)
cargo test --release --offline --manifest-path sysbench/Cargo.toml
cargo run --release --offline --manifest-path sysbench/Cargo.toml -- --smoke

# Workspace hygiene: every crate stays warning-free and canonically
# formatted, and the rendered docs build without warnings.
cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Executor smoke: the scoped-spawn vs persistent-team comparison bench
# must run end to end (single iteration; no timings recorded).
cargo bench -p bench --bench team_overhead -- --test

# Reordering-pipeline smoke: the sequential vs team-parallel stage
# scaling bench must run end to end (it also asserts parallel RCM is
# byte-identical to sequential before timing anything).
cargo bench -p bench --bench reorder_scaling -- --test

# Serving-tier saturation bench smoke: the cached answer path and the
# offered-load sweep harness must run end to end (no JSON written).
cargo bench -p bench --bench serve_saturation -- --test

# Flight-recorder smoke: a traced serve replay must dump Chrome-trace
# files that pass the validator (parse, balanced B/E pairs, every
# serving + pipeline stage covered, >= 2 per-worker timeline lanes).
TRACE_DIR="$(mktemp -d)"
./target/release/serve --size small --requests 400 --clients 2 \
    --trace-dir "$TRACE_DIR" --trace-sample-rate 0.05 --seed 7 > /dev/null
./target/release/tracecheck "$TRACE_DIR"
rm -rf "$TRACE_DIR"

# Incremental-reordering bench smoke: splice-after-delta must be
# byte-identical to a full recompute on both multi-component families
# before any timing (asserted inside the bench).
cargo bench -p bench --bench delta_reorder -- --test

# Dynamic-matrix smoke: a traced replay with an open-loop mutator must
# serve verified answers for delta descendants, and the dumped traces
# must show the engine actually splicing cached orderings
# (reorder.splice) rather than recomputing from scratch, plus the AMD
# round-phase sub-stages (reorder.amd.update) on fresh AMD computes.
MUTATE_TRACE_DIR="$(mktemp -d)"
./target/release/serve --size small --requests 400 --clients 2 \
    --shards 2 --mutate-rate 20 --mutate-edges 6 \
    --trace-dir "$MUTATE_TRACE_DIR" --trace-sample-rate 1.0 --seed 7 > /dev/null
./target/release/tracecheck "$MUTATE_TRACE_DIR" --require reorder.splice \
    --require reorder.amd.update
rm -rf "$MUTATE_TRACE_DIR"

# Serving-tier overload smoke: an open-loop run over four shards with a
# tight queue and deadlines must deliver verified answers, shed the
# overflow with a reason, and leave every queue-depth gauge at zero.
./target/release/serve --size small --requests 600 --clients 4 \
    --shards 4 --tenants 2 --offered-load 400 --deadline-ms 200 \
    --queue-capacity 32 --seed 7 > /dev/null

# Adaptive-policy smoke: a closed-loop replay under --policy adaptive
# must deliver verified answers end to end (policy.decide runs on
# every request; the tracecheck gate above already requires the stage
# on sampled traces).
./target/release/serve --size small --requests 400 --clients 2 \
    --policy adaptive --seed 7 > /dev/null

# Policy serving-contract bench smoke: harness must run end to end
# (no replay sweep, no JSON written).
cargo bench -p bench --bench policy_serve -- --test

# Break-even frontier smoke: measure + policy replay on a tiny rep
# axis (no artifacts written, agreement gate not enforced).
./target/release/frontier --size small --test > /dev/null

# Ops-plane smoke: a listening serve must expose live metrics, health,
# and SLO accounting over HTTP while the replay runs. The linger keeps
# the server up after the replay so the curls race nothing.
OPS_ADDR="127.0.0.1:17117"
OPS_METRICS="$(mktemp)"
trap 'rm -f "$OPS_METRICS"' EXIT
./target/release/serve --size small --requests 300 --clients 2 \
    --offered-load 150 --listen "$OPS_ADDR" --listen-linger-ms 12000 \
    --seed 7 > /dev/null &
SERVE_PID=$!
for _ in $(seq 1 50); do
    if curl -sf "http://$OPS_ADDR/healthz" > /dev/null 2>&1; then break; fi
    sleep 0.2
done
curl -sf "http://$OPS_ADDR/healthz" | grep -q '"status":"ok"'
curl -sf "http://$OPS_ADDR/readyz" > /dev/null
curl -sf "http://$OPS_ADDR/metrics" > "$OPS_METRICS"
grep -q '^tier_admitted' "$OPS_METRICS"
grep -q '^slo_budget_remaining' "$OPS_METRICS"
curl -sf "http://$OPS_ADDR/slo.json" | grep -q '"tenants"'
curl -sf "http://$OPS_ADDR/profile?seconds=0.3" | grep -q '# samples'
wait "$SERVE_PID"

# The line-count trend, in every CI log: all checked-in Rust under
# crates/.
git ls-files crates | grep '\.rs$' | xargs wc -l | tail -1

echo "ci: all gates passed"
