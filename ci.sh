#!/bin/sh
# The repo's CI gate, runnable locally. Order matters: the cheap
# style/lint checks on the serving layer run after the functional gate
# so a broken build is reported first.
set -eux

# Everything the script leaves behind goes through one EXIT trap, so a
# gate that fails half-way leaks neither temp files nor the background
# `serve --listen` (which would hold its port for the rest of its
# linger and make an immediate re-run fail at bind).
TMP=""
SERVE_PID=""
cleanup() {
    [ -z "$SERVE_PID" ] || kill "$SERVE_PID" 2> /dev/null || true
    [ -z "$TMP" ] || rm -rf "$TMP"
}
trap cleanup EXIT
TMP="$(mktemp -d)"

# Tier-1 gate: the workspace must build in release (the smokes below
# run its binaries) and every test in it must pass.
cargo build --release --workspace
cargo test -q --workspace

# The four examples run to completion in release, not only compile:
# each drives the public API end to end (partition_playground the
# partitioners' entry points), and mesh_solver's Cholesky factorisation
# fails unless the AMD-ordered mesh is still SPD.
for example in quickstart mesh_solver partition_playground reorder_explorer; do
    cargo run --release --example "$example" > /dev/null
done

# Placement pin: .cargo/config.toml starts every function at 0 mod 64,
# so a benchmark pairing compares code, not where the linker put the
# kernel loop. Every SpMV span-executor closure in the served binary
# must sit there; this fails if the flag is dropped, or if an
# environment RUSTFLAGS replaces it. The row loops — the mixed one and
# each run length's — are `#[inline(always)]` into the closure, so this
# pins them too.
CLOSURES="$(nm -C target/release/serve | grep -E ' spmv::exec::execute_mapped::\{\{closure\}\}$')"
[ -n "$CLOSURES" ]
if echo "$CLOSURES" | grep -vE '^[0-9a-f]*[048c]0 '; then
    echo "ci: an execute_mapped closure is not at 0 mod 64 — is .cargo/config.toml's rustflags in effect?" >&2
    exit 1
fi

# Paper drift gate: results/*_small.txt are what `paper` prints at this
# commit, whichever executor computes the orderings. The second run
# computes and applies every ordering the sweep (fig2/3/5, table3/4),
# fig1, fig4 and fig6 simulate on a two-lane team; table5 and the
# frontier time theirs on one lane either way. A deliberate change to
# a table is accepted by committing the diff; there is no update
# switch. Each run also measures the break-even frontier
# (gitignored, like table5) and fails if the replayed adaptive policy
# agrees with it on fewer than 80 % of cells.
for threads in 1 2; do
    ./target/release/paper --size small --reorder-threads "$threads"
    [ -z "$(git status --porcelain -- results)" ] || {
        git diff --stat -- results
        echo "ci: results/ drifted at --reorder-threads $threads" >&2
        exit 1
    }
done

# System-benchmark gate: sysbench's own tests and its smoke run check
# every kernel answer against a naive-CSR oracle and the tier's
# queue_depth/underflow gauges, so a kernel change that breaks answers
# fails here rather than in a benchmark run. (A package of its own;
# builds into sysbench/target.) The benchmark is a fixed instrument,
# and cargo quietly re-resolves its lock file when a crate in its
# closure gains or loses a dependency (--locked does not object), so
# the file is compared across the two steps.
cp sysbench/Cargo.lock "$TMP/Cargo.lock"
cargo test --release --offline --manifest-path sysbench/Cargo.toml
cargo run --release --offline --manifest-path sysbench/Cargo.toml -- --smoke
cmp "$TMP/Cargo.lock" sysbench/Cargo.lock || {
    echo "ci: a dependency edit would rewrite the benchmark's lock file — that belongs in a [benchmark] PR" >&2
    exit 1
}

# The pinned allocation counts of a cold RCM (constant in the depth of
# its level structures), AMD (the same on a path and a mesh), GP(2),
# HP(2) and ND, and RCM's, AMD's and the delta splice's flat count
# from ten components to a hundred, must hold in the profile that is
# served, beside the reorder crate's unit tests (the splice's decline
# rules, its seeded delta chains against full recomputes); the
# workspace run above checked the debug build. So must the golden and
# cross-executor ordering bytes: the parallel AMD path writes through
# its unsafe SliceWriter, and an overlap that debug codegen hides
# would show here first. The partitioner's own tests run here too: the
# oracle tests (the greedy cover against its quadratic loop, the packed
# gain heap against a tuple heap) run ten times the cases in release.
# So do sparsemat's: its property tests (the permutations against a COO
# rebuild on every executor, the delta merge against a rebuilt matrix)
# run at their release case counts. And the tier's: a warm request's
# one allocation and a rebuild's byte budget are pinned in the profile
# that serves, where the answer pool hands each `y` back. And the
# engine's: a miss's deadline, panic and splice paths, and the blocks a
# cold miss allocates beyond its ordering, in the profile that serves.
cargo test --release -p reorder
cargo test --release --test golden_orderings --test reorder_determinism
cargo test --release -p partition
cargo test --release -p sparsemat
cargo test --release -p servetier
cargo test --release -p engine

# Safe by construction (ROADMAP item 9): only AMD's scattered writes need SliceWriter.
if git ls-files crates | grep '\.rs$' | grep -vx crates/reorder/src/amd.rs |
    xargs grep -nwE 'SliceWriter|slice_mut'; then
    echo "ci: SliceWriter/slice_mut outside crates/reorder/src/amd.rs" >&2
    exit 1
fi
if grep -rn 'pub unsafe fn' crates/team/src; then
    echo "ci: crates/team/src exports an unsafe fn" >&2
    exit 1
fi

# Workspace hygiene: every crate stays warning-free and canonically
# formatted, and the rendered docs build without warnings.
cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Flight-recorder smoke: a traced serve replay must dump Chrome-trace
# files that pass the validator — the rules telemetry::stages declares
# (experiments::tracecheck): declared names, balanced B/E pairs,
# declared nesting, every first-touch stage in some file, and each
# file one request as the tier recorded it.
TRACE_DIR="$TMP/trace"
./target/release/serve --size small --requests 400 --clients 2 \
    --trace-dir "$TRACE_DIR" --trace-sample-rate 0.05 --seed 7 > /dev/null
./target/release/tracecheck "$TRACE_DIR"

# Dynamic-matrix smoke: a traced replay with an open-loop mutator must
# serve verified answers for delta descendants, and the dumped traces
# must show the engine actually splicing cached orderings rather than
# recomputing from scratch, plus AMD's round phases on fresh AMD
# computes (the two --require stages).
MUTATE_TRACE_DIR="$TMP/mutate-trace"
./target/release/serve --size small --requests 400 --clients 2 \
    --shards 2 --mutate-rate 20 --mutate-edges 6 \
    --trace-dir "$MUTATE_TRACE_DIR" --trace-sample-rate 1.0 --seed 7 > /dev/null
./target/release/tracecheck "$MUTATE_TRACE_DIR" --require reorder.splice \
    --require reorder.amd.update

# Serving-tier overload smoke: an open-loop run over four shards with a
# tight queue and deadlines must deliver verified answers, shed the
# overflow with a reason, and leave every queue-depth gauge at zero.
./target/release/serve --size small --requests 600 --clients 4 \
    --shards 4 --tenants 2 --offered-load 400 --deadline-ms 200 \
    --queue-capacity 32 --seed 7 > /dev/null

# Adaptive-policy smoke: a closed-loop replay under --policy adaptive
# must deliver verified answers end to end (the policy decides every
# request; the tracecheck gate above already requires its stage on
# sampled traces).
./target/release/serve --size small --requests 400 --clients 2 \
    --policy adaptive --seed 7 > /dev/null

# Ops-plane smoke: a listening serve must expose live metrics, health,
# and SLO accounting over HTTP while the replay runs. The linger keeps
# the server up after the replay so the curls race nothing — except the
# profile, which wants the replay (2 s at this rate) still running and
# so goes first.
OPS_ADDR="127.0.0.1:17117"
OPS_METRICS="$TMP/metrics"
./target/release/serve --size small --requests 300 --clients 2 \
    --offered-load 150 --listen "$OPS_ADDR" --listen-linger-ms 12000 \
    --seed 7 > /dev/null &
SERVE_PID=$!
for _ in $(seq 1 50); do
    if curl -sf "http://$OPS_ADDR/healthz" > /dev/null 2>&1; then break; fi
    sleep 0.2
done
# While requests flow the dispatcher re-enters tier.dispatch.wait or
# tier.execute for each one, so a profile without its stack means the
# stage board is not reaching the HTTP plane ('# samples' alone is
# printed by an empty profile too).
curl -sf "http://$OPS_ADDR/profile?seconds=0.3" > "$TMP/profile"
grep -q '# samples' "$TMP/profile"
grep -q '^tier-shard0-d0;tier\.' "$TMP/profile"
curl -sf "http://$OPS_ADDR/healthz" | grep -q '"status":"ok"'
curl -sf "http://$OPS_ADDR/readyz" > /dev/null
curl -sf "http://$OPS_ADDR/metrics" > "$OPS_METRICS"
grep -q '^tier_admitted' "$OPS_METRICS"
grep -q '^slo_budget_remaining' "$OPS_METRICS"
curl -sf "http://$OPS_ADDR/slo.json" | grep -q '"tenants"'
wait "$SERVE_PID"
SERVE_PID=""

# Document gate: every fact has one home, and the homes stay readable.
# EXPERIMENTS.md holds the current numbers and DESIGN.md the current
# design, each in at most 1 000 lines (the per-change run logs live in
# results/runs/); every `DESIGN §N` reference names a `## N.` heading,
# every `EXPERIMENTS.md, "Title"` reference a `## Title…` heading, and
# every run log EXPERIMENTS.md names exists.
DOC_SOURCES="$(git ls-files crates README.md EXPERIMENTS.md DESIGN.md results/README.md .claude/skills)"
for doc in EXPERIMENTS.md DESIGN.md; do
    [ "$(wc -l < "$doc")" -le 1000 ] || {
        echo "ci: $doc is $(wc -l < "$doc") lines, over 1 000" >&2
        exit 1
    }
done
for section in $(echo "$DOC_SOURCES" | xargs grep -hoE 'DESIGN(\.md)? §[0-9]+' | sed 's/.*§//' | sort -un); do
    grep -q "^## $section\. " DESIGN.md || {
        echo "ci: a reference names DESIGN.md §$section, which has no heading" >&2
        exit 1
    }
done
echo "$DOC_SOURCES" | xargs cat | tr '\n' ' ' | sed 's#//[/!]*##g' | tr -s ' ' |
    grep -oE 'EXPERIMENTS(\.md)?, "[^"]+"' | sed 's/^[^"]*"//; s/"$//' | sort -u |
    while IFS= read -r title; do
        awk -v h="## $title" 'index($0, h) == 1 { found = 1 } END { exit !found }' EXPERIMENTS.md || {
            echo "ci: a reference names EXPERIMENTS.md, \"$title\", which has no heading" >&2
            exit 1
        }
    done
for log in $(grep -oE 'results/runs/PR-[0-9]+\.md' EXPERIMENTS.md | sort -u); do
    [ -f "$log" ] || {
        echo "ci: EXPERIMENTS.md names $log, which does not exist" >&2
        exit 1
    }
done

# The line-count trend, in every CI log: all checked-in Rust under
# crates/ and shims/. And the `unsafe` trend beside it: lines under
# crates/ (tests included) that open an unsafe block, fn or impl,
# comment lines excluded — AMD's SliceWriter (and its two should_panic
# bounds tests), spmv's SendPtr, team's job slot, and the one test
# allocator every allocation pin installs (crates/alloccount). And the standing audit's count (ROADMAP item
# 6): public items nothing outside their own file names. Numbers to
# watch, not gates.
git ls-files crates shims | grep '\.rs$' | xargs wc -l | tail -1
echo "$(git ls-files crates | grep '\.rs$' | xargs grep -hE '\bunsafe\b' | grep -vcE '^\s*//') unsafe sites under crates/"
scripts/audit.sh | tail -1

echo "ci: all gates passed"
