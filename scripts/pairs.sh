#!/bin/sh
# Alternating parent/change pairs of sysbench workloads: the procedure
# behind every before/after table in EXPERIMENTS.md.
#
#   scripts/pairs.sh PARENT CHANGE WORKLOADS [PAIRS [SEED]]
#
# PARENT and CHANGE are commits; WORKLOADS is one BENCHMARK.json
# workload name, several joined by commas, or `all`. Each commit is
# exported once into its own directory under target/pairs/ (ignored;
# reused by later invocations, a commit's files never change) and
# builds into its own sysbench/target there. A pair is one
# BENCHMARK.json run of each side — its `command`, verbatim, from the
# export's root — and odd pairs run the parent first, even pairs the
# change. With several workloads, pair k of each runs before pair k+1
# of any, so a PR's claimed metric and its must-not-move list see the
# same hour of host noise. Prints one table per workload: per
# end-to-end metric, each side's median and quartiles, the change of
# the median, the parent's inter-quartile distance (the yardstick for
# "moved"), and how many pairs the change won (a tie counts for
# neither). Every run's JSON line is kept in target/pairs/runs-*.jsonl.
#
# The exports are `git archive`s rather than `git worktree`s: the same
# files, and nothing to unregister from .git afterwards. The two
# directories differ in path, which the compiler hashes into symbol
# names, and so the two binaries differ in layout. A commit that has
# the root .cargo/config.toml pins every function to 0 mod 64, so the
# kernel loops sit at the same offset in both; for an older commit,
# compare `nm -C` of `spmv::exec::execute_mapped::{{closure}}` in the
# two binaries before reading a small delta. Cargo also reads a
# .cargo/config.toml in the directories above an export, this checkout
# among them: against a parent without the pin, run the script from a
# checkout of the parent, or the parent builds pinned too.
# Run nothing else meanwhile: the bench pins itself to one CPU.
set -eu

[ $# -ge 3 ] || {
    echo "usage: scripts/pairs.sh PARENT CHANGE WORKLOAD[,WORKLOAD...]|all [PAIRS [SEED]]" >&2
    exit 2
}
ROOT="$(git rev-parse --show-toplevel)"
PARENT="$(git -C "$ROOT" rev-parse --verify "$1^{commit}")"
CHANGE="$(git -C "$ROOT" rev-parse --verify "$2^{commit}")"
PAIRS="${4:-10}"
SEED="${5:-14}"
WORK="$ROOT/target/pairs"
mkdir -p "$WORK"

# The benchmark's own declaration, read from the change (a perf PR
# edits neither it nor sysbench/, so both sides agree).
spec() {
    git -C "$ROOT" show "$CHANGE:BENCHMARK.json" | python3 -c "$1"
}
COMMAND="$(spec 'import json,sys,shlex; print(shlex.join(json.load(sys.stdin)["command"]))')"
SECONDS_PER_RUN="$(spec 'import json,sys; print(json.load(sys.stdin)["run_seconds"])')"
DECLARED="$(spec 'import json,sys; print(" ".join(w["name"] for w in json.load(sys.stdin)["workloads"]))')"
if [ "$3" = all ]; then
    WORKLOADS="$DECLARED"
else
    WORKLOADS="$(echo "$3" | tr ',' ' ')"
fi
for workload in $WORKLOADS; do
    case " $DECLARED " in
    *" $workload "*) ;;
    *)
        echo "pairs: BENCHMARK.json declares no workload '$workload' (it has: $DECLARED)" >&2
        exit 2
        ;;
    esac
done
RUNS="$WORK/runs-$(echo "$WORKLOADS" | tr ' ' '+')-seed$SEED-$(date +%Y%m%dT%H%M%S).jsonl"

export_commit() {
    dir="$WORK/$1"
    if [ ! -d "$dir" ]; then
        mkdir -p "$dir.partial"
        git -C "$ROOT" archive "$1" | tar -x -C "$dir.partial"
        mv "$dir.partial" "$dir"
    fi
    # Build outside the pairs, so that no run waits for a compiler.
    (cd "$dir" && $COMMAND --workload "${WORKLOADS%% *}" --seed "$SEED" --seconds 1 --trace 0 > /dev/null)
}
export_commit "$PARENT"
export_commit "$CHANGE"

run() {
    side="$1"
    commit="$2"
    line="$(cd "$WORK/$commit" && $COMMAND --workload "$workload" --seed "$SEED" \
        --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1)"
    printf '{"workload":"%s","pair":%s,"side":"%s","run":%s}\n' \
        "$workload" "$pair" "$side" "$line" >> "$RUNS"
}

pair=1
while [ "$pair" -le "$PAIRS" ]; do
    for workload in $WORKLOADS; do
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$PARENT"
            run change "$CHANGE"
        else
            run change "$CHANGE"
            run parent "$PARENT"
        fi
    done
    echo "pair $pair of $PAIRS done" >&2
    pair=$((pair + 1))
done

echo "seed $SEED, $PAIRS pairs of ${SECONDS_PER_RUN} s runs per workload"
echo "parent $PARENT"
echo "change $CHANGE"
echo "runs   $RUNS"
git -C "$ROOT" show "$CHANGE:BENCHMARK.json" | python3 -c '
import json, statistics, sys

spec = json.load(sys.stdin)
every_run = [json.loads(line) for line in open(sys.argv[1])]

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3

for workload in sys.argv[2:]:
    runs = [r for r in every_run if r["workload"] == workload]
    failed = sum(1 for r in runs if r["run"]["failed"] or not r["run"]["correct"])
    print(f"\n{workload}: {len(runs)} runs, {failed} with failures or wrong answers")
    print("| metric | parent median (q1–q3) | change median (q1–q3) | Δ median | parent IQR | change wins |")
    print("|---|---|---|---|---|---|")
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        side = {"parent": {}, "change": {}}
        for r in runs:
            side[r["side"]][r["pair"]] = r["run"]["metrics"][name]["value"]
        wins = sum(
            1
            for pair, p in side["parent"].items()
            if (side["change"][pair] < p) == lower and side["change"][pair] != p
        )
        (p1, p2, p3), (c1, c2, c3) = (quartiles(sorted(side[s].values())) for s in ("parent", "change"))
        unit, pairs = metric["unit"], len(side["parent"])
        print(
            f"| `{name}` ({unit}) | {p2:.5g} ({p1:.5g}–{p3:.5g}) | {c2:.5g} ({c1:.5g}–{c3:.5g}) "
            f"| {100 * (c2 - p2) / p2:+.1f} % | {100 * (p3 - p1) / p2:.1f} % | {wins} of {pairs} |"
        )
' "$RUNS" $WORKLOADS
