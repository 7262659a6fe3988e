#!/usr/bin/env bash
# Before/after of one traced benchmark round: a parent revision against the
# working tree, as EXPERIMENTS.md shows where a performance claim's saving
# sits.
#
#   scripts/trace_diff.sh <parent-rev> <workload>
#
# The parent is exported with `git archive` into a temporary directory and
# built there, the working tree is built in place (both `--offline`), as
# `scripts/ab.sh` does. Both sides then run `benchmark -- trace <workload>`
# (seed `SEED`, default 1) once. Printed, as Markdown tables:
#
#   1. every metric the traced round reports — the end-to-end ones and the
#      workload's per-layer ones, at reference speed — as
#      `name | parent | change | Δ%`;
#   2. every span name in the two trace files with its count and the p50 of
#      its duration in µs *as measured* (divide by the `harness.slowdown` row
#      of table 1 to compare across sides on a noisy box).
#
# One traced round is short and carries the box's noise: the tables say where
# time went, `scripts/ab.sh` says whether a metric moved. A `WARNING:` line
# above the tables says that the two sides' `harness.slowdown` are more than
# 3× apart (`scripts/slowdown_gap.awk`): one side's calibration failed, and
# every reference-speed row compares calibrations, not code. A line above
# the tables counts, per side, the traced rounds whose slowdown is exactly
# `1.000`: `Recorder::slowdown`'s fallback for a round that ran no reference
# quantum, whose values are reported as measured, not at reference speed.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: scripts/trace_diff.sh <parent-rev> <workload>" >&2
    exit 2
fi
parent_rev=$1
workload=$2
seed=${SEED:-1}
root=$(git rev-parse --show-toplevel)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/inverda-trace-diff.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$tmp/parent"

for side in parent change; do
    tree=$root
    [ "$side" = parent ] && tree=$tmp/parent
    echo "building and tracing $tree" >&2
    (
        cd "$tree"
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            trace "$workload" --seed "$seed"
    ) >"$tmp/$side.out"
    cp "$tree/benchmark/out/trace-$workload.jsonl" "$tmp/$side.jsonl"
    # "  <name> <value> <unit> …" lines of the report → name, value, unit.
    awk '$1 ~ /^[a-z0-9_.]+$/ && $2 ~ /^-?[0-9.]+$/ { print $1 "\t" $2 "\t" $3 }' \
        "$tmp/$side.out" >"$tmp/$side.metrics"
    # One span per line after the summary → name, duration in µs.
    tail -n +2 "$tmp/$side.jsonl" |
        sed 's/.*"name":"\([^"]*\)","start_ns":\([0-9]*\),"end_ns":\([0-9]*\).*/\1\t\2\t\3/' |
        awk -F'\t' '{ printf "%s\t%.3f\n", $1, ($3 - $2) / 1000 }' >"$tmp/$side.spans"
done

gap=$(awk -F'\t' '
    NR == FNR { if ($1 == "harness.slowdown") parent = $2; next }
    $1 == "harness.slowdown" { printf "harness.slowdown\t%s\t%s\n", parent, $2 }
' "$tmp/parent.metrics" "$tmp/change.metrics" | awk -f "$root/scripts/slowdown_gap.awk")
if [ -n "$gap" ]; then
    echo "WARNING: $gap; the reference-speed rows below compare calibrations, not code"
    echo
fi
fallback() { # fallback <trace file>: "<rounds at exactly 1.0> of <rounds>"
    head -n 1 "$1" | sed 's/.*"slowdown_outside_window_then_by_round":\[\([^]]*\)\].*/\1/' |
        awk -F', ' '{ for (i = 2; i <= NF; i++) f += ($i == "1.0"); printf "%d of %d", f, NF - 1 }'
}
echo "Rounds whose slowdown is exactly 1.000 (\`Recorder::slowdown\`'s fallback for a round with no reference quantum, reported unscaled): parent $(fallback "$tmp/parent.jsonl"), change $(fallback "$tmp/change.jsonl")"
echo

fmt='function fmt(v) { return v >= 1000 ? sprintf("%.0f", v) : v >= 100 ? sprintf("%.1f", v) : sprintf("%.4f", v) }
     function delta(p, c) { return p == 0 ? "n/a" : sprintf("%+.1f %%", (c - p) / p * 100) }'

echo "| metric (\`trace $workload\`, seed $seed) | unit | parent | change | Δ% |"
echo "|---|---|---:|---:|---:|"
awk -F'\t' "$fmt"'
    NR == FNR { parent[$1] = $2; next }
    $1 in parent { printf "| `%s` | %s | %s | %s | %s |\n", $1, $3, fmt(parent[$1]), fmt($2), delta(parent[$1], $2) }
' "$tmp/parent.metrics" "$tmp/change.metrics"

echo
echo "| span | parent n | parent p50 µs | change n | change p50 µs | Δ% |"
echo "|---|---:|---:|---:|---:|---:|"
p50() { # p50 <spans file>: name, count, median duration
    sort -t$'\t' -k1,1 -k2,2n "$1" | awk -F'\t' '
        function flush() { if (n) printf "%s\t%d\t%.3f\n", name, n, (d[int((n + 1) / 2)] + d[int(n / 2) + 1]) / 2 }
        $1 != name { flush(); name = $1; n = 0 }
        { d[++n] = $2 }
        END { flush() }'
}
p50 "$tmp/parent.spans" >"$tmp/parent.p50"
p50 "$tmp/change.spans" >"$tmp/change.p50"
awk -F'\t' "$fmt"'
    NR == FNR { n[$1] = $2; parent[$1] = $3; next }
    $1 in parent { printf "| `%s` | %d | %s | %d | %s | %s |\n", $1, n[$1], fmt(parent[$1]), $2, fmt($3), delta(parent[$1], $3) }
' "$tmp/parent.p50" "$tmp/change.p50"
