#!/usr/bin/env bash
# Ten-pair alternating A/B of the repo's benchmark: a parent revision against
# the working tree, as EXPERIMENTS.md reports a performance claim.
#
#   scripts/ab.sh <parent-rev> [workload…]       (default: every workload)
#
# The parent is exported with `git archive` into a temporary directory and
# built there, the working tree is built in place (both `--offline`). Then, for
# seeds 1–10 and every workload, both sides run the command BENCHMARK.json
# gives the driver (`run --workload W --seed N --seconds S --trace 0`), the
# parent first on odd seeds and the working tree first on even ones. Every
# result line must say `"correct": true` and `"failed": 0`. The summary is one
# row per workload × end-to-end metric in the EXPERIMENTS.md table format:
# both medians with their quartiles (as Python's statistics.quantiles), the
# change of the median, the pairs the working tree won (ties count for
# neither side), and a verdict from BENCHMARK.json's `better` and `bound`,
# the first of these that holds:
#
#   gain        at least nine tenths of the pairs won, and the medians apart
#               by more than the parent's q1–q3 distance
#   unresolved  the parent's q1–q3 distance wider than the bound, unless
#               every run of the working tree is better, or every one is
#               worse, than every parent run: the parent's runs alone span
#               more than the bound, so a median past it says nothing
#   worse       the median worse than the parent's by more than the bound
#   same        none of these
#
# After the table come the pairs whose two `slowdown` notes (the median of a
# run's per-round slowdowns against the reference) are more than 3× apart
# (`scripts/slowdown_gap.awk`): one side's calibration failed, so that pair's
# reference-speed values compare calibrations, not code. They stay in the
# table and the verdicts. Last, per workload and side, the rounds whose
# slowdown is exactly `1.000`: `Recorder::slowdown`'s fallback for a round
# that ran no reference quantum, whose latencies are reported as measured
# while every other round's are divided by its slowdown. A workload with
# such rounds on either side has a bimodal median; read its rows with that
# in mind.
#
# The exit status is non-zero if any row is `worse`. `SEEDS="1 2"` shortens
# a trial run; a claim wants all ten.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: scripts/ab.sh <parent-rev> [workload…]" >&2
    exit 2
fi
parent_rev=$1
shift
root=$(git rev-parse --show-toplevel)
spec="$root/BENCHMARK.json"
seconds=$(grep -o '"run_seconds": [0-9]*' "$spec" | grep -o '[0-9]*$')
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(grep -o '{"name": "[a-z0-9_]*", "why"' "$spec" | cut -d'"' -f4)
fi
seeds=${SEEDS:-1 2 3 4 5 6 7 8 9 10}

tmp=$(mktemp -d "${TMPDIR:-/tmp}/inverda-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$tmp/parent"

bench() { # bench <tree> <args…>: the driver's command, run inside <tree>
    local tree=$1
    shift
    (cd "$tree" && cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@")
}
for tree in "$tmp/parent" "$root"; do
    echo "building $tree" >&2
    (cd "$tree" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

results="$tmp/results.tsv" # side, workload, seed, metric, value
slowdowns="$tmp/slowdowns.tsv" # side, workload, seed, median per-round slowdown
fallbacks="$tmp/fallbacks.tsv" # side, workload, seed, rounds at exactly 1.000, rounds
: >"$results"
: >"$slowdowns"
: >"$fallbacks"
run_side() { # run_side <side> <tree> <workload> <seed>
    local side=$1 tree=$2 workload=$3 seed=$4 out line slowdown fallback rounds
    out=$(bench "$tree" run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
    # The per-round throughput and slowdown notes, for the record.
    grep '^  note:' <<<"$out" | sed "s/^  note:/$side $workload seed $seed:/" >&2 || true
    # The median per-round slowdown, the rounds at the fallback, the rounds.
    read -r slowdown fallback rounds < <(awk 'match($0, /time x slowdown\) [0-9. ]+/) {
        n = split(substr($0, RSTART + 17, RLENGTH - 17), v, " ")
        for (i = 1; i <= n; i++) f += (v[i] == "1.000")
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        if (n) print v[int((n + 1) / 2)], f + 0, n
        exit
    }' <<<"$out") || true
    if [ -n "$slowdown" ]; then
        printf '%s\t%s\t%s\t%s\n' "$side" "$workload" "$seed" "$slowdown" >>"$slowdowns"
        printf '%s\t%s\t%s\t%s\t%s\n' "$side" "$workload" "$seed" "$fallback" "$rounds" >>"$fallbacks"
    fi
    line=$(tail -n 1 <<<"$out")
    if [[ $line != *'"correct": true'* || $line != *'"failed": 0,'* ]]; then
        echo "$side $workload seed $seed: not a correct run: $line" >&2
        exit 1
    fi
    grep -o '"[a-z0-9_]*": {"value": [^,]*' <<<"$line" |
        sed 's/^"\([a-z0-9_]*\)": {"value": \(.*\)$/\1\t\2/' |
        while IFS=$'\t' read -r metric value; do
            printf '%s\t%s\t%s\t%s\t%s\n' "$side" "$workload" "$seed" "$metric" "$value" >>"$results"
        done
}
for seed in $seeds; do
    for workload in "${workloads[@]}"; do
        echo "seed $seed $workload" >&2
        if [ $((seed % 2)) -eq 1 ]; then
            run_side parent "$tmp/parent" "$workload" "$seed"
            run_side change "$root" "$workload" "$seed"
        else
            run_side change "$root" "$workload" "$seed"
            run_side parent "$tmp/parent" "$workload" "$seed"
        fi
    done
done

# "<metric> <higher|lower> <bound>" lines of the end-to-end metrics, in their
# order.
grep -o '{"name": "[a-z0-9_]*", "unit": "[^"]*", "better": "[a-z]*", "bound": [0-9.]*' "$spec" |
    sed 's/.*"name": "\([a-z0-9_]*\)".*"better": "\([a-z]*\)", "bound": \([0-9.]*\)$/\1 \2 \3/' >"$tmp/metrics"

echo "| workload | metric | parent median (q1–q3) | change median (q1–q3) | change | pairs won | verdict |"
echo "|---|---|---:|---:|---:|---:|---|"
for workload in "${workloads[@]}"; do
    while read -r metric better bound; do
        awk -F'\t' -v w="$workload" -v m="$metric" -v better="$better" -v bound="$bound" '
            function quantile(x, n, k,    pos, lo, frac) { # statistics.quantiles(n=4), exclusive
                pos = (n + 1) * k / 4
                if (pos < 1) pos = 1
                if (pos > n) pos = n
                lo = int(pos); frac = pos - lo
                return lo < n ? x[lo] + frac * (x[lo + 1] - x[lo]) : x[n]
            }
            function sort(x, n,    i, j, v) {
                for (i = 2; i <= n; i++) {
                    v = x[i]
                    for (j = i - 1; j >= 1 && x[j] > v; j--) x[j + 1] = x[j]
                    x[j + 1] = v
                }
            }
            function fmt(v) { return v >= 1000 ? sprintf("%.0f", v) : v >= 100 ? sprintf("%.1f", v) : sprintf("%.3f", v) }
            function cell(x, n) { return fmt(quantile(x, n, 2)) " (" fmt(quantile(x, n, 1)) "–" fmt(quantile(x, n, 3)) ")" }
            $2 == w && $4 == m { by[$1, $3] = $5; seen[$3] = 1 }
            END {
                for (s in seen) {
                    p = by["parent", s]; c = by["change", s]
                    if (p == "" || c == "") continue
                    a[++n] = p + 0; b[n] = c + 0
                    if (better == "higher" ? c + 0 > p + 0 : c + 0 < p + 0) won++
                }
                if (n == 0) exit
                sort(a, n); sort(b, n)
                pm = quantile(a, n, 2); cm = quantile(b, n, 2)
                spread = quantile(a, n, 3) - quantile(a, n, 1)
                # By how much the working tree is better, and whether its
                # worst run still beats the best run of the parent, or its
                # best run still trails the worst one.
                ahead = better == "higher" ? cm - pm : pm - cm
                apart = better == "higher" ? b[1] > a[n] : b[n] < a[1]
                behind = better == "higher" ? b[n] < a[1] : b[1] > a[n]
                if (won * 10 >= n * 9 && ahead > spread) verdict = "gain"
                else if (spread > bound * pm && !apart && !behind) verdict = "unresolved"
                else if (-ahead > bound * pm) verdict = "worse"
                else verdict = "same"
                printf "| `%s` | `%s` | %s | %s | %+.1f %% | %d/%d | %s |\n", w, m, cell(a, n), cell(b, n), (cm - pm) / pm * 100, won, n, verdict
            }' "$results"
    done <"$tmp/metrics"
done | tee "$tmp/table"

gaps=$(awk -F'\t' '
    { v[$1, $2, $3] = $4; pair[$2 " seed " $3] = $2 SUBSEP $3 }
    END {
        for (p in pair) {
            split(pair[p], k, SUBSEP)
            if (("parent", k[1], k[2]) in v && ("change", k[1], k[2]) in v)
                printf "%s\t%s\t%s\n", p, v["parent", k[1], k[2]], v["change", k[1], k[2]]
        }
    }' "$slowdowns" | sort | awk -f "$root/scripts/slowdown_gap.awk")
if [ -n "$gaps" ]; then
    echo
    echo "Pairs whose slowdown notes are more than 3× apart (a failed calibration: their reference-speed values compare calibrations, not code; kept in the table):"
    sed 's/^/- /' <<<"$gaps"
fi
echo
echo "Rounds whose slowdown is exactly 1.000 (\`Recorder::slowdown\`'s fallback for a round with no reference quantum, reported unscaled):"
for workload in "${workloads[@]}"; do
    awk -F'\t' -v w="$workload" '
        $2 == w { f[$1] += $4; n[$1] += $5 }
        END { printf "- `%s`: parent %d of %d rounds, change %d of %d\n", w, f["parent"], n["parent"], f["change"], n["change"] }
    ' "$fallbacks"
done
! grep -q '| worse |$' "$tmp/table"
