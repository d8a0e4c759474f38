#!/usr/bin/env bash
# Run the benchmark at seed 42 and diff the metrics that are exact per
# seed against two goldens, one `workload.metric value` line each:
#
# - results/golden/benchmark_quick_seed42.txt: the two quick forms
#   (untraced and traced) of every workload. Untraced gives the four
#   virt_* metrics; traced gives every per-layer count (calls, chunks
#   and engine ops per offload, flops and bytes per op, serve queue and
#   trace-event counts, elided and transferred bytes, the virtual halo
#   share, fault counts).
# - results/golden/benchmark_jacobi_full_seed42.txt: full-size
#   jacobi_solve (512x512 on the full node), untraced and traced, with
#   `--seconds 1` so each run takes its 40-block minimum. The quick
#   64x64 solve puts every row on the host socket, so only this size
#   shows device residency and halo pricing: the four virt_* metrics,
#   engine ops per offload, elided and transferred bytes and the halo
#   share.
#
# Every run must print `"correct": true` on each of its result lines
# (five for the quick forms, one for a single workload). Wall-clock
# times and shares, rel_cost and host.* vary from run to run and are not
# compared. This is the CI benchmark check; run it locally from anywhere
# in the repository (about a minute on a 2-vCPU host):
#
#     scripts/check_bench_counts.sh
#
# After a change that is meant to move a count, regenerate both goldens
# with `scripts/check_bench_counts.sh --bless` and explain the diff.
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
failed=0
bless=0
if [ "${1:-}" = "--bless" ]; then
    bless=1
fi

# run NAME LINES ARGS...: a seed-42 run, printed and kept in
# $out/NAME.txt; the check fails unless it prints LINES result lines,
# each reading "correct": true.
run() {
    local name=$1 lines=$2
    shift 2
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --seed 42 "$@" | tee "$out/$name.txt"
    local results ok
    results=$(grep -c '^{"correct": ' "$out/$name.txt" || true)
    ok=$(grep -c '^{"correct": true,' "$out/$name.txt" || true)
    echo "$name: result lines: $results, correct: $ok"
    if [ "$results" -ne "$lines" ] || [ "$ok" -ne "$lines" ]; then
        failed=1
    fi
}

# metrics NAME PREFIX PATTERN: the `workload.metric value` pairs of the
# last result line whose metric matches PATTERN. PREFIX names the
# workload of a single-workload run, whose metrics carry none.
metrics() {
    tail -n 1 "$out/$1.txt" |
        grep -o '"[^"]*": {"value": [^,}]*' |
        sed "s/^\"\([^\"]*\)\": {\"value\": /$2\1 /" |
        grep -E "^[a-z_]+\.($3) " || true
}

run quick 5 --quick --workload all
run traced 5 --quick --workload all --trace 1
run jacobi 1 --workload jacobi_solve --seconds 1
run jacobi_traced 1 --workload jacobi_solve --seconds 1 --trace 1

counts='lang\.parse\.calls|core\.compile\.calls|kernels\.exec\.calls'
counts+='|core\.runtime\.chunks_per_offload|sim\.engine\.ops_per_offload'
counts+='|kernels\.exec\.g(flop|byte)_per_op'
counts+='|serve\.queue_[a-z_]+|serve\.trace_events'
counts+='|core\.data_env\.elided_bytes|sim\.transfer\.[a-z0-9_]+'
counts+='|core\.halo\.share|core\.faults\.[a-z0-9_.-]+'
{
    metrics quick '' 'virt_[a-z0-9_]+'
    metrics traced '' "$counts"
} >"$out/quick_counts.txt"
residency='sim\.engine\.ops_per_offload|core\.data_env\.elided_bytes'
residency+='|sim\.transfer\.(h2d|d2h)_bytes|core\.halo\.share'
{
    metrics jacobi jacobi_solve. 'virt_[a-z0-9_]+'
    metrics jacobi_traced jacobi_solve. "$residency"
} >"$out/jacobi_counts.txt"

# check GOLDEN FRESH: bless or diff one golden.
check() {
    local golden=$1 fresh=$2
    if [ "$bless" = 1 ]; then
        cp "$fresh" "$golden"
        echo "wrote $golden ($(wc -l <"$golden") lines)"
    elif diff "$golden" "$fresh"; then
        echo "ok    $(wc -l <"$golden") exact counts match $golden"
    else
        echo "DIFF  exact counts differ from $golden (< golden, > this run)"
        failed=1
    fi
}

check results/golden/benchmark_quick_seed42.txt "$out/quick_counts.txt"
check results/golden/benchmark_jacobi_full_seed42.txt "$out/jacobi_counts.txt"

exit "$failed"
