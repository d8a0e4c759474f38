#!/usr/bin/env bash
# Run the benchmark's two quick forms (untraced and traced) on every
# workload at seed 42. Each must print five `"correct": true` result
# lines, and the metrics that are exact per seed must match
# results/golden/benchmark_quick_seed42.txt, one `workload.metric value`
# line each:
#
# - untraced: the four virt_* metrics;
# - traced: every per-layer count (calls, chunks and engine ops per
#   offload, flops and bytes per op, serve queue and trace-event counts,
#   elided and transferred bytes, the virtual halo share, fault counts).
#
# Wall-clock times and shares, rel_cost and host.* vary from run to run
# and are not compared. This is the CI benchmark check; run it locally
# from anywhere in the repository:
#
#     scripts/check_bench_counts.sh
#
# After a change that is meant to move a count, regenerate the golden
# with `scripts/check_bench_counts.sh --bless` and explain the diff.
set -euo pipefail
cd "$(dirname "$0")/.."

golden=results/golden/benchmark_quick_seed42.txt
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
failed=0

# run NAME ARGS...: a quick run of every workload, printed and kept in
# $out/NAME.txt; the check fails unless all five result lines read
# "correct": true.
run() {
    local name=$1
    shift
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --quick --seed 42 --workload all "$@" | tee "$out/$name.txt"
    local results ok
    results=$(grep -c '^{"correct": ' "$out/$name.txt" || true)
    ok=$(grep -c '^{"correct": true,' "$out/$name.txt" || true)
    echo "$name: result lines: $results, correct: $ok"
    if [ "$results" -ne 5 ] || [ "$ok" -ne 5 ]; then
        failed=1
    fi
}

# metrics NAME PATTERN: the `workload.metric value` pairs of the combined
# result line (the last one) whose metric matches PATTERN.
metrics() {
    tail -n 1 "$out/$1.txt" |
        grep -o '"[^"]*": {"value": [^,}]*' |
        sed 's/^"\([^"]*\)": {"value": /\1 /' |
        grep -E "^[a-z_]+\.($2) " || true
}

run quick
run traced --trace 1

counts='lang\.parse\.calls|core\.compile\.calls|kernels\.exec\.calls'
counts+='|core\.runtime\.chunks_per_offload|sim\.engine\.ops_per_offload'
counts+='|kernels\.exec\.g(flop|byte)_per_op'
counts+='|serve\.queue_[a-z_]+|serve\.trace_events'
counts+='|core\.data_env\.elided_bytes|sim\.transfer\.[a-z0-9_]+'
counts+='|core\.halo\.share|core\.faults\.[a-z0-9_.-]+'
{
    metrics quick 'virt_[a-z0-9_]+'
    metrics traced "$counts"
} >"$out/counts.txt"

if [ "${1:-}" = "--bless" ]; then
    cp "$out/counts.txt" "$golden"
    echo "wrote $golden ($(wc -l <"$golden") lines)"
elif diff "$golden" "$out/counts.txt"; then
    echo "ok    $(wc -l <"$golden") exact counts match $golden"
else
    echo "DIFF  exact counts differ from $golden (< golden, > this run)"
    failed=1
fi

exit "$failed"
