#!/usr/bin/env bash
# Diff every golden in results/golden/ against a fresh run of its bench
# binary, at HOMP_BENCH_JOBS=1 and 4, and require each binary's stdout at
# 4 jobs to equal its stdout at 1. The figure binaries run at seed 42;
# the two ablations take no --seed and run at homp_bench::SEED. This is
# the CI determinism check; run it locally from anywhere in the
# repository:
#
#     scripts/check_goldens.sh
#
# Exits non-zero if any artifact differs, after printing the first lines
# of each diff.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --quiet -p homp-bench
bin="${CARGO_TARGET_DIR:-target}/release"
golden=results/golden
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
failed=0

# check NAME ACTUAL GOLDEN
check() {
    if cmp -s "$2" "$3"; then
        printf 'ok    %-20s jobs=%s\n' "$1" "$jobs"
    else
        printf 'DIFF  %-20s jobs=%s\n' "$1" "$jobs"
        diff "$2" "$3" | head -n 20 || true
        failed=1
    fi
}

for jobs in 1 4; do
    export HOMP_BENCH_JOBS=$jobs
    "$bin/report" --json --seed 42 >"$out/report.json" 2>/dev/null
    check report "$out/report.json" "$golden/report_full_node_seed42.json"
    "$bin/data_region" --seed 42 >"$out/data_region.json" 2>/dev/null
    check data_region "$out/data_region.json" "$golden/data_region_seed42.json"
    "$bin/pipeline" --seed 42 >"$out/pipeline.json" 2>/dev/null
    check pipeline "$out/pipeline.json" "$golden/pipeline_seed42.json"
    "$bin/fig5" --seed 42 >"$out/fig5.$jobs.txt" 2>/dev/null
    check fig5 results/fig5.csv "$golden/fig5_seed42.csv"
    "$bin/fig9" --seed 42 >"$out/fig9.$jobs.txt" 2>/dev/null
    check fig9 results/fig9.csv "$golden/fig9_seed42.csv"
    check fig9_cutoff results/fig9_cutoff.csv "$golden/fig9_cutoff_seed42.csv"
    "$bin/serve_traffic" --seed 42 >"$out/serve_traffic.$jobs.txt" 2>/dev/null
    check serve_traffic results/serve_traffic.json "$golden/serve_traffic_seed42.json"
    "$bin/chaos_soak" --seed 42 >"$out/chaos_soak.$jobs.txt" 2>/dev/null
    check chaos_soak results/chaos_soak.json "$golden/chaos_soak_seed42.json"
    for name in ablation_constants ablation_overlap; do
        "$bin/$name" >"$out/$name.$jobs.txt" 2>/dev/null
        check "$name" "results/$name.csv" "$golden/${name}_seed20170529.csv"
    done
done

# The other binaries' stdout is the artifact checked above.
jobs="4 vs 1"
for name in fig5 fig9 serve_traffic chaos_soak ablation_constants ablation_overlap; do
    check "$name stdout" "$out/$name.4.txt" "$out/$name.1.txt"
done

exit "$failed"
