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
#
# After a change that is meant to move an artifact, regenerate the
# goldens with `scripts/check_goldens.sh --bless` and explain the diff.
# It runs the same binaries, requires every artifact and stdout at 4 jobs
# to equal the run at 1, and only then copies each fresh artifact over
# its golden.
set -euo pipefail
cd "$(dirname "$0")/.."

bless=0
if [ "${1:-}" = "--bless" ]; then
    bless=1
fi

cargo build --release --quiet -p homp-bench
bin="${CARGO_TARGET_DIR:-target}/release"
golden=results/golden
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
failed=0

# check NAME ACTUAL EXPECTED
check() {
    if cmp -s "$2" "$3"; then
        printf 'ok    %-20s jobs=%s\n' "$1" "$jobs"
    else
        printf 'DIFF  %-20s jobs=%s\n' "$1" "$jobs"
        diff "$2" "$3" | head -n 20 || true
        failed=1
    fi
}

# Each artifact NAME of the run at $jobs jobs is kept as $out/NAME.$jobs,
# and the stdout of a binary that writes it under results/ as
# $out/NAME.$jobs.txt.
for jobs in 1 4; do
    export HOMP_BENCH_JOBS=$jobs
    "$bin/report" --json --seed 42 >"$out/report.$jobs" 2>/dev/null
    "$bin/data_region" --seed 42 >"$out/data_region.$jobs" 2>/dev/null
    "$bin/pipeline" --seed 42 >"$out/pipeline.$jobs" 2>/dev/null
    for name in fig5 fig9 serve_traffic chaos_soak; do
        "$bin/$name" --seed 42 >"$out/$name.$jobs.txt" 2>/dev/null
    done
    for name in ablation_constants ablation_overlap; do
        "$bin/$name" >"$out/$name.$jobs.txt" 2>/dev/null
    done
    for file in fig5.csv fig9.csv fig9_cutoff.csv serve_traffic.json chaos_soak.json \
        ablation_constants.csv ablation_overlap.csv; do
        cp "results/$file" "$out/${file%.*}.$jobs"
    done
done

# NAME:GOLDEN for every artifact.
artifacts=(
    report:report_full_node_seed42.json
    data_region:data_region_seed42.json
    pipeline:pipeline_seed42.json
    fig5:fig5_seed42.csv
    fig9:fig9_seed42.csv
    fig9_cutoff:fig9_cutoff_seed42.csv
    serve_traffic:serve_traffic_seed42.json
    chaos_soak:chaos_soak_seed42.json
    ablation_constants:ablation_constants_seed20170529.csv
    ablation_overlap:ablation_overlap_seed20170529.csv
)
if [ "$bless" = 1 ]; then
    jobs="4 vs 1"
    for pair in "${artifacts[@]}"; do
        check "${pair%%:*}" "$out/${pair%%:*}.4" "$out/${pair%%:*}.1"
    done
else
    for jobs in 1 4; do
        for pair in "${artifacts[@]}"; do
            check "${pair%%:*}" "$out/${pair%%:*}.$jobs" "$golden/${pair#*:}"
        done
    done
fi

# The other binaries' stdout is the artifact checked above.
jobs="4 vs 1"
for name in fig5 fig9 serve_traffic chaos_soak ablation_constants ablation_overlap; do
    check "$name stdout" "$out/$name.4.txt" "$out/$name.1.txt"
done

if [ "$bless" = 1 ] && [ "$failed" = 0 ]; then
    for pair in "${artifacts[@]}"; do
        cp "$out/${pair%%:*}.1" "$golden/${pair#*:}"
    done
    echo "wrote ${#artifacts[@]} goldens in $golden"
fi

exit "$failed"
