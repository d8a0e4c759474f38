#!/usr/bin/env bash
# Engine throughput gate: is this checkout's engine_torture slower than
# a base commit's, measured on this machine?
#
#   scripts/check_engine_perf.sh [BASE_REF]      (default HEAD~1)
#
# Builds engine_torture from the working tree and from BASE_REF (checked
# out in a temporary git worktree with its own target directory), then
# runs `--quick` PAIRS times per side, alternating which side runs first.
# The headline is the quick chunked_dynamic events/sec. The gate fails
# when the change loses at least LOSSES_TO_FAIL of the pairs *and* its
# median headline is more than MAX_DROP below the base's median. Both
# sides run on the same host, so a slow host moves both.
set -euo pipefail

cd "$(dirname "$0")/.."
base_ref=${1:-HEAD~1}
PAIRS=11
LOSSES_TO_FAIL=9
MAX_DROP=0.25

base_rev=$(git rev-parse --verify "$base_ref^{commit}")
tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "[engine-perf] building the change and $base_ref ($base_rev)"
cargo build --release --quiet -p homp-bench --bin engine_torture
change_bin="$(pwd)/${CARGO_TARGET_DIR:-target}/release/engine_torture"
git worktree add --quiet --detach "$tmp/base" "$base_rev"
(cd "$tmp/base" && CARGO_TARGET_DIR="$tmp/target" \
    cargo build --release --quiet -p homp-bench --bin engine_torture)
base_bin="$tmp/target/release/engine_torture"

# Quick mode writes nothing; run each side in the scratch directory anyway.
headline() {
    (cd "$tmp" && "$1" --quick) |
        sed -n 's/^\[torture\] headline events_per_sec=\([0-9.]*\).*/\1/p'
}

base_runs=()
change_runs=()
losses=0
for i in $(seq 1 "$PAIRS"); do
    if ((i % 2)); then
        b=$(headline "$base_bin")
        c=$(headline "$change_bin")
    else
        c=$(headline "$change_bin")
        b=$(headline "$base_bin")
    fi
    if [ -z "$b" ] || [ -z "$c" ]; then
        echo "[engine-perf] pair $i: no headline printed" >&2
        exit 2
    fi
    base_runs+=("$b")
    change_runs+=("$c")
    if awk -v c="$c" -v b="$b" 'BEGIN { exit !(c < b) }'; then
        losses=$((losses + 1))
    fi
    printf '[engine-perf] pair %2d: base %12.0f  change %12.0f\n' "$i" "$b" "$c"
done

median() { printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }'; }
mb=$(median "${base_runs[@]}")
mc=$(median "${change_runs[@]}")
printf '[engine-perf] median events/sec: base %.0f  change %.0f (%.3fx); change lost %d of %d pairs\n' \
    "$mb" "$mc" "$(awk -v c="$mc" -v b="$mb" 'BEGIN { print c / b }')" "$losses" "$PAIRS"
if [ "$losses" -ge "$LOSSES_TO_FAIL" ] &&
    awk -v c="$mc" -v b="$mb" -v d="$MAX_DROP" 'BEGIN { exit !(c < (1 - d) * b) }'; then
    echo "[engine-perf] REGRESSION: the change lost at least $LOSSES_TO_FAIL of $PAIRS pairs" \
        "and its median is more than $(awk -v d="$MAX_DROP" 'BEGIN { print d * 100 }')% below the base's"
    exit 1
fi
echo "[engine-perf] OK"
