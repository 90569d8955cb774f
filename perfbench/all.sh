#!/usr/bin/env bash
# Run every workload untraced and then traced with one seed, printing every
# end-to-end and per-layer metric:
#
#     perfbench/all.sh [seed] [seconds]
set -euo pipefail
seed=${1:-1}
seconds=${2:-30}
cd "$(dirname "$0")/.."
for workload in point_read khop mixed_rw; do
    for trace in 0 1; do
        echo "== $workload --trace $trace"
        cargo bench --quiet --offline --manifest-path perfbench/Cargo.toml --bench perfbench -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
