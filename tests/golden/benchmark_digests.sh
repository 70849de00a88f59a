#!/bin/sh
# Pins the simulated behaviour of the repository's four benchmark workloads:
# runs each at `--seconds 1`, default seed, and compares its `sim_digest`
# with tests/golden/benchmark_digests.txt. The digest folds every simulated
# metric and counter of the run, so a change that only claims host time and
# moves a simulated cycle fails here. `BLESS=1` rewrites the file instead —
# only with a change that means to move simulated behaviour (DESIGN.md §8).
set -eu
cd "$(dirname "$0")/../.."
pinned=tests/golden/benchmark_digests.txt

digests() {
    for workload in proto_uniform trace_mcf_serial trace_lbm_pipe svc_zipf_dram; do
        digest=$(cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seconds 1 --trace 0 | sed -n 's/^sim_digest //p')
        echo "$workload $digest"
    done
}

if [ -n "${BLESS:-}" ]; then
    digests > "$pinned"
    echo "blessed $pinned; review with git diff"
else
    digests | diff "$pinned" - && echo "benchmark sim_digests match $pinned"
fi
