#!/usr/bin/env bash
# Builds the benchmark (and, through its path dependencies, the program)
# in release mode and runs it. Arguments go to the benchmark unchanged:
#
#   benchmark/run.sh                          every workload, end to end
#   benchmark/run.sh --trace 1                ... and layer by layer
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --selfcheck [--seed <n>] the full set twice, compared
#   benchmark/run.sh --smoke                  toy sizes: build, schema, outputs
#
# Honours CARGO_TARGET_DIR; traces go to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --locked --quiet \
    --manifest-path "$here/Cargo.toml" -- --out "$here/out" "$@"
