#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh                                   all four workloads, untraced
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --smoke                           short run of all four
#
# Run from the root of the repository. The last line of standard output is
# the JSON object of the (last) workload run.
set -euo pipefail

manifest="benchmark/Cargo.toml"
if [[ ! -f "$manifest" || ! -d crates ]]; then
    echo "run.sh: run me from the root of the repository (need $manifest and crates/)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path "$manifest" --bin bench-e2e >&2

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
echo "# host: nproc=$(nproc) $(rustc --version) commit=$commit"
exec "$target/release/bench-e2e" "$@"
