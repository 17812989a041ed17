#!/usr/bin/env bash
# The benchmark's one command: builds the crate (release, offline,
# against vendor/) and hands every argument to it. See README.md.
#
#   bash benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#   bash benchmark/run.sh all | compare A B | spread | expected | manifest
#   bash benchmark/run.sh --lint     cargo fmt --check + clippy -D warnings
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

if [ "${1:-}" = "--lint" ]; then
  cargo fmt --manifest-path "$manifest" --check
  cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
  exit 0
fi

# Cargo's own output goes to stderr; stdout carries only results.
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/glap-benchmark" "$@"
