#!/usr/bin/env bash
# Correctness-only pass over the benchmark package: every workload at the
# tiny scale, untraced and traced (every read checked, restart + read-back +
# LamassuFs::verify after each repetition; no timing assertions), then lint.
# Under 10 s once built. Not wired into .github/workflows/ci.yml yet; a later
# PR can add a step that runs this file.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --quiet
bin="${CARGO_TARGET_DIR:-target}/release/lamassu-benchmark"

"$bin" --scale smoke --seconds 0 --seed 1 >/dev/null
"$bin" --scale smoke --seconds 0 --seed 1 --trace >/dev/null
echo "smoke: all workloads correct, traced and untraced"

cargo fmt --check
cargo clippy --offline --quiet --all-targets -- -D warnings
echo "smoke: fmt and clippy clean"
