#!/usr/bin/env bash
# The full local gate: everything CI (and the tier-1 driver) checks, in the
# order that fails fastest. Run from anywhere inside the repository.
#
#   scripts/check.sh           # fmt + clippy + riot-lint + doc + tests + benchmark package build + four smokes
#   scripts/check.sh --quick   # skip the tests, that build and the smokes (style + lint + doc only)
#
# Not here because they need a parent commit to compare with:
# scripts/parity.sh <parent-rev> (the `riot` CLI prints byte-for-byte what the
# parent printed) and scripts/bench_pairs.sh <parent-rev> (the benchmark's ten
# alternated pairs).
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> riot-lint (determinism & panic-safety policy + hot-path call graph)"
# The report stays in this checkout's target/, so gates run in two checkouts
# at once do not overwrite each other's.
mkdir -p target
report=target/riot-lint.json
cargo run --quiet -p riot-lint -- --json > "$report" || {
  # Re-run human-readable so the violations are visible, then fail.
  cargo run --quiet -p riot-lint || true
  exit 1
}
# The call-graph pass must have run (lint-hotpaths.toml present and parsed):
# a clean report without graph stats would mean A1/P2 were silently skipped.
grep -q '"graph"' "$report" || {
  echo "error: riot-lint report has no call-graph stats — A1/P2 did not run" >&2
  exit 1
}

echo "==> cargo doc (no-deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

if [[ "$quick" == "0" ]]; then
  echo "==> cargo test (workspace)"
  cargo test --quiet

  echo "==> standalone benchmark package (the build BENCHMARK.json runs: its own manifest and lock file)"
  cargo build --release --offline --quiet --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
  if [[ -n "$(git status --porcelain crates/bench/src/bin/benchmark)" ]]; then
    echo "error: building the benchmark package changed files under its directory:" >&2
    git status --porcelain crates/bench/src/bin/benchmark >&2
    exit 1
  fi

  echo "==> riot-harness smoke grid (parallel run of a small scenario sweep)"
  cargo run --quiet -p riot-bench --bin riot -- \
    --level ml1 --edges 2 --devices 2 --duration 20 --warmup 5 \
    --seeds 2 --threads 2 --stream-summary > /dev/null

  echo "==> benchmark smoke (all four workloads at 1/20 size, untraced + traced; every BENCHMARK.json metric emitted once)"
  cargo run --quiet --release -p riot-bench --bin benchmark -- --smoke > /dev/null

  echo "==> campaign fuzz smoke (committed reproducers reproduce + minimal; seeded sweep finds & shrinks)"
  cargo run --quiet -p riot-bench --bin riot -- campaign fuzz --smoke > /dev/null

  echo "==> profile smoke (one second of fuzz_sweep sampled and tabled; skips itself without cc/addr2line)"
  scripts/profile.sh fuzz_sweep --seconds 1 > /dev/null
fi

echo "OK: fmt, clippy, riot-lint$([[ "$quick" == "0" ]] && echo ", tests") all clean"
