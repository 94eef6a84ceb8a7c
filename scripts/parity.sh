#!/usr/bin/env bash
# Byte parity of the `riot` CLI and of riot-core's examples with a parent
# commit: a change that claims to keep behaviour prints what its parent
# printed.
#
#   scripts/parity.sh <parent-rev>
#
# The change is the working tree this script lives in; the parent is
# `git archive <parent-rev>` unpacked under the repository's target/parity (as
# scripts/bench_pairs.sh does). Both sides build `riot` and the examples in
# release mode into their own target directory, each runs the fixed command
# list below (four `riot` commands, then every example the parent also has)
# from its own checkout, and the two stdouts are `cmp`ed. Prints the first command
# whose output differs and exits 1; exits 0 when every command agrees. Each
# run's stderr (harness progress) is kept beside its stdout, uncompared.
# Not part of scripts/check.sh: it needs a parent.
set -euo pipefail

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
work="$root/target/parity"
[[ $# -eq 1 ]] || { sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }

parent_rev="$(git -C "$root" rev-parse --verify "$1^{commit}")"
echo "==> parent ${parent_rev:0:7} -> $work/parent"
# `git archive` stamps every file with the commit's time, older than a
# target directory built from another revision, which cargo would then take
# for fresh: the parent is always built from an empty target directory.
rm -rf "$work/parent" "$work/out" "$work/parent-target"
mkdir -p "$work/parent" "$work/out"
git -C "$root" archive "$parent_rev" | tar -x -C "$work/parent"

declare -A checkout=([parent]="$work/parent" [change]="$root")
for side in parent change; do
  echo "==> build $side"
  (cd "${checkout[$side]}" && export CARGO_TARGET_DIR="$work/$side-target" \
    && cargo build --release --offline --quiet -p riot-bench --bin riot \
    && cargo build --release --offline --quiet -p riot-core --examples)
done

shape="--level ml4 --edges 3 --devices 4 --duration 40 --warmup 10 --stream-summary --trace-tail 64"
# Each entry is a path under the side's target directory, then its flags.
commands=(
  "release/riot $shape"
  "release/riot $shape --all-levels --seeds 2 --threads 2"
  "release/riot campaign run tests/campaigns/blackout_availability.campaign"
  "release/riot campaign run tests/campaigns/storm_coverage.campaign"
)
for example in "$work"/parent/examples/*.rs; do
  commands+=("release/examples/$(basename "$example" .rs)")
done

for i in "${!commands[@]}"; do
  for side in parent change; do
    # shellcheck disable=SC2086  # the command is a flag list, split on purpose
    (cd "${checkout[$side]}" && "$work/$side-target/"${commands[i]}) \
      >"$work/out/$i.$side" 2>"$work/out/$i.$side.err"
  done
  if ! cmp "$work/out/$i.parent" "$work/out/$i.change"; then
    echo "DIFFERS: ${commands[i]}" >&2
    exit 1
  fi
  echo "same ($(wc -c <"$work/out/$i.change") bytes): ${commands[i]}"
done
echo "OK: ${#commands[@]} commands byte-identical to ${parent_rev:0:7}"
