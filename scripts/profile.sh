#!/usr/bin/env bash
# A sampled profile of one benchmark workload: where the untraced run's CPU
# time sits, by function and by source line. Evidence for an issue, not a
# gate — scripts/check.sh does not run it.
#
#   scripts/profile.sh <workload> [--seed N] [--seconds N]
#
# Builds the benchmark package (crates/bench/src/bin/benchmark/Cargo.toml)
# with CARGO_PROFILE_RELEASE_DEBUG=true into its own target directory under
# /root/scratch/profile — debug info changes no generated code — and runs
# the untraced workload under scripts/sigprof.c: SIGPROF on a 1 ms CPU-time
# timer (the kernel delivers it at its own tick, 4 ms at HZ=250), the raw
# stack kept at each. Addresses are symbolised with `addr2line -f -i -C`,
# return addresses minus one. Three tables:
#
#   flat by function   the sample's innermost frame inside the binary, by
#                      the function the code was emitted in
#   flat by line       the same frame, by the source line of its innermost
#                      inlined call that is not in core/alloc/std
#   inclusive          every function on the sample's stack, once a sample
#
# A sample taken inside libc (memcpy, malloc) counts for its nearest caller
# in the binary. Needs cc and addr2line; without them it says so and exits 0.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
work=/root/scratch/profile
manifest=crates/bench/src/bin/benchmark/Cargo.toml

usage() {
  sed -n '2,7p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

workload=""
seed=11
seconds=12
while (($#)); do
  case "$1" in
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    -*) usage ;;
    *) [[ -z "$workload" ]] || usage; workload="$1"; shift ;;
  esac
done
[[ -n "$workload" ]] || usage

if ! command -v cc >/dev/null || ! command -v addr2line >/dev/null; then
  echo "skipped: needs cc and addr2line"
  exit 0
fi

mkdir -p "$work"
echo "==> build (release + debug info) -> $work/target" >&2
CARGO_PROFILE_RELEASE_DEBUG=true CARGO_TARGET_DIR="$work/target" \
  cargo build --release --offline --quiet --manifest-path "$root/$manifest"
cc -O2 -shared -fPIC "$root/scripts/sigprof.c" -o "$work/sigprof.so"

bin="$work/target/release/benchmark"
raw="$work/$workload.raw"
echo "==> run $workload seed $seed, $seconds s, untraced, sampled" >&2
(cd "$root" && SIGPROF_OUT="$raw" LD_PRELOAD="$work/sigprof.so" "$bin" \
  --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --out "$work/out") |
  tail -n 1 | cut -c1-400 >&2

# Pass 1: every address inside the binary as a file offset, one line a
# sample, innermost first: `<leaf> <caller - 1> …`. Frames 1 and 2 are the
# handler and the signal trampoline; frame 3 is the interrupted instruction
# itself, the rest are return addresses.
awk -v bin="$bin" '
  function hex(s,   i, n, c) {
    n = 0; s = tolower(s); sub(/^0x/, "", s)
    for (i = 1; i <= length(s); i++) { c = index("0123456789abcdef", substr(s, i, 1)) - 1; n = n * 16 + c }
    return n
  }
  $1 == "M" && $NF == bin {
    split($2, range, "-")
    if (!have) { base = hex(range[1]); have = 1 }
    top = hex(range[2])
  }
  $1 == "S" {
    line = ""
    for (f = 4; f <= NF; f++) {
      a = hex($f)
      if (a < base || a >= top) continue
      line = line sprintf(" 0x%x", a - base - (f > 4))
    }
    if (line != "") print substr(line, 2)
  }
' "$raw" >"$work/$workload.stacks"

tr ' ' '\n' <"$work/$workload.stacks" | sort -u >"$work/$workload.addrs"
addr2line -a -f -i -C -e "$bin" <"$work/$workload.addrs" >"$work/$workload.sym"

# Pass 2: the three tables.
awk -v total="$(grep -c '^S' "$raw")" '
  function clean(fn) { sub(/::h[0-9a-f]{16}$/, "", fn); return fn }
  function own(fn) { return fn !~ /^<?(core|alloc|std)::/ && fn !~ / as (core|alloc|std)::/ }
  function table(title, count,   k, cmd) {
    print ""
    print title
    cmd = "sort -t\"\t\" -k1,1nr | head -n 25"
    for (k in count) printf "%d\t%5.1f %%\t%s\n", count[k], 100 * count[k] / samples, k | cmd
    close(cmd)
  }
  # addr2line -a: the address, then (function, file:line) innermost first.
  FNR == NR {
    if ($0 ~ /^0x[0-9a-f]+$/) { addr = $0; sub(/^0x0*/, "0x", addr); want = 0; next }
    if (want == 0) { fn = clean($0); want = 1; next }
    want = 0
    loc = $0; sub(/ \(discriminator [0-9]+\)$/, "", loc); sub(/^.*\/crates\//, "", loc); sub(/^.*\/library\//, "", loc)
    physical[addr] = fn
    if (!(addr in line) && own(fn)) line[addr] = loc "  " fn
    next
  }
  {
    samples++
    flat_fn[physical[$1]]++
    flat_line[($1 in line) ? line[$1] : "?? " physical[$1]]++
    delete seen
    for (f = 1; f <= NF; f++) if (!(physical[$f] in seen)) { seen[physical[$f]] = 1; incl[physical[$f]]++ }
  }
  END {
    printf "%d samples, %d with a frame inside the binary\n", total, samples
    table("flat, by function (samples, share, function)", flat_fn)
    table("flat, by source line of the innermost frame outside core/alloc/std", flat_line)
    table("inclusive, by function", incl)
  }
' "$work/$workload.sym" "$work/$workload.stacks"
