#!/usr/bin/env bash
# The benchmark's pair protocol (BENCHMARK.json, EXPERIMENTS.md "Benchmark —
# …" sections): parent and change each built once from their own checkout
# into their own target directory, run alternately over the fixed seeds,
# then one traced pair per workload through `benchmark --compare`.
#
#   scripts/bench_pairs.sh <parent-rev> [workload…] [--seconds N] [--pairs N] [--record N]
#
# The change is the working tree this script lives in; the parent is
# `git archive <parent-rev>` unpacked under the repository's
# target/bench_pairs (beside every build and output of the run). With
# no workload named, every workload BENCHMARK.json lists runs; a name it
# does not list fails before anything is built. Prints, per workload, the
# per-seed table and the median [Q1–Q3] / ratio / wins rows in
# EXPERIMENTS.md's format (quartiles by the benchmark's own rule, stats.rs
# `exclusive_quantile`). --record N also writes the run to BENCH_<N>.json
# at the repository's root (schema below); N is a number, or a number and
# a label such as 47-anchor-bb6b8d6 for a pairing against an older
# revision than the parent.
set -euo pipefail

# BENCH_<N>.json, schema 1 (numbers as the runs printed them):
#   { "schema": 1,
#     "parent": "<sha>", "change": "<sha of HEAD>[-dirty]",
#     "seconds": S, "pairs": P, "seeds": [the P seeds run],
#     "host": { "cpu_model": "<first model name in /proc/cpuinfo>",
#               "nproc": <processor lines in /proc/cpuinfo> },
#     "workloads": { "<workload>": {
#       "ref_ns_per_op": { "parent": x, "change": x },  # 1e9 / the median
#                                # of every reference measurement of its runs
#       "compare_ok": true|false,  # the traced pair's `benchmark --compare`
#       "metrics": { "<metric>": {
#         "parent": { "median": x, "q1": x, "q3": x, "iqr": x },
#         "change": { "median": x, "q1": x, "q3": x, "iqr": x },
#         "ratio": change median / parent median,
#         "wins": pairs in which the change was better (by BENCHMARK.json's
#                 direction: higher for throughput, lower for RSS and setup),
#         "ranges": the comparison in words, as the printed table has it
#       } … } } … } }

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
work="$root/target/bench_pairs"
seeds=(3 7 11 19 23 42 57 101 314 2718)
manifest=crates/bench/src/bin/benchmark/Cargo.toml

usage() {
  sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

parent_rev=""
workloads=()
seconds=26
pairs=${#seeds[@]}
record=""
while (($#)); do
  case "$1" in
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --pairs) pairs="${2:?--pairs needs a value}"; shift 2 ;;
    --record) record="${2:?--record needs a value}"; shift 2 ;;
    -*) usage ;;
    *) if [[ -z "$parent_rev" ]]; then parent_rev="$1"; else workloads+=("$1"); fi; shift ;;
  esac
done
[[ -n "$parent_rev" ]] || usage
((pairs >= 1 && pairs <= ${#seeds[@]})) || { echo "--pairs must be 1..${#seeds[@]}" >&2; exit 2; }
[[ -z "$record" || "$record" =~ ^[0-9]+(-[A-Za-z0-9]+)*$ ]] || {
  echo "--record needs a number, optionally with -label parts" >&2
  exit 2
}
# The names under BENCHMARK.json's "workloads" array, in file order.
mapfile -t known < <(sed -n '/"workloads": *\[/,/^ *\]/p' "$root/BENCHMARK.json" |
  grep -o '"name": *"[^"]*"' | sed 's/.*"\([^"]*\)"$/\1/')
((${#known[@]})) || { echo "no workloads found in $root/BENCHMARK.json" >&2; exit 2; }
((${#workloads[@]})) || workloads=("${known[@]}")
for w in "${workloads[@]}"; do
  [[ " ${known[*]} " == *" $w "* ]] || {
    echo "unknown workload '$w' (BENCHMARK.json lists: ${known[*]})" >&2
    exit 2
  }
done

parent_rev="$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")"
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
  CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
    --manifest-path "${checkout[$side]}/$manifest"
done

# run <side> <workload> <seed> <trace>: the run's last stdout line (its
# one-line JSON summary). Each binary runs from its own checkout, whose
# BENCHMARK.json it reads.
run() {
  (cd "${checkout[$1]}" && "$work/$1-target/release/benchmark" --workload "$2" --seed "$3" \
    --seconds "$seconds" --trace "$4" --out "$work/out/$1-trace$4") | tail -n 1
}

# field <json line> <metric>: the metric's value.
field() {
  grep -o "\"$2\":{\"value\":[^,]*" <<<"$1" | sed 's/.*"value"://'
}

# refs <result file>: the reference measurements of one run, one a line.
refs() {
  tr -d ' \n' <"$1" | grep -o '"ref_ops_per_s":\[[^]]*\]' | sed 's/.*\[//; s/\]//' | tr ',' '\n'
}

for w in "${workloads[@]}"; do
  rows="$work/out/$w.rows"
  : >"$rows" >"$work/out/$w.parent.refs" >"$work/out/$w.change.refs"
  for ((i = 0; i < pairs; i++)); do
    seed=${seeds[i]}
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    declare -A line=()
    for side in "${order[@]}"; do
      echo "    $w seed $seed $side" >&2
      line[$side]="$(run "$side" "$w" "$seed" 0)"
      grep -q '"correct":true' <<<"${line[$side]}" && grep -q '"failed":0' <<<"${line[$side]}" || {
        echo "error: $w seed $seed $side did not run clean: ${line[$side]}" >&2
        exit 1
      }
      refs "$work/out/$side-trace0/${w}_seed${seed}_trace0.json" >>"$work/out/$w.$side.refs"
    done
    {
      printf '%s %s' "$seed" "${order[0]}"
      for m in device_s_per_ref_s device_s_per_s peak_rss_mb setup_s; do
        printf ' %s %s' "$(field "${line[parent]}" "$m")" "$(field "${line[change]}" "$m")"
      done
      printf '\n'
    } >>"$rows"
  done

  echo
  echo "**\`$w\`, $pairs pairs at \`--seconds $seconds\`:**"
  echo
  awk -v json="$work/out/$w.metrics.json" '
    function grp(x,   s, out) {            # 1234567.8 -> "1 234 568"
      s = sprintf("%.0f", x); out = ""
      while (length(s) > 3) { out = " " substr(s, length(s) - 2) out; s = substr(s, 1, length(s) - 3) }
      return s out
    }
    function secs(x) { return x < 0.01 ? sprintf("%.3f ms", x * 1000) : sprintf("%.3f", x) }
    function fmt(m, x) { return m <= 2 ? grp(x) : m == 3 ? sprintf("%.2f", x) : secs(x) }
    function quant(v, n, p,   pos, lo, hi, f) {  # stats.rs exclusive_quantile
      pos = p * (n + 1); lo = int(pos); if (lo < 1) lo = 1; if (lo > n) lo = n
      hi = lo + 1 > n ? n : lo + 1; f = pos - lo; if (f < 0) f = 0; if (f > 1) f = 1
      return v[lo] + (v[hi] - v[lo]) * f
    }
    function summary(col, out,   i, j, t, v) {
      for (i = 1; i <= NR; i++) v[i] = val[i, col]
      for (i = 2; i <= NR; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
      out["q1"] = quant(v, NR, 0.25); out["med"] = quant(v, NR, 0.5); out["q3"] = quant(v, NR, 0.75)
      out["min"] = v[1]; out["max"] = v[NR]
    }
    BEGIN {
      print "| seed | first | parent dev_s/ref_s | change dev_s/ref_s | ratio | parent dev_s/s | change dev_s/s | parent RSS MB | change RSS MB | parent setup_s | change setup_s |"
      print "|---|---|---|---|---|---|---|---|---|---|---|"
    }
    {
      for (c = 3; c <= 10; c++) val[NR, c] = $c
      printf "| %s | %s | %s | %s | %.2f× | %s | %s | %.2f | %.2f | %s | %s |\n", $1, $2, grp($3), grp($4), $4 / $3, grp($5), grp($6), $7, $8, secs($9), secs($10)
    }
    END {
      split("device_s_per_ref_s device_s_per_s peak_rss_mb setup_s", name, " ")
      print ""
      print "| metric | parent median [Q1–Q3] | change median [Q1–Q3] | change / parent | change better in | ranges |"
      print "|---|---|---|---|---|---|"
      for (m = 1; m <= 4; m++) {
        pc = 1 + 2 * m; cc = 2 + 2 * m; higher = m <= 2
        summary(pc, P); summary(cc, C)
        wins = 0
        for (i = 1; i <= NR; i++) if (higher ? val[i, cc] > val[i, pc] : val[i, cc] < val[i, pc]) wins++
        if (higher ? C["min"] > P["max"] : C["max"] < P["min"]) ranges = "every change run better than every parent run"
        else if (higher ? C["max"] < P["min"] : C["min"] > P["max"]) ranges = "every change run worse than every parent run"
        else if (C["q1"] > P["q3"] || C["q3"] < P["q1"]) ranges = "inter-quartile ranges apart"
        else ranges = "inter-quartile ranges overlap"
        printf "| `%s` | %s [%s–%s] | %s [%s–%s] | %.3f | %d/%d | %s |\n", name[m], fmt(m, P["med"]), fmt(m, P["q1"]), fmt(m, P["q3"]), fmt(m, C["med"]), fmt(m, C["q1"]), fmt(m, C["q3"]), C["med"] / P["med"], wins, NR, ranges
        printf "%s\"%s\": {\"parent\": {\"median\": %.10g, \"q1\": %.10g, \"q3\": %.10g, \"iqr\": %.10g}, \"change\": {\"median\": %.10g, \"q1\": %.10g, \"q3\": %.10g, \"iqr\": %.10g}, \"ratio\": %.6f, \"wins\": %d, \"ranges\": \"%s\"}", (m > 1 ? ",\n        " : ""), name[m], P["med"], P["q1"], P["q3"], P["q3"] - P["q1"], C["med"], C["q1"], C["q3"], C["q3"] - C["q1"], C["med"] / P["med"], wins, ranges > json
      }
    }
  ' "$rows"
done

status=0
declare -A compare_ok=()
for w in "${workloads[@]}"; do
  echo
  echo "==> traced pair, $w seed 11"
  for side in parent change; do run "$side" "$w" 11 1 >/dev/null; done
  compare_ok[$w]=true
  (cd "$root" && "$work/change-target/release/benchmark" --compare \
    "$work/out/parent-trace1/${w}_seed11_trace1.json" \
    "$work/out/change-trace1/${w}_seed11_trace1.json") || { status=1; compare_ok[$w]=false; }
done

# ns_per_op <refs file>: 1e9 over the median reference measurement.
ns_per_op() {
  sort -g "$1" | awk '{ v[NR] = $1 } END { m = NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2; printf "%.4f", 1e9 / m }'
}

if [[ -n "$record" ]]; then
  out="$root/BENCH_$record.json"
  cpu="$(grep -m1 '^model name' /proc/cpuinfo | sed 's/^[^:]*: *//; s/["\\]//g')"
  {
    printf '{\n  "schema": 1,\n'
    printf '  "parent": "%s",\n' "$parent_rev"
    printf '  "change": "%s",\n' "$(git -C "$root" describe --always --dirty --abbrev=40)"
    printf '  "seconds": %s,\n  "pairs": %s,\n' "$seconds" "$pairs"
    printf '  "seeds": [%s],\n' "$(IFS=,; echo "${seeds[*]:0:pairs}" | sed 's/,/, /g')"
    printf '  "host": {"cpu_model": "%s", "nproc": %s},\n' "$cpu" "$(grep -c '^processor' /proc/cpuinfo)"
    printf '  "workloads": {'
    sep=""
    for w in "${workloads[@]}"; do
      printf '%s\n    "%s": {\n' "$sep" "$w"
      printf '      "ref_ns_per_op": {"parent": %s, "change": %s},\n' \
        "$(ns_per_op "$work/out/$w.parent.refs")" "$(ns_per_op "$work/out/$w.change.refs")"
      printf '      "compare_ok": %s,\n' "${compare_ok[$w]}"
      printf '      "metrics": {\n        %s\n      }\n    }' "$(cat "$work/out/$w.metrics.json")"
      sep=","
    done
    printf '\n  }\n}\n'
  } >"$out"
  echo
  echo "==> wrote $out"
fi
exit $status
