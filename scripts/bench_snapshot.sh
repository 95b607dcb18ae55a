#!/usr/bin/env bash
# bench_snapshot.sh — automate the BENCH_N.json capture procedure from
# PERFORMANCE.md: micro-benchmarks (median of -count runs), machine info,
# and optionally the full-render wall clock. Emits one JSON document on stdout; everything else goes to
# stderr so `scripts/bench_snapshot.sh > /tmp/bench.json` just works.
#
# Usage: scripts/bench_snapshot.sh [-c count] [-r] [-s scale]
#   -c N        benchmark repetitions per package (default 3; medians kept)
#   -r          also measure the full rcgold render wall clock
#   -s scale    rcgold -scale for the full render (default 0.25)
#
# The "before" half of a snapshot comes from running this script on the
# pre-change commit (e.g. in a git worktree) and diffing the two JSONs;
# the script itself is stateless.
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT=3
RENDER=0
SCALE=0.25
while getopts "c:rs:" opt; do
  case "$opt" in
    c) COUNT=$OPTARG ;;
    r) RENDER=1 ;;
    s) SCALE=$OPTARG ;;
    *) exit 2 ;;
  esac
done

note() { echo "== $*" >&2; }

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

note "micro-benchmarks: public API (count=$COUNT)"
go test -run xxx -bench 'BenchmarkPublicAPI' -benchmem -count "$COUNT" . >>"$RAW"
note "micro-benchmarks: sim, wire, hashtable, transport, realnode (count=$COUNT)"
go test -run xxx -bench . -benchmem -count "$COUNT" \
  ./internal/sim ./internal/wire ./internal/hashtable ./internal/transport \
  ./internal/realnode >>"$RAW"

# Fold the raw `go test -bench` lines into {name: {ns_op, b_op, allocs_op,
# raw_ns[]}} with per-benchmark medians. Benchmark names keep their
# /sub-case suffix; the -N GOMAXPROCS suffix is stripped.
BENCH_JSON=$(awk '
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns[name] = ns[name] " " $3
    for (i = 4; i <= NF; i++) {
      if ($(i+1) == "B/op")      b[name] = $i
      if ($(i+1) == "allocs/op") a[name] = $i
    }
  }
  function median(list,   arr, n, i, j, tmp) {
    n = split(list, arr, " ")
    for (i = 2; i <= n; i++)
      for (j = i; j > 1 && arr[j-1] + 0 > arr[j] + 0; j--) {
        tmp = arr[j]; arr[j] = arr[j-1]; arr[j-1] = tmp
      }
    return arr[int((n + 1) / 2)]
  }
  END {
    nn = 0
    for (name in ns) names[++nn] = name
    for (i = 2; i <= nn; i++)
      for (j = i; j > 1 && names[j-1] > names[j]; j--) {
        tmp = names[j]; names[j] = names[j-1]; names[j-1] = tmp
      }
    printf "{"
    sep = ""
    for (k = 1; k <= nn; k++) {
      name = names[k]
      n = split(ns[name], raw, " ")
      printf "%s\n    \"%s\": {\"ns_op\": %s", sep, name, median(ns[name])
      if (name in b) printf ", \"b_op\": %s", b[name]
      if (name in a) printf ", \"allocs_op\": %s", a[name]
      printf ", \"raw_ns\": ["
      for (i = 1; i <= n; i++) printf "%s%s", (i > 1 ? ", " : ""), raw[i]
      printf "]}"
      sep = ","
    }
    printf "\n  }"
  }' "$RAW")

RENDER_JSON="null"
if [ "$RENDER" = 1 ]; then
  note "building rcgold for the full-render measurement"
  GOLD=$(mktemp -d)
  go build -o "$GOLD/rcgold" ./cmd/rcgold
  note "full render: -scale $SCALE -seed 42"
  start=$(date +%s%N)
  "$GOLD/rcgold" -scale "$SCALE" -seed 42 >/dev/null
  end=$(date +%s%N)
  RENDER_JSON="{\"wall_ms\": $(( (end - start) / 1000000 ))}"
  rm -rf "$GOLD"
fi

CPU_MODEL=$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || echo unknown)

printf '{\n'
printf '  "captured_with": "scripts/bench_snapshot.sh -c %s%s",\n' "$COUNT" \
  "$([ "$RENDER" = 1 ] && printf ' %s' "-r -s $SCALE")"
printf '  "machine": {\n'
printf '    "goos": "%s",\n' "$(go env GOOS)"
printf '    "goarch": "%s",\n' "$(go env GOARCH)"
printf '    "cpu": "%s",\n' "$CPU_MODEL"
printf '    "cpus_visible": %s,\n' "$(nproc 2>/dev/null || echo 1)"
printf '    "go": "%s"\n' "$(go env GOVERSION)"
printf '  },\n'
printf '  "benchmarks": %s,\n' "$BENCH_JSON"
printf '  "full_render": %b\n' "$RENDER_JSON"
printf '}\n'
