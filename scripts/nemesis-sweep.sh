#!/usr/bin/env bash
# nemesis-sweep.sh <workload> <n> <duration> <seed>...
#
# Replays cmd/nemesis once per seed, prints each run's verdict line (the
# last line of its stdout, one JSON object), tallies them, and exits
# non-zero unless every seed reads "ok":true. A failing verdict names its
# own repro: go run ./cmd/nemesis -workload W -n N -duration D -seed S.
# A run's stderr (the obs.RunReport of a failing chain soak) passes through.
set -u
if [ "$#" -lt 4 ]; then
  echo "usage: $0 <workload> <n> <duration> <seed>..." >&2
  exit 2
fi
workload=$1 n=$2 duration=$3
shift 3
cd "$(dirname "$0")/.."
bin=$(mktemp -d)/nemesis
trap 'rm -rf "$(dirname "$bin")"' EXIT
go build -o "$bin" ./cmd/nemesis || exit 2
ok=0
for seed in "$@"; do
  verdict=$("$bin" -workload "$workload" -n "$n" -duration "$duration" -seed "$seed" | tail -n 1)
  echo "$verdict"
  case $verdict in *'"ok":true'*) ok=$((ok + 1)) ;; esac
done
echo "$workload: $ok of $# seeds ok"
[ "$ok" -eq "$#" ]
