#!/usr/bin/env bash
# suite.sh <pattern> [go test flag]... <package>...
#
# Runs `go test -run <pattern>` with the given flags over the given packages,
# after checking that every |-separated alternative of the pattern lists at
# least one test in them. `go test -run` passes silently when nothing
# matches, so without the check a renamed test drops out of its suite
# unnoticed. Packages are the arguments that start with ./ ; everything else
# is a flag (write flag values with =, e.g. -timeout=30m).
#
#   scripts/suite.sh 'PowerCycle|Recover|KillNine' -count=3 ./internal/paxos ./internal/replog
set -u
if [ "$#" -lt 2 ]; then
  echo "usage: $0 <pattern> [go test flag]... <package>..." >&2
  exit 2
fi
pat=$1
shift
flags=() pkgs=()
for arg in "$@"; do
  case $arg in
    ./*) pkgs+=("$arg") ;;
    *) flags+=("$arg") ;;
  esac
done
if [ "${#pkgs[@]}" -eq 0 ]; then
  echo "$0: no package given (packages start with ./)" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
for alt in ${pat//|/ }; do
  go test -list "$alt" "${pkgs[@]}" | grep -q '^Test' || {
    echo "no test matches '$alt' in ${pkgs[*]}" >&2
    exit 1
  }
done
exec go test "${flags[@]}" -run "$pat" "${pkgs[@]}"
