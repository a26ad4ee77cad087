#!/usr/bin/env bash
# loc.sh REV
#
# Prints the non-test Go line count of every package directory — each of
# internal/*, cmd/*, multicast, examples/* and the root — at revision REV
# (read through `git archive`) and in the working tree (tracked files and
# untracked ones git does not ignore), with the difference, then the total
# outside benchmarks/ (a module of its own). A directory present on one side
# only counts 0 on the other.
#
#   scripts/loc.sh HEAD~1
set -euo pipefail
if [ "$#" -ne 1 ]; then
  echo "usage: $0 REV" >&2
  exit 2
fi
rev=$1
cd "$(dirname "$0")/.."
if ! git rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
  echo "$0: unknown revision $rev" >&2
  exit 2
fi
old=$(mktemp -d)
trap 'rm -rf "$old"' EXIT
git archive "$rev" | tar -x -C "$old"

# counts SIDE: one "SIDE path lines" row per non-test Go file, read from
# standard input as paths relative to the current directory.
counts() {
  grep '\.go$' | grep -v '_test\.go$' | while read -r f; do
    if [ -f "$f" ]; then
      echo "$1 $f $(wc -l <"$f")"
    fi
  done
}

printf '%-24s %8.8s %8s %7s\n' package "$rev" tree delta
{
  (cd "$old" && find . -name '*.go' | sed 's|^\./||' | counts old)
  git ls-files -co --exclude-standard | counts new
} | awk '
  $2 ~ /^benchmarks\// { next }
  {
    n = split($2, part, "/")
    if (n == 1) key = "(root)"
    else if (part[1] == "internal" || part[1] == "cmd" || part[1] == "examples") key = part[1] "/" part[2]
    else key = part[1]
    lines[$1, key] += $3
    seen[key] = 1
    total[$1] += $3
  }
  END {
    for (key in seen)
      printf "%-24s %8d %8d %+7d\n", key, lines["old", key], lines["new", key], lines["new", key] - lines["old", key]
    printf "~%-23s %8d %8d %+7d\n", "total", total["old"], total["new"], total["new"] - total["old"]
  }' | LC_ALL=C sort | sed 's/^~/ /'
