#!/bin/bash
# Fails if .gitignore would swallow any of the benchmark's own files
# (BENCHMARK.json and everything under perfbench/), which would then be
# missing from a commit while passing in its author's tree. Run from
# anywhere inside the repository; exits 77 (skip) outside a git work tree.
set -u
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel 2>/dev/null) || {
  echo "check_ignored: not in a git work tree; skipped" >&2
  exit 77
}
cd "$root" || exit 1
files=$(printf '%s\n' BENCHMARK.json; find perfbench -type f | sort)
ignored=$(printf '%s\n' "$files" | git check-ignore --no-index --stdin)
if [ -n "$ignored" ]; then
  echo "check_ignored: these benchmark files match .gitignore rules:" >&2
  printf '  %s\n' $ignored >&2
  exit 1
fi
echo "check_ignored: $(printf '%s\n' "$files" | wc -l) files, none ignored"
