#!/usr/bin/env bash
# Guard for the perf-gate baselines (bench/baselines/README.md): every
# baseline directory that a bench_diff ctest or the CI perf-gate job
# diffs against must exist, hold at least one BENCH_*.json report, and
# have none of those reports excluded by the repository's ignore rules.
#
# The fault this catches: .gitignore ignores BENCH_*.json at every
# depth (bench runs drop them wherever they are started) and re-includes
# only the committed baselines. A negation that does not reach a new
# baseline subdirectory makes its reports invisible to `git add` — they
# live on in the author's working tree, the suite passes there, and the
# commit lands without them.
#
# The directories are read from tools/CMakeLists.txt and
# .github/workflows/ci.yml (every `bench/baselines[/...]` path named
# there; paths whose last component has a file extension, such as the
# README, are files and are not checked). The ignore check uses
# `git check-ignore --no-index`, so it tests the rules themselves, not
# what the index happens to hold: a report that is already tracked but
# would be ignored if re-added still fails.
#
# Exits 0 when every directory passes, 1 on any failure, and 77 (the
# ctest SKIP_RETURN_CODE) when git is not installed or the source
# directory is not a git work tree — there are no ignore rules to test.
#
# Usage: check_baseline_paths.sh <source-dir>
set -euo pipefail

SRC=${1:?usage: check_baseline_paths.sh <source-dir>}

if ! command -v git > /dev/null 2>&1; then
  echo "SKIP: git not found; cannot evaluate the ignore rules."
  exit 77
fi
if [ "$(git -C "$SRC" rev-parse --is-inside-work-tree 2> /dev/null)" != true ]; then
  echo "SKIP: $SRC is not a git work tree; no ignore rules to check."
  exit 77
fi

refs=()
for f in tools/CMakeLists.txt .github/workflows/ci.yml; do
  [ -f "$SRC/$f" ] || { echo "FAIL: $f not found under $SRC"; exit 1; }
  refs+=("$SRC/$f")
done

dirs=$(grep -ho 'bench/baselines[A-Za-z0-9_./-]*' "${refs[@]}" |
       sed -e 's:[./]*$::' | grep -v '/[^/]*\.[^/]*$' | sort -u)
if [ -z "$dirs" ]; then
  echo "FAIL: no bench/baselines directory is named in ${refs[*]#"$SRC"/}"
  exit 1
fi

failures=0
for d in $dirs; do
  if [ ! -d "$SRC/$d" ]; then
    echo "FAIL: $d is named as a baseline directory but does not exist"
    failures=$((failures + 1))
    continue
  fi
  reports=()
  for r in "$SRC/$d"/BENCH_*.json; do
    [ -f "$r" ] && reports+=("$d/${r##*/}")
  done
  if [ ${#reports[@]} -eq 0 ]; then
    echo "FAIL: $d holds no BENCH_*.json report"
    failures=$((failures + 1))
    continue
  fi
  # check-ignore exits 0 when some path is ignored, 1 when none is, and
  # 128 on a fatal error. Without -v it lists only the ignored paths
  # (-v would also list, and exit 0 for, paths a negation re-includes),
  # so -v runs afterwards, on those paths alone, to name their rule.
  status=0
  ignored=$(git -C "$SRC" check-ignore --no-index -- "${reports[@]}") ||
    status=$?
  case $status in
    0)
      echo "FAIL: $d has reports excluded by the ignore rules:"
      # shellcheck disable=SC2086  # report paths hold no whitespace
      git -C "$SRC" check-ignore --no-index -v -- $ignored | sed 's/^/  /'
      failures=$((failures + 1))
      ;;
    1) echo "ok: $d (${#reports[@]} report(s), none ignored)" ;;
    *)
      echo "FAIL: git check-ignore exited $status for $d"
      failures=$((failures + 1))
      ;;
  esac
done

if [ "$failures" -ne 0 ]; then
  echo "$failures baseline director(ies) failed; see bench/baselines/README.md"
  exit 1
fi
