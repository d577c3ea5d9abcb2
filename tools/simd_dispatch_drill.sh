#!/usr/bin/env bash
# Dispatch drill for the runtime SIMD kernel layer (src/core/
# kernel_dispatch.h): prove the cross-mode answer contract end to end,
# against the real CLI binary.
#
# The contract: COUSINS_SIMD=scalar and COUSINS_SIMD=avx2 are two
# dispatch paths through ONE binary, and every user-visible answer —
# the frequent-pair CSV and the per-tree mine listing — must come out
# byte-identical between them. The vector tier is allowed to reorder
# per-tree item emission internally (dense-accumulator drain order vs
# hash slot order); everything downstream sorts with total orders, so
# any divergence that reaches the CSV is a kernel bug, not noise.
#
# The drill mines a generated fig6-style synthetic corpus (varied
# shapes, rotating labels, a couple hundred trees — enough to exercise
# the dense accumulator and the scalar tails), a two-star forest whose
# sibling pairs outgrow the presized forest tally in the middle of one
# tree's fold, and the committed phylogeny corpora, under both modes,
# and byte-compares every output pair. The first two forests are also
# mined with the free-tree miner (--miner=free), which runs the same
# per-LCA kernels, dense tier included.
#
# On hardware without AVX2 the drill prints a loud skip notice and
# exits 0: there is nothing to cross-check when only one dispatch path
# can execute. (kernel_dispatch falls back to scalar with a one-time
# stderr notice when avx2 is forced but unsupported, so "both" runs
# would compare scalar against itself — a vacuous pass reported as if
# it were coverage.)
#
# Usage: simd_dispatch_drill.sh <cousins_cli>
set -euo pipefail

CLI=${1:?usage: simd_dispatch_drill.sh <cousins_cli>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/cousins_simd_drill.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

if ! grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  echo "NOTICE: AVX2 not available on this host; skipping the" \
       "dispatch drill (only the scalar path can execute here)."
  exit 0
fi

# Fig6-style synthetic corpus: 240 trees over 12 shapes with rotating
# label indices, so the forest has many distinct labels per tree (the
# dense-accumulator path), repeated cross-tree pairs (support > 1),
# and both bushy and deep topologies (distance spread).
FOREST="$WORK/forest.nwk"
for i in $(seq 0 239); do
  a=$((i % 17)); b=$(((i + 5) % 17)); c=$(((i + 9) % 17))
  d=$(((i + 2) % 23)); e=$(((i + 11) % 23)); f=$(((i + 7) % 23))
  case $((i % 12)) in
    0) echo "((L$a,L$b),(L$c,(M$d,M$e)));" ;;
    1) echo "((L$a,(L$b,L$c)),(M$d,M$e));" ;;
    2) echo "(((L$a,L$b),L$c),(M$d,(M$e,M$f)));" ;;
    3) echo "((L$a,L$b,L$c),(M$d,M$e,M$f));" ;;
    4) echo "(L$a,(L$b,(L$c,(M$d,(M$e,M$f)))));" ;;
    5) echo "((L$a,M$d),(L$b,M$e),(L$c,M$f));" ;;
    6) echo "(((L$a,M$d),(L$b,M$e)),(L$c,M$f));" ;;
    7) echo "((L$a,L$a),(L$b,(M$d,M$d)));" ;;
    8) echo "(L$a,L$b,L$c,M$d,M$e,M$f);" ;;
    9) echo "(((((L$a,L$b),L$c),M$d),M$e),M$f);" ;;
    10) echo "((L$a,(M$d,M$e)),((L$b,L$c),M$f));" ;;
    *) echo "((L$a,L$b),((L$c,M$d),(M$e,M$f)));" ;;
  esac
done > "$FOREST"

compare() {
  # compare <label> <cli-args...>: run under both modes, byte-compare.
  local label=$1
  shift
  COUSINS_SIMD=scalar "$CLI" "$@" > "$WORK/scalar.out"
  COUSINS_SIMD=avx2 "$CLI" "$@" > "$WORK/avx2.out"
  if ! cmp -s "$WORK/scalar.out" "$WORK/avx2.out"; then
    echo "FAIL: $label diverges between COUSINS_SIMD=scalar and =avx2"
    diff "$WORK/scalar.out" "$WORK/avx2.out" | head -20
    exit 1
  fi
  echo "OK: $label byte-identical across dispatch modes" \
       "($(wc -c < "$WORK/scalar.out") bytes)"
}

expect_rows() {
  # expect_rows <label> <n>: the last compared CSV has n data rows.
  local rows=$(($(wc -l < "$WORK/scalar.out") - 1))
  if [ "$rows" -ne "$2" ]; then
    echo "FAIL: $1 has $rows rows, want $2"
    exit 1
  fi
}

compare "synthetic frequent CSV" frequent "$FOREST" --csv --minsup=2
compare "synthetic mine listing" mine "$FOREST"
compare "synthetic free-tree frequent CSV" \
  frequent "$FOREST" --csv --minsup=2 --miner=free

# Two identical stars over 520 distinct leaf labels: 520·519/2 = 134,940
# sibling pairs at support 2, more than the distance-0 tally is presized
# for, so the forest fold grows that table mid-tree. Every pair must
# reach the CSV under both modes. Read as free trees the leaves are two
# edges apart (distance 0 again) and the unlabeled hub pairs with none,
# so the free-tree miner must give the same 134,940 rows.
STARS="$WORK/two_stars.nwk"
STAR="($(seq -f 'leaf%g' 0 519 | paste -sd,));"
printf '%s\n%s\n' "$STAR" "$STAR" > "$STARS"
compare "two-star frequent CSV" \
  frequent "$STARS" --csv --maxdist=1.5 --minsup=2 --threads=1
expect_rows "two-star frequent CSV" 134940
compare "two-star free-tree frequent CSV" \
  frequent "$STARS" --csv --maxdist=1.5 --minsup=2 --threads=1 --miner=free
expect_rows "two-star free-tree frequent CSV" 134940

HERE=$(cd "$(dirname "$0")" && pwd)
compare "seed_plants frequent CSV" \
  frequent "$HERE/testdata/seed_plants.nwk" --csv
compare "seed_plants mine listing" mine "$HERE/testdata/seed_plants.nwk"
compare "dirty_forest frequent CSV (lenient)" \
  frequent "$HERE/testdata/dirty_forest.nwk" --csv --lenient

echo "PASS: all outputs byte-identical across dispatch modes"
