// Fold-kernel implementations behind the runtime SIMD dispatch
// (kernel_dispatch.h): the scalar reference kernels and, on x86-64
// builds, AVX2 kernels for the inclusion–exclusion cross product and
// the level-set Normalize.
//
// Contract shared by every tier: accumulator Add calls are issued in
// the scalar (x-outer, y-inner) order, so the open-addressing tables
// end up slot-for-slot identical and everything downstream — item
// streams, tallies, CSV, checkpoints — is byte-identical across tiers.
// The AVX2 kernels only restructure the arithmetic: keys are packed
// four per 256-bit vector and deltas use an exact 64x64→64 vector
// multiply, with each 4-lane batch drained immediately in scalar
// order. The dense-tier kernels trade the hash probe for a flat
// cells[lo * stride + hi] store over per-tree dense label ids — same
// per-cell delta order, no hashing at all.

#ifndef COUSINS_CORE_SIMD_FOLD_H_
#define COUSINS_CORE_SIMD_FOLD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cousin_pair.h"
#include "core/mining_scratch.h"
#include "core/pair_count_map.h"

namespace cousins {
namespace internal {

// FoldBuffer (the batch scratch the kernels fill and drain) lives in
// mining_scratch.h with the other per-shard buffers.

// --- scalar reference kernels (always compiled) -----------------------

/// The pre-dispatch AddProduct, bit for bit: immediate Add per (x, y).
void AddProductScalar(const FlatCounts& a, const FlatCounts& b, int64_t sign,
                      PairCountMap* acc, FoldBuffer* buf);

/// Dense-tier cross product (reference implementation): labels in
/// `a`/`b` are dense ids in [0, stride); emits sign * product into
/// cells[lo * stride + hi] for the unordered pair (lo, hi) with
/// per-cell saturating adds, pushing each cell index onto `dirty` at
/// first touch (old value zero). Requires stride * stride to fit in
/// uint32_t. Per-cell delta order is the scalar (x-outer, y-inner)
/// order under every tier, so saturation points are tier-independent.
void AddProductDenseScalar(const FlatCounts& a, const FlatCounts& b,
                           int64_t sign, int32_t stride, int64_t* cells,
                           std::vector<uint32_t>* dirty, FoldBuffer* buf);

/// The pre-dispatch Normalize: std::sort by label + linear combine.
/// Ignores `buf` (may be null).
void NormalizeScalar(FlatCounts* counts, FoldBuffer* buf);

// --- AVX2 kernels (x86-64 GCC/Clang builds only) ----------------------

/// True when this binary contains the AVX2 kernels at all (compile-time
/// capability; the runtime cpuid check lives in kernel_dispatch).
bool Avx2KernelsCompiled();

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define COUSINS_SIMD_AVX2_COMPILED 1

/// Vector cross product: packs 4 canonical keys per 256-bit lane with
/// an exact 64-bit vector delta multiply, then drains each 4-lane
/// batch into the accumulator immediately, in scalar Add order.
void AddProductAvx2(const FlatCounts& a, const FlatCounts& b, int64_t sign,
                    PairCountMap* acc, FoldBuffer* buf);

/// Dense-tier cross product, vectorized: 4 lanes of min/max + flat
/// index arithmetic per step, scalar saturating stores. Identical
/// cells/dirty effects to AddProductDenseScalar.
void AddProductDenseAvx2(const FlatCounts& a, const FlatCounts& b,
                         int64_t sign, int32_t stride, int64_t* cells,
                         std::vector<uint32_t>* dirty, FoldBuffer* buf);

/// Sort-and-combine on packed (label << 32 | index) sort keys: the
/// 8-byte key sort replaces the 16-byte pair sort, and small inputs
/// take a branch-light insertion sort. Output identical to scalar.
void NormalizeAvx2(FlatCounts* counts, FoldBuffer* buf);

#else
#define COUSINS_SIMD_AVX2_COMPILED 0
#endif

}  // namespace internal
}  // namespace cousins

#endif  // COUSINS_CORE_SIMD_FOLD_H_
