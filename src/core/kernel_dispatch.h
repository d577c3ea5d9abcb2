// Runtime SIMD dispatch for the fold kernels — one binary ships every
// tier and picks at startup.
//
// The per-LCA label-multiset convolution (AddProduct) and the
// level-set Normalize are the per-occurrence cost of the per-tree
// miner, so they exist in two implementations: a scalar reference
// (bit-for-bit the pre-dispatch code) and an AVX2 kernel
// (simd_fold.cc) that packs label-pair keys four per vector.
// The selected tier changes only the representation of the work, never
// the answers: the hash-path kernels issue accumulator Adds in exactly
// the scalar order (slot-identical table layouts), and the dense-tier
// accumulator the vector miner uses (single_tree_mining.cc) emits the
// same item multiset per tree — a permutation that every downstream
// consumer (canonical item sort, support-sorted frequent sets) erases,
// so CSV bytes are identical under every tier. CI byte-compares the
// dispatch modes to hold that line.
//
// Selection order (first match wins):
//   1. SetSimdMode() — CLI/daemon --simd=MODE flag, and tests;
//   2. the COUSINS_SIMD environment variable (auto|avx2|scalar);
//   3. auto: cpuid — AVX2 when the CPU has it, scalar otherwise.
// Forcing avx2 on hardware without it resolves to scalar with a
// one-time stderr notice (library callers must keep working); the CLI
// and daemon reject the flag up front with a usage error instead.

#ifndef COUSINS_CORE_KERNEL_DISPATCH_H_
#define COUSINS_CORE_KERNEL_DISPATCH_H_

#include <string>

#include "core/simd_fold.h"

namespace cousins {

/// What the user asked for (flag/env); kAuto defers to cpuid.
enum class SimdMode { kAuto, kAvx2, kScalar };

/// What actually runs after resolution.
enum class SimdTier { kScalar, kAvx2 };

/// "auto" / "avx2" / "scalar".
const char* SimdModeName(SimdMode mode);
const char* SimdTierName(SimdTier tier);

/// Parses a mode name; returns false (out untouched) on anything else.
bool ParseSimdMode(const std::string& name, SimdMode* out);

/// True when the running CPU supports AVX2 and the binary compiled the
/// AVX2 kernels in (x86-64 + GCC/Clang).
bool CpuSupportsAvx2();

/// Process-wide mode override; wins over COUSINS_SIMD. Takes effect on
/// the next ActiveSimdTier()/ActiveKernels() call — call it before
/// mining starts (flag parsing, test setup), not mid-fold.
void SetSimdMode(SimdMode mode);

/// The tier mining actually runs: resolves override > env > auto, with
/// the unsupported-avx2 fallback described above.
SimdTier ActiveSimdTier();

namespace internal {

/// The dispatched fold kernels. One immutable table per tier; the
/// active table is re-read at each mining entry point (one relaxed
/// atomic load per tree, nothing per item).
struct FoldKernels {
  SimdTier tier = SimdTier::kScalar;
  /// Emits sign * (cross product of two label multisets) into acc, in
  /// scalar (x-outer, y-inner) Add order. `buf` carries the batch
  /// scratch and the simd_batches/scalar_fallbacks tallies; the scalar
  /// kernel leaves it untouched apart from scalar_fallbacks.
  void (*add_product)(const FlatCounts& a, const FlatCounts& b, int64_t sign,
                      PairCountMap* acc, FoldBuffer* buf) = nullptr;
  /// Dense-tier cross product: labels in `a`/`b` are dense ids in
  /// [0, stride); emits sign * product into cells[lo * stride + hi]
  /// for the unordered pair (lo, hi), recording first-touched cells in
  /// `dirty` (see AddProductDenseScalar for the exact contract).
  void (*add_product_dense)(const FlatCounts& a, const FlatCounts& b,
                            int64_t sign, int32_t stride, int64_t* cells,
                            std::vector<uint32_t>* dirty,
                            FoldBuffer* buf) = nullptr;
  /// Sorts and combines duplicate labels in place. Output is uniquely
  /// determined (label-sorted, summed), so tiers may order the work
  /// differently but never the result. `buf` provides sort scratch;
  /// the scalar kernel accepts null.
  void (*normalize)(FlatCounts* counts, FoldBuffer* buf) = nullptr;
};

/// Kernel table for the active tier.
const FoldKernels& ActiveKernels();

/// Tier-specific tables, exposed so tests can pit the implementations
/// against each other directly regardless of the process-wide mode.
const FoldKernels& ScalarKernels();
/// Null when the binary has no AVX2 kernels or the CPU lacks AVX2.
const FoldKernels* Avx2KernelsIfSupported();

}  // namespace internal
}  // namespace cousins

#endif  // COUSINS_CORE_KERNEL_DISPATCH_H_
