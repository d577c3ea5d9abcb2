#include "core/kernel_dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace cousins {

const char* SimdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAuto:
      return "auto";
    case SimdMode::kAvx2:
      return "avx2";
    case SimdMode::kScalar:
      return "scalar";
  }
  return "auto";
}

const char* SimdTierName(SimdTier tier) {
  return tier == SimdTier::kAvx2 ? "avx2" : "scalar";
}

bool ParseSimdMode(const std::string& name, SimdMode* out) {
  if (name == "auto") {
    *out = SimdMode::kAuto;
    return true;
  }
  if (name == "avx2") {
    *out = SimdMode::kAvx2;
    return true;
  }
  if (name == "scalar") {
    *out = SimdMode::kScalar;
    return true;
  }
  return false;
}

bool CpuSupportsAvx2() {
#if COUSINS_SIMD_AVX2_COMPILED
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

namespace {

/// -1 = no SetSimdMode override yet; consult COUSINS_SIMD / auto.
std::atomic<int> g_mode_override{-1};

SimdMode EnvSimdMode() {
  const char* value = std::getenv("COUSINS_SIMD");
  if (value == nullptr || value[0] == '\0') return SimdMode::kAuto;
  SimdMode mode;
  if (!ParseSimdMode(value, &mode)) {
    std::fprintf(stderr,
                 "cousins: ignoring unrecognized COUSINS_SIMD=\"%s\" "
                 "(expected auto|avx2|scalar)\n",
                 value);
    return SimdMode::kAuto;
  }
  return mode;
}

SimdTier ResolveTier(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar:
      return SimdTier::kScalar;
    case SimdMode::kAvx2:
      if (CpuSupportsAvx2()) return SimdTier::kAvx2;
      {
        static const bool warned = [] {
          std::fprintf(stderr,
                       "cousins: SIMD mode avx2 requested but %s; "
                       "falling back to scalar kernels\n",
                       internal::Avx2KernelsCompiled()
                           ? "this CPU lacks AVX2"
                           : "this binary has no AVX2 kernels");
          return true;
        }();
        (void)warned;
      }
      return SimdTier::kScalar;
    case SimdMode::kAuto:
      break;
  }
  return CpuSupportsAvx2() ? SimdTier::kAvx2 : SimdTier::kScalar;
}

}  // namespace

void SetSimdMode(SimdMode mode) {
  g_mode_override.store(static_cast<int>(mode), std::memory_order_release);
}

SimdTier ActiveSimdTier() {
  const int override_mode =
      g_mode_override.load(std::memory_order_acquire);
  if (override_mode >= 0) {
    return ResolveTier(static_cast<SimdMode>(override_mode));
  }
  // The environment is read once; the override path stays live so
  // tests and flag parsing can still flip modes afterwards.
  static const SimdMode env_mode = EnvSimdMode();
  return ResolveTier(env_mode);
}

namespace internal {

const FoldKernels& ScalarKernels() {
  static const FoldKernels kScalarTable{
      SimdTier::kScalar, &AddProductScalar, &AddProductDenseScalar,
      &NormalizeScalar};
  return kScalarTable;
}

const FoldKernels* Avx2KernelsIfSupported() {
#if COUSINS_SIMD_AVX2_COMPILED
  if (!CpuSupportsAvx2()) return nullptr;
  static const FoldKernels kAvx2Table{
      SimdTier::kAvx2, &AddProductAvx2, &AddProductDenseAvx2,
      &NormalizeAvx2};
  return &kAvx2Table;
#else
  return nullptr;
#endif
}

const FoldKernels& ActiveKernels() {
  if (ActiveSimdTier() == SimdTier::kAvx2) {
    const FoldKernels* avx2 = Avx2KernelsIfSupported();
    if (avx2 != nullptr) return *avx2;
  }
  return ScalarKernels();
}

}  // namespace internal
}  // namespace cousins
