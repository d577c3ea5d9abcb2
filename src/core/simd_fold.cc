#include "core/simd_fold.h"

#include <algorithm>
#include <cstring>

#if COUSINS_SIMD_AVX2_COMPILED
#include <immintrin.h>
#endif

namespace cousins {
namespace internal {

void AddProductScalar(const FlatCounts& a, const FlatCounts& b, int64_t sign,
                      PairCountMap* acc, FoldBuffer* buf) {
  if (buf != nullptr) ++buf->scalar_fallbacks;
  for (const auto& [x, cx] : a) {
    const int64_t scaled = sign * cx;
    for (const auto& [y, cy] : b) {
      acc->Add(PackLabelPair(x, y), scaled * cy);
    }
  }
}

void AddProductDenseScalar(const FlatCounts& a, const FlatCounts& b,
                           int64_t sign, int32_t stride, int64_t* cells,
                           std::vector<uint32_t>* dirty, FoldBuffer* buf) {
  if (buf != nullptr) ++buf->scalar_fallbacks;
  for (const auto& [x, cx] : a) {
    const int64_t scaled = sign * cx;
    const int64_t row = static_cast<int64_t>(x) * stride;
    for (const auto& [y, cy] : b) {
      const size_t idx = static_cast<size_t>(
          x <= y ? row + y : static_cast<int64_t>(y) * stride + x);
      const int64_t old = cells[idx];
      cells[idx] = SaturatingAdd(old, scaled * cy);
      if (old == 0) dirty->push_back(static_cast<uint32_t>(idx));
    }
  }
}

void NormalizeScalar(FlatCounts* counts, FoldBuffer* /*buf*/) {
  std::sort(counts->begin(), counts->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t out = 0;
  for (size_t i = 0; i < counts->size();) {
    size_t j = i;
    int64_t total = 0;
    while (j < counts->size() && (*counts)[j].first == (*counts)[i].first) {
      total += (*counts)[j].second;
      ++j;
    }
    (*counts)[out++] = {(*counts)[i].first, total};
    i = j;
  }
  counts->resize(out);
}

bool Avx2KernelsCompiled() { return COUSINS_SIMD_AVX2_COMPILED != 0; }

#if COUSINS_SIMD_AVX2_COMPILED

// FlatCounts entries are pair<LabelId, int64_t>: label in the low
// dword of qword 0, count in qword 1. The vector loads below depend on
// that exact layout.
static_assert(sizeof(std::pair<LabelId, int64_t>) == 16);

namespace {

/// Exact 64x64 -> low-64 multiply (mod 2^64), matching the scalar
/// int64 multiply bit for bit on every non-UB input.
__attribute__((target("avx2"))) inline __m256i Mul64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b),
                                         _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// Loads 4 consecutive FlatCounts entries (64 bytes) and splits them
/// into a label vector (4 zero-extended uint64 lanes) and a count
/// vector (4 int64 lanes).
__attribute__((target("avx2"))) inline void LoadFlat4(
    const std::pair<LabelId, int64_t>* p, __m256i* labels,
    __m256i* counts) {
  const __m256i v0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i v1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 2));
  // v0 = [A0 B0 | A1 B1], v1 = [A2 B2 | A3 B3] as qwords, where
  // Ai = (pad << 32) | label_i and Bi = count_i.
  const __m256i t0 = _mm256_permute2x128_si256(v0, v1, 0x20);
  const __m256i t1 = _mm256_permute2x128_si256(v0, v1, 0x31);
  const __m256i mask32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  *labels = _mm256_and_si256(_mm256_unpacklo_epi64(t0, t1), mask32);
  *counts = _mm256_unpackhi_epi64(t0, t1);
}

/// Canonical PackLabelPair on 4 lanes: min label in the high dword.
/// Labels are non-negative int32, so the signed 64-bit compare is
/// exact.
__attribute__((target("avx2"))) inline __m256i PackKeys4(__m256i xv,
                                                         __m256i yv) {
  const __m256i x_gt = _mm256_cmpgt_epi64(xv, yv);
  const __m256i minv = _mm256_blendv_epi8(xv, yv, x_gt);
  const __m256i maxv = _mm256_blendv_epi8(yv, xv, x_gt);
  return _mm256_or_si256(_mm256_slli_epi64(minv, 32), maxv);
}

}  // namespace

__attribute__((target("avx2"))) void AddProductAvx2(
    const FlatCounts& a, const FlatCounts& b, int64_t sign,
    PairCountMap* acc, FoldBuffer* buf) {
  const size_t nb = b.size();
  if (a.empty() || nb < 4) {
    AddProductScalar(a, b, sign, acc, buf);
    return;
  }
  const size_t nb4 = nb & ~size_t{3};
  // Each 4-lane batch is drained into the accumulator immediately, in
  // scalar Add order: the key/delta arithmetic runs vectorized while
  // the probe sequence (and therefore the table layout) stays
  // bit-identical to the scalar kernel.
  alignas(32) uint64_t keys4[4];
  alignas(32) int64_t deltas4[4];
  for (const auto& [x, cx] : a) {
    const int64_t scaled = sign * cx;
    const __m256i xv = _mm256_set1_epi64x(x);
    const __m256i sv = _mm256_set1_epi64x(scaled);
    size_t j = 0;
    for (; j < nb4; j += 4) {
      __m256i labels;
      __m256i counts;
      LoadFlat4(b.data() + j, &labels, &counts);
      _mm256_store_si256(reinterpret_cast<__m256i*>(keys4),
                         PackKeys4(xv, labels));
      _mm256_store_si256(reinterpret_cast<__m256i*>(deltas4),
                         Mul64(sv, counts));
      acc->Add(keys4[0], deltas4[0]);
      acc->Add(keys4[1], deltas4[1]);
      acc->Add(keys4[2], deltas4[2]);
      acc->Add(keys4[3], deltas4[3]);
    }
    buf->simd_batches += static_cast<int64_t>(nb4 / 4);
    for (; j < nb; ++j) {
      acc->Add(PackLabelPair(x, b[j].first), scaled * b[j].second);
    }
  }
}

namespace {

/// One 4-lane step of the dense product: computes cell indices and
/// deltas for b[j..j+3] against the broadcast row (xv, sv), stores
/// them to the caller's batch buffers, and prefetches the four target
/// cells so the saturating updates a pipeline stage later find them
/// resident. lo * stride fits in 32 bits (stride^2 <= 2^32 by
/// contract) and the upper dword of every lane is zero, so the cheap
/// 32-bit lane multiply is exact and the qword add carries nothing.
__attribute__((target("avx2"))) inline void DenseBatch4(
    const std::pair<LabelId, int64_t>* bp, __m256i xv, __m256i sv,
    __m256i stride_v, const int64_t* cells, int64_t* idx_out,
    int64_t* delta_out) {
  __m256i labels;
  __m256i counts;
  LoadFlat4(bp, &labels, &counts);
  const __m256i x_gt = _mm256_cmpgt_epi64(xv, labels);
  const __m256i lo = _mm256_blendv_epi8(xv, labels, x_gt);
  const __m256i hi = _mm256_blendv_epi8(labels, xv, x_gt);
  const __m256i idx =
      _mm256_add_epi64(_mm256_mullo_epi32(lo, stride_v), hi);
  _mm256_store_si256(reinterpret_cast<__m256i*>(idx_out), idx);
  _mm256_store_si256(reinterpret_cast<__m256i*>(delta_out),
                     Mul64(sv, counts));
  for (int k = 0; k < 4; ++k) {
    __builtin_prefetch(&cells[idx_out[k]], 1 /*write*/, 1);
  }
}

}  // namespace

__attribute__((target("avx2"))) void AddProductDenseAvx2(
    const FlatCounts& a, const FlatCounts& b, int64_t sign, int32_t stride,
    int64_t* cells, std::vector<uint32_t>* dirty, FoldBuffer* buf) {
  const size_t nb = b.size();
  if (a.empty() || nb < 4) {
    AddProductDenseScalar(a, b, sign, stride, cells, dirty, buf);
    return;
  }
  const size_t nb4 = nb & ~size_t{3};
  const __m256i stride_v = _mm256_set1_epi64x(stride);
  // Two-deep software pipeline: while batch j's cells are updated,
  // batch j+4's indices are already computed and its cells prefetched.
  // Batches are still retired strictly in order, so the per-cell delta
  // sequence matches the scalar kernel exactly. (Prefetching a cell
  // the in-flight batch may also touch is only a hint — no hazard.)
  alignas(32) int64_t idx_buf[2][4];
  alignas(32) int64_t delta_buf[2][4];
  for (const auto& [x, cx] : a) {
    const int64_t scaled = sign * cx;
    const __m256i xv = _mm256_set1_epi64x(x);
    const __m256i sv = _mm256_set1_epi64x(scaled);
    DenseBatch4(b.data(), xv, sv, stride_v, cells, idx_buf[0],
                delta_buf[0]);
    int cur = 0;
    for (size_t j = 4; j < nb4; j += 4) {
      const int nxt = cur ^ 1;
      DenseBatch4(b.data() + j, xv, sv, stride_v, cells, idx_buf[nxt],
                  delta_buf[nxt]);
      for (int k = 0; k < 4; ++k) {
        const int64_t old = cells[idx_buf[cur][k]];
        cells[idx_buf[cur][k]] = SaturatingAdd(old, delta_buf[cur][k]);
        if (old == 0) {
          dirty->push_back(static_cast<uint32_t>(idx_buf[cur][k]));
        }
      }
      cur = nxt;
    }
    for (int k = 0; k < 4; ++k) {
      const int64_t old = cells[idx_buf[cur][k]];
      cells[idx_buf[cur][k]] = SaturatingAdd(old, delta_buf[cur][k]);
      if (old == 0) {
        dirty->push_back(static_cast<uint32_t>(idx_buf[cur][k]));
      }
    }
    buf->simd_batches += static_cast<int64_t>(nb4 / 4);
    for (size_t j = nb4; j < nb; ++j) {
      const LabelId y = b[j].first;
      const size_t idx = static_cast<size_t>(
          x <= y ? static_cast<int64_t>(x) * stride + y
                 : static_cast<int64_t>(y) * stride + x);
      const int64_t old = cells[idx];
      cells[idx] = SaturatingAdd(old, scaled * b[j].second);
      if (old == 0) dirty->push_back(static_cast<uint32_t>(idx));
    }
  }
}

__attribute__((target("avx2"))) void NormalizeAvx2(FlatCounts* counts,
                                                   FoldBuffer* buf) {
  const size_t n = counts->size();
  if (n <= 1) return;
  std::pair<LabelId, int64_t>* c = counts->data();
  if (n <= 24 || buf == nullptr) {
    // Small level sets (the common case: one entry per child subtree
    // label) sort fastest by plain insertion; combine in place.
    for (size_t i = 1; i < n; ++i) {
      const std::pair<LabelId, int64_t> v = c[i];
      size_t j = i;
      for (; j > 0 && c[j - 1].first > v.first; --j) c[j] = c[j - 1];
      c[j] = v;
    }
    size_t out = 0;
    for (size_t i = 0; i < n;) {
      int64_t total = c[i].second;
      size_t j = i + 1;
      while (j < n && c[j].first == c[i].first) total += c[j++].second;
      c[out++] = {c[i].first, total};
      i = j;
    }
    counts->resize(out);
    return;
  }
  // Large sets: sort packed (label << 32 | index) qwords — an 8-byte
  // branch-light sort instead of a 16-byte pair sort — then gather the
  // counts through the index word while combining runs. The key pack
  // runs 4 lanes at a time off the same qword split as the product
  // kernel.
  buf->sort_keys.resize(n);
  uint64_t* sk = buf->sort_keys.data();
  const size_t n4 = n & ~size_t{3};
  const __m256i lane_idx = _mm256_setr_epi64x(0, 1, 2, 3);
  size_t i = 0;
  for (; i < n4; i += 4) {
    __m256i labels;
    __m256i ignored_counts;
    LoadFlat4(c + i, &labels, &ignored_counts);
    const __m256i idx =
        _mm256_add_epi64(_mm256_set1_epi64x(static_cast<int64_t>(i)),
                         lane_idx);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(sk + i),
        _mm256_or_si256(_mm256_slli_epi64(labels, 32), idx));
  }
  buf->simd_batches += static_cast<int64_t>(n4 / 4);
  for (; i < n; ++i) {
    sk[i] = (static_cast<uint64_t>(static_cast<uint32_t>(c[i].first))
             << 32) |
            static_cast<uint32_t>(i);
  }
  std::sort(sk, sk + n);
  buf->tmp_counts.assign(counts->begin(), counts->end());
  const std::pair<LabelId, int64_t>* orig = buf->tmp_counts.data();
  size_t out = 0;
  for (size_t r = 0; r < n;) {
    const uint32_t label = static_cast<uint32_t>(sk[r] >> 32);
    int64_t total = 0;
    while (r < n && static_cast<uint32_t>(sk[r] >> 32) == label) {
      total += orig[sk[r] & 0xFFFFFFFFu].second;
      ++r;
    }
    c[out++] = {static_cast<LabelId>(label), total};
  }
  counts->resize(out);
}

#endif  // COUSINS_SIMD_AVX2_COMPILED

}  // namespace internal
}  // namespace cousins
