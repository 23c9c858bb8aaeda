#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/check.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define OSP_GEMM_X86_DISPATCH 1
#endif

namespace osp::tensor {

namespace {

// ---------------------------------------------------------------------------
// Blocked GEMM.
//
// All three matmul orientations route through one cache-blocked,
// register-tiled kernel (BLIS-style): A and B are repacked into contiguous
// panels (packing absorbs the transposed orientations), the inner loop
// computes a kMR×kNR register tile, and K is cut into kc panels sized to
// keep both packed operands cache-resident.
//
// Numerical contract: every C element is produced by ONE accumulator that
// adds a[i,p]*b[p,j] terms in ascending p, seeded from C between kc panels.
// That is exactly the order of the straight-loop kernels this replaced, so
// results are bit-identical to them and independent of both the blocking
// parameters and the thread count (threads partition M, never K).
// ---------------------------------------------------------------------------

// Register tile: kMR rows of A against one kNR-wide packed B panel.
constexpr std::size_t kMR = kGemmMR;
constexpr std::size_t kNR = kGemmNR;
// Cache blocking: packed B panel (kKC×kNC) ~2 MB streams from L3, each
// packed A strip (kMR×kKC) ~8 KB streams from L1.
constexpr std::size_t kKC = 512;
constexpr std::size_t kNC = 1024;

// Parallelizing or packing tiny matmuls costs more than it saves.
constexpr std::size_t kMinFlopsPerChunk = 262144;
constexpr std::size_t kSmallGemmElems = 16384;  // m*n*k below: naive inline

enum class Trans { N, T };

// ---------------------------------------------------------------------------
// Panel kernel behind gemm_panel() and the blocked GEMM: every kMR-row strip
// of packed A against one packed B panel. Each kMR×kNR tile starts at 0 (or
// at C when accumulating), takes its kl rank-1 updates in ascending p, and
// is stored back to C. Three tiers, picked from util::simd::active_tier():
// portable C++, AVX2 (each tile row in two 8-lane registers, so 8
// independent accumulators) and AVX-512 (each tile row in one 16-lane
// register; masked loads and stores cover nr < kNR). Every tier performs
// the identical sequence of IEEE mul-then-add per element (lanes are
// independent j columns; k stays serial, and FMA is deliberately NOT used
// because fusing would change rounding; the library builds with
// -ffp-contract=off so the compiler cannot fuse them either), so results
// are bit-identical across tiers.
// ---------------------------------------------------------------------------

// The portable kernel takes each tile in two 4×8 halves: a half's
// accumulators fit the 16 SSE registers of baseline x86-64, the whole 4×16
// tile's do not. Columns are independent, so the halves change no sum.
constexpr std::size_t kHalfNR = kNR / 2;

/// tile[i][j] = c[i*ldc + j] for i < mr, j < nr; 0 elsewhere.
inline void load_half_tile(const float* c, std::size_t ldc, std::size_t mr,
                           std::size_t nr, float* tile) {
  for (std::size_t ii = 0; ii < kMR; ++ii) {
    for (std::size_t jj = 0; jj < kHalfNR; ++jj) {
      tile[ii * kHalfNR + jj] = ii < mr && jj < nr ? c[ii * ldc + jj] : 0.0f;
    }
  }
}

/// c[i*ldc + j] = tile[i][j] (+ bias[i]) for i < mr, j < nr.
inline void store_half_tile(const float* tile, std::size_t mr, std::size_t nr,
                            const float* bias, float* c, std::size_t ldc) {
  for (std::size_t ii = 0; ii < mr; ++ii) {
    float* dst = c + ii * ldc;
    const float* src = tile + ii * kHalfNR;
    if (bias != nullptr) {
      for (std::size_t jj = 0; jj < nr; ++jj) dst[jj] = src[jj] + bias[ii];
    } else {
      for (std::size_t jj = 0; jj < nr; ++jj) dst[jj] = src[jj];
    }
  }
}

void panel_kernel_portable(const float* ap, std::size_t m, const float* bp,
                           std::size_t kl, std::size_t nr, const float* bias,
                           bool accumulate, float* c, std::size_t ldc) {
  for (std::size_t i0 = 0; i0 < m; i0 += kMR, ap += kMR * kl) {
    const std::size_t mr = std::min(kMR, m - i0);
    for (std::size_t j0 = 0; j0 < nr; j0 += kHalfNR) {
      const std::size_t w = std::min(kHalfNR, nr - j0);
      float* ct = c + i0 * ldc + j0;
      float acc[kMR * kHalfNR] = {};
      if (accumulate) load_half_tile(ct, ldc, mr, w, acc);
      for (std::size_t p = 0; p < kl; ++p) {
        const float* arow = ap + p * kMR;
        const float* brow = bp + p * kNR + j0;
        for (std::size_t ii = 0; ii < kMR; ++ii) {
          const float av = arow[ii];
          for (std::size_t jj = 0; jj < kHalfNR; ++jj) {
            acc[ii * kHalfNR + jj] += av * brow[jj];
          }
        }
      }
      store_half_tile(acc, mr, w, bias == nullptr ? nullptr : bias + i0, ct,
                      ldc);
    }
  }
}

#ifdef OSP_GEMM_X86_DISPATCH
static_assert(kMR == 4 && kNR == 16, "x86 panel kernels assume a 4x16 tile");

/// One tile row in the AVX2 kernel: columns 0-7 and 8-15.
struct RowAvx2 {
  __m256 lo, hi;
};

__attribute__((target("avx2"))) inline RowAvx2 load_row_avx2(
    const float* src, __m256i mask_lo, __m256i mask_hi) {
  return {_mm256_maskload_ps(src, mask_lo),
          _mm256_maskload_ps(src + 8, mask_hi)};
}

/// dst = row (+ bias[ii] when bias is non-null), masked unless `full`.
__attribute__((target("avx2"))) inline void store_row_avx2(
    RowAvx2 row, const float* bias, std::size_t ii, bool full,
    __m256i mask_lo, __m256i mask_hi, float* dst) {
  if (bias != nullptr) {
    const __m256 b = _mm256_set1_ps(bias[ii]);
    row.lo = _mm256_add_ps(row.lo, b);
    row.hi = _mm256_add_ps(row.hi, b);
  }
  if (full) {
    _mm256_storeu_ps(dst, row.lo);
    _mm256_storeu_ps(dst + 8, row.hi);
  } else {
    _mm256_maskstore_ps(dst, mask_lo, row.lo);
    _mm256_maskstore_ps(dst + 8, mask_hi, row.hi);
  }
}

__attribute__((target("avx2"))) void panel_kernel_avx2(
    const float* ap, std::size_t m, const float* bp, std::size_t kl,
    std::size_t nr, const float* bias, bool accumulate, float* c,
    std::size_t ldc) {
  // Lane j of the low (high) half is live while j (j + 8) < nr.
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i live = _mm256_set1_epi32(static_cast<int>(nr));
  const __m256i mask_lo = _mm256_cmpgt_epi32(live, lane);
  const __m256i mask_hi =
      _mm256_cmpgt_epi32(live, _mm256_add_epi32(lane, _mm256_set1_epi32(8)));
  const bool full = nr == kNR;
  for (std::size_t i0 = 0; i0 < m; i0 += kMR, ap += kMR * kl) {
    const std::size_t mr = std::min(kMR, m - i0);
    float* ct = c + i0 * ldc;
    // Rows past mr start at 0 and are never stored.
    const __m256 zero = _mm256_setzero_ps();
    RowAvx2 r0{zero, zero}, r1 = r0, r2 = r0, r3 = r0;
    if (accumulate) {
      r0 = load_row_avx2(ct, mask_lo, mask_hi);
      if (mr > 1) r1 = load_row_avx2(ct + ldc, mask_lo, mask_hi);
      if (mr > 2) r2 = load_row_avx2(ct + 2 * ldc, mask_lo, mask_hi);
      if (mr > 3) r3 = load_row_avx2(ct + 3 * ldc, mask_lo, mask_hi);
    }
    for (std::size_t p = 0; p < kl; ++p) {
      const __m256 blo = _mm256_loadu_ps(bp + p * kNR);
      const __m256 bhi = _mm256_loadu_ps(bp + p * kNR + 8);
      const float* arow = ap + p * kMR;
      __m256 a = _mm256_broadcast_ss(arow + 0);
      r0.lo = _mm256_add_ps(r0.lo, _mm256_mul_ps(a, blo));
      r0.hi = _mm256_add_ps(r0.hi, _mm256_mul_ps(a, bhi));
      a = _mm256_broadcast_ss(arow + 1);
      r1.lo = _mm256_add_ps(r1.lo, _mm256_mul_ps(a, blo));
      r1.hi = _mm256_add_ps(r1.hi, _mm256_mul_ps(a, bhi));
      a = _mm256_broadcast_ss(arow + 2);
      r2.lo = _mm256_add_ps(r2.lo, _mm256_mul_ps(a, blo));
      r2.hi = _mm256_add_ps(r2.hi, _mm256_mul_ps(a, bhi));
      a = _mm256_broadcast_ss(arow + 3);
      r3.lo = _mm256_add_ps(r3.lo, _mm256_mul_ps(a, blo));
      r3.hi = _mm256_add_ps(r3.hi, _mm256_mul_ps(a, bhi));
    }
    const float* bi = bias == nullptr ? nullptr : bias + i0;
    store_row_avx2(r0, bi, 0, full, mask_lo, mask_hi, ct);
    if (mr > 1) store_row_avx2(r1, bi, 1, full, mask_lo, mask_hi, ct + ldc);
    if (mr > 2) store_row_avx2(r2, bi, 2, full, mask_lo, mask_hi, ct + 2 * ldc);
    if (mr > 3) store_row_avx2(r3, bi, 3, full, mask_lo, mask_hi, ct + 3 * ldc);
  }
}

/// dst = row (+ bias[ii] when bias is non-null) in the lanes of `mask`.
__attribute__((target("avx512f"))) inline void store_row_avx512(
    __m512 row, const float* bias, std::size_t ii, __mmask16 mask,
    float* dst) {
  if (bias != nullptr) row = _mm512_add_ps(row, _mm512_set1_ps(bias[ii]));
  _mm512_mask_storeu_ps(dst, mask, row);
}

__attribute__((target("avx512f"))) void panel_kernel_avx512(
    const float* ap, std::size_t m, const float* bp, std::size_t kl,
    std::size_t nr, const float* bias, bool accumulate, float* c,
    std::size_t ldc) {
  const auto mask = static_cast<__mmask16>((1u << nr) - 1u);
  for (std::size_t i0 = 0; i0 < m; i0 += kMR, ap += kMR * kl) {
    const std::size_t mr = std::min(kMR, m - i0);
    float* ct = c + i0 * ldc;
    // Rows past mr start at 0 and are never stored.
    __m512 r0 = _mm512_setzero_ps(), r1 = r0, r2 = r0, r3 = r0;
    if (accumulate) {
      r0 = _mm512_maskz_loadu_ps(mask, ct);
      if (mr > 1) r1 = _mm512_maskz_loadu_ps(mask, ct + ldc);
      if (mr > 2) r2 = _mm512_maskz_loadu_ps(mask, ct + 2 * ldc);
      if (mr > 3) r3 = _mm512_maskz_loadu_ps(mask, ct + 3 * ldc);
    }
    for (std::size_t p = 0; p < kl; ++p) {
      const __m512 b = _mm512_loadu_ps(bp + p * kNR);
      const float* arow = ap + p * kMR;
      r0 = _mm512_add_ps(r0, _mm512_mul_ps(_mm512_set1_ps(arow[0]), b));
      r1 = _mm512_add_ps(r1, _mm512_mul_ps(_mm512_set1_ps(arow[1]), b));
      r2 = _mm512_add_ps(r2, _mm512_mul_ps(_mm512_set1_ps(arow[2]), b));
      r3 = _mm512_add_ps(r3, _mm512_mul_ps(_mm512_set1_ps(arow[3]), b));
    }
    const float* bi = bias == nullptr ? nullptr : bias + i0;
    store_row_avx512(r0, bi, 0, mask, ct);
    if (mr > 1) store_row_avx512(r1, bi, 1, mask, ct + ldc);
    if (mr > 2) store_row_avx512(r2, bi, 2, mask, ct + 2 * ldc);
    if (mr > 3) store_row_avx512(r3, bi, 3, mask, ct + 3 * ldc);
  }
}
#endif

using PanelKernelFn = void (*)(const float*, std::size_t, const float*,
                               std::size_t, std::size_t, const float*, bool,
                               float*, std::size_t);

/// The panel kernel of the active SIMD tier (OSP_SIMD_TIER, force_tier()).
PanelKernelFn panel_kernel() {
#ifdef OSP_GEMM_X86_DISPATCH
  switch (util::simd::active_tier()) {
    case util::simd::Tier::kAvx512:
      return panel_kernel_avx512;
    case util::simd::Tier::kAvx2:
    case util::simd::Tier::kAvx2Fma:
      return panel_kernel_avx2;
    case util::simd::Tier::kScalar:
      break;
  }
#endif
  return panel_kernel_portable;
}

/// C[m,n] (row-major, leading dimension n) = op(A)·op(B), or += when
/// `accumulate`.
void gemm_blocked(std::size_t m, std::size_t n, std::size_t k, const float* a,
                  std::size_t lda, Trans ta, const float* b, std::size_t ldb,
                  Trans tb, bool accumulate, float* c) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) {
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) c[i * n + j] = 0.0f;
      }
    }
    return;
  }
  // Element (i, p) of op(A) is a[i*a_rs + p*a_cs]; (p, j) of op(B) is
  // b[p*b_rs + j*b_cs].
  const std::size_t a_rs = ta == Trans::N ? lda : 1;
  const std::size_t a_cs = ta == Trans::N ? 1 : lda;
  const std::size_t b_rs = tb == Trans::N ? ldb : 1;
  const std::size_t b_cs = tb == Trans::N ? 1 : ldb;
  thread_local std::vector<float> bpack;
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t ncl = std::min(kNC, n - jc);
    const std::size_t npanels = (ncl + kNR - 1) / kNR;
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kl = std::min(kKC, k - pc);
      const bool first_panel = pc == 0;
      // Pack B once per (jc, pc) block; every M strip reuses it.
      bpack.resize(npanels * kl * kNR);
      for (std::size_t jp = 0; jp < npanels; ++jp) {
        const std::size_t j0 = jc + jp * kNR;
        pack_b_panel(b + pc * b_rs + j0 * b_cs, kl, std::min(kNR, n - j0),
                     b_rs, b_cs, bpack.data() + jp * kl * kNR);
      }
      const std::size_t strips = (m + kMR - 1) / kMR;
      const std::size_t strip_flops = 2 * kMR * kl * ncl + 1;
      const std::size_t grain =
          std::max<std::size_t>(1, kMinFlopsPerChunk / strip_flops);
      const float* bpack_data = bpack.data();
      const PanelKernelFn kernel = panel_kernel();
      util::ThreadPool::global().parallel_for(
          strips,
          [&, bpack_data, kernel](std::size_t s0, std::size_t s1) {
            thread_local std::vector<float> apack;
            apack.resize(kl * kMR);
            float* ap = apack.data();
            for (std::size_t s = s0; s < s1; ++s) {
              const std::size_t i0 = s * kMR;
              const std::size_t mr = std::min(kMR, m - i0);
              pack_a_strips(a + i0 * a_rs + pc * a_cs, mr, kl, a_rs, a_cs, ap);
              for (std::size_t jp = 0; jp < npanels; ++jp) {
                const std::size_t j0 = jc + jp * kNR;
                kernel(ap, mr, bpack_data + jp * kl * kNR, kl,
                       std::min(kNR, n - j0), nullptr,
                       !first_panel || accumulate, c + i0 * n + j0, n);
              }
            }
          },
          grain);
    }
  }
}

// Straight-loop fallbacks for matmuls too small to amortize packing. Same
// per-element accumulation order as the blocked kernel.
void matmul_small(std::size_t m, std::size_t k, std::size_t n, const float* pa,
                  const float* pb, float* pc) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    std::fill(crow, crow + n, 0.0f);
    const float* arow = pa + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = pb + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_tn_small(std::size_t m, std::size_t k, std::size_t n,
                     const float* pa, const float* pb, float* pc,
                     bool accumulate) {
  for (std::size_t i = 0; i < k; ++i) {
    float* crow = pc + i * n;
    if (!accumulate) std::fill(crow, crow + n, 0.0f);
    for (std::size_t p = 0; p < m; ++p) {
      const float av = pa[p * k + i];
      const float* brow = pb + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_nt_small(std::size_t m, std::size_t k, std::size_t n,
                     const float* pa, const float* pb, float* pc) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float s = 0.0f;
      for (std::size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      crow[j] = s;
    }
  }
}

void check_matrix(const Tensor& t, const char* name) {
  OSP_CHECK(t.rank() == 2, "matmul operand must be rank-2");
  (void)name;
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  check_matrix(a, "a");
  check_matrix(b, "b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  OSP_CHECK(b.dim(0) == k, "matmul inner dimension mismatch");
  OSP_CHECK(c.rank() == 2 && c.dim(0) == m && c.dim(1) == n,
            "matmul output shape mismatch");
  if (m * n * k < kSmallGemmElems) {
    matmul_small(m, k, n, a.raw(), b.raw(), c.raw());
    return;
  }
  gemm_blocked(m, n, k, a.raw(), k, Trans::N, b.raw(), n, Trans::N,
               /*accumulate=*/false, c.raw());
}

void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  check_matrix(a, "a");
  check_matrix(b, "b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  OSP_CHECK(b.dim(0) == m, "matmul_tn outer dimension mismatch");
  OSP_CHECK(c.rank() == 2 && c.dim(0) == k && c.dim(1) == n,
            "matmul_tn output shape mismatch");
  if (m * n * k < kSmallGemmElems) {
    matmul_tn_small(m, k, n, a.raw(), b.raw(), c.raw(), /*accumulate=*/false);
    return;
  }
  // C[k,n] = Aᵀ·B: the packed A accessor reads A transposed.
  gemm_blocked(k, n, m, a.raw(), k, Trans::T, b.raw(), n, Trans::N,
               /*accumulate=*/false, c.raw());
}

void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& c) {
  check_matrix(a, "a");
  check_matrix(b, "b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  OSP_CHECK(b.dim(0) == m, "matmul_tn_acc outer dimension mismatch");
  OSP_CHECK(c.rank() == 2 && c.dim(0) == k && c.dim(1) == n,
            "matmul_tn_acc output shape mismatch");
  if (m * n * k < kSmallGemmElems) {
    matmul_tn_small(m, k, n, a.raw(), b.raw(), c.raw(), /*accumulate=*/true);
    return;
  }
  gemm_blocked(k, n, m, a.raw(), k, Trans::T, b.raw(), n, Trans::N,
               /*accumulate=*/true, c.raw());
}

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  check_matrix(a, "a");
  check_matrix(b, "b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  OSP_CHECK(b.dim(1) == k, "matmul_nt inner dimension mismatch");
  OSP_CHECK(c.rank() == 2 && c.dim(0) == m && c.dim(1) == n,
            "matmul_nt output shape mismatch");
  if (m * n * k < kSmallGemmElems) {
    matmul_nt_small(m, k, n, a.raw(), b.raw(), c.raw());
    return;
  }
  // C[m,n] = A·Bᵀ: the packed B accessor reads B transposed, turning the
  // unvectorizable dot-product loop into the shared panel kernel.
  gemm_blocked(m, n, k, a.raw(), k, Trans::N, b.raw(), k, Trans::T,
               /*accumulate=*/false, c.raw());
}

void pack_a_strips(const float* a, std::size_t rows, std::size_t k,
                   std::size_t row_stride, std::size_t col_stride, float* dst) {
  for (std::size_t r0 = 0; r0 < rows; r0 += kMR, dst += kMR * k) {
    const std::size_t mr = std::min(kMR, rows - r0);
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t i = 0; i < kMR; ++i) {
        dst[p * kMR + i] =
            i < mr ? a[(r0 + i) * row_stride + p * col_stride] : 0.0f;
      }
    }
  }
}

void pack_b_panel(const float* b, std::size_t k, std::size_t nr,
                  std::size_t row_stride, std::size_t col_stride, float* dst) {
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < kNR; ++j) {
      dst[p * kNR + j] = j < nr ? b[p * row_stride + j * col_stride] : 0.0f;
    }
  }
}

void gemm_panel(const float* ap, std::size_t m, const float* bp,
                std::size_t kl, std::size_t nr, const float* bias, float* c,
                std::size_t ldc) {
  panel_kernel()(ap, m, bp, kl, nr, bias, /*accumulate=*/false, c, ldc);
}

void add_bias_rows(Tensor& x, std::span<const float> bias) {
  OSP_CHECK(x.rank() == 2, "add_bias_rows needs rank-2");
  OSP_CHECK(bias.size() == x.dim(1), "bias size mismatch");
  const std::size_t rows = x.dim(0), cols = x.dim(1);
  float* px = x.raw();
  const float* pb = bias.data();
  util::ThreadPool::global().parallel_for(
      rows,
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          float* row = px + r * cols;
          for (std::size_t c = 0; c < cols; ++c) row[c] += pb[c];
        }
      },
      std::max<std::size_t>(1, (1u << 15) / std::max<std::size_t>(1, cols)));
}

void sum_rows(const Tensor& x, std::span<float> out) {
  OSP_CHECK(x.rank() == 2, "sum_rows needs rank-2");
  OSP_CHECK(out.size() == x.dim(1), "output size mismatch");
  const std::size_t rows = x.dim(0), cols = x.dim(1);
  const float* px = x.raw();
  float* po = out.data();
  // Parallel over COLUMNS: each out[c] is owned by exactly one chunk and
  // accumulates rows in ascending order, so the result is race-free and
  // bit-identical for every thread count.
  util::ThreadPool::global().parallel_for(
      cols,
      [&](std::size_t c0, std::size_t c1) {
        for (std::size_t r = 0; r < rows; ++r) {
          const float* row = px + r * cols;
          for (std::size_t c = c0; c < c1; ++c) po[c] += row[c];
        }
      },
      std::max<std::size_t>(64, (1u << 15) / std::max<std::size_t>(1, rows)));
}

void softmax_rows(const Tensor& x, Tensor& out) {
  OSP_CHECK(x.rank() == 2, "softmax_rows needs rank-2");
  OSP_CHECK(out.rank() == 2 && out.dim(0) == x.dim(0) && out.dim(1) == x.dim(1),
            "softmax output shape mismatch");
  const std::size_t rows = x.dim(0), cols = x.dim(1);
  OSP_CHECK(cols > 0, "softmax over empty row");
  const float* px = x.raw();
  float* po = out.raw();
  util::ThreadPool::global().parallel_for(
      rows,
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          const float* in = px + r * cols;
          float* o = po + r * cols;
          float mx = in[0];
          for (std::size_t c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
          float denom = 0.0f;
          for (std::size_t c = 0; c < cols; ++c) {
            o[c] = std::exp(in[c] - mx);
            denom += o[c];
          }
          const float inv = 1.0f / denom;
          for (std::size_t c = 0; c < cols; ++c) o[c] *= inv;
        }
      },
      std::max<std::size_t>(1, (1u << 13) / std::max<std::size_t>(1, cols)));
}

void transpose(const Tensor& a, Tensor& b) {
  OSP_CHECK(a.rank() == 2, "transpose needs rank-2");
  const std::size_t m = a.dim(0), n = a.dim(1);
  OSP_CHECK(b.rank() == 2 && b.dim(0) == n && b.dim(1) == m,
            "transpose output shape mismatch");
  const float* pa = a.raw();
  float* pb = b.raw();
  // Tiled to keep both the strided reads and the contiguous writes within
  // cache lines; parallel over output-row blocks.
  constexpr std::size_t kBlock = 64;
  const std::size_t jblocks = (n + kBlock - 1) / kBlock;
  util::ThreadPool::global().parallel_for(
      jblocks,
      [&](std::size_t jb0, std::size_t jb1) {
        for (std::size_t jb = jb0; jb < jb1; ++jb) {
          const std::size_t j0 = jb * kBlock;
          const std::size_t j1 = std::min(n, j0 + kBlock);
          for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
            const std::size_t i1 = std::min(m, i0 + kBlock);
            for (std::size_t j = j0; j < j1; ++j) {
              float* brow = pb + j * m;
              for (std::size_t i = i0; i < i1; ++i) {
                brow[i] = pa[i * n + j];
              }
            }
          }
        }
      },
      std::max<std::size_t>(1, (1u << 15) / std::max<std::size_t>(1, m * kBlock)));
}

namespace {

/// dst[r*kNR + j] = src[idx[r*idx_stride + j]] for r < rows: the kNR-wide
/// row copy every ConvGather pack is made of.
void gather_rows(const float* __restrict src,
                 const std::int32_t* __restrict idx, std::size_t idx_stride,
                 std::size_t rows, float* __restrict dst) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < kNR; ++j) {
      dst[r * kNR + j] = src[idx[r * idx_stride + j]];
    }
  }
}

std::size_t round_up(std::size_t n, std::size_t m) {
  return (n + m - 1) / m * m;
}

/// `g`, once checked to describe a window that fits the padded input.
const Conv2dGeom& validated(const Conv2dGeom& g) {
  OSP_CHECK(g.kernel > 0 && g.stride > 0, "invalid conv geometry");
  OSP_CHECK(g.in_h + 2 * g.pad >= g.kernel && g.in_w + 2 * g.pad >= g.kernel,
            "kernel larger than padded input");
  return g;
}

}  // namespace

ConvGather::ConvGather(const Conv2dGeom& g)
    : image_(validated(g).in_channels * g.in_h * g.in_w),
      patches_(g.patches()),
      patch_len_(g.patch_len()),
      ld_(round_up(g.patches(), kNR)),
      xt_ld_(round_up(g.patch_len(), kNR)) {
  OSP_CHECK(xt_ld_ * ld_ <= std::numeric_limits<std::int32_t>::max() &&
                image_ < std::numeric_limits<std::int32_t>::max(),
            "conv geometry exceeds int32 gather offsets");
  const std::size_t ow = g.out_w();
  const auto zero_slot = static_cast<std::int32_t>(image_);
  x_idx_.assign(patch_len_ * ld_, zero_slot);
  xt_idx_.assign(patches_ * xt_ld_, zero_slot);
  // Signed math: padding can take coordinates negative.
  const auto pad = static_cast<long long>(g.pad);
  for (std::size_t p = 0; p < patches_; ++p) {
    const auto y0 = static_cast<long long>((p / ow) * g.stride) - pad;
    const auto x0 = static_cast<long long>((p % ow) * g.stride) - pad;
    std::size_t k = 0;
    for (std::size_t c = 0; c < g.in_channels; ++c) {
      for (std::size_t ky = 0; ky < g.kernel; ++ky) {
        for (std::size_t kx = 0; kx < g.kernel; ++kx, ++k) {
          const long long iy = y0 + static_cast<long long>(ky);
          const long long ix = x0 + static_cast<long long>(kx);
          if (iy < 0 || ix < 0 || iy >= static_cast<long long>(g.in_h) ||
              ix >= static_cast<long long>(g.in_w)) {
            continue;
          }
          const std::size_t pix = (c * g.in_h + static_cast<std::size_t>(iy)) *
                                      g.in_w +
                                  static_cast<std::size_t>(ix);
          x_idx_[k * ld_ + p] = static_cast<std::int32_t>(pix);
          xt_idx_[p * xt_ld_ + k] = static_cast<std::int32_t>(pix);
        }
      }
    }
  }
  // col2im: each pixel's sources in ascending p (the order a scatter-add
  // col2im adds them), in blocks of kCol2imLanes pixels, padded to the
  // widest pixel's count with dX's zero slot.
  std::vector<std::size_t> count(image_, 0);
  for (const std::int32_t pix : xt_idx_) {
    if (pix != zero_slot) ++count[static_cast<std::size_t>(pix)];
  }
  for (const std::size_t n : count) col2im_width_ = std::max(col2im_width_, n);
  const std::size_t blocks = (image_ + kCol2imLanes - 1) / kCol2imLanes;
  col2im_src_.assign(blocks * col2im_width_ * kCol2imLanes,
                     static_cast<std::int32_t>(patch_len_ * ld_));
  std::fill(count.begin(), count.end(), 0);
  for (std::size_t p = 0; p < patches_; ++p) {
    for (std::size_t k = 0; k < patch_len_; ++k) {
      const std::int32_t pix = xt_idx_[p * xt_ld_ + k];
      if (pix == zero_slot) continue;
      const auto i = static_cast<std::size_t>(pix);
      col2im_src_[((i / kCol2imLanes) * col2im_width_ + count[i]++) *
                      kCol2imLanes +
                  i % kCol2imLanes] = static_cast<std::int32_t>(k * ld_ + p);
    }
  }
}

void ConvGather::pack_x(const float* src, std::size_t p0, float* bp) const {
  OSP_CHECK(p0 % kNR == 0 && p0 < ld_, "pack_x: p0 must start a panel");
  gather_rows(src, x_idx_.data() + p0, ld_, patch_len_, bp);
}

void ConvGather::pack_xt(const float* src, std::size_t k0, float* bp) const {
  OSP_CHECK(k0 % kNR == 0 && k0 < xt_ld_, "pack_xt: k0 must start a panel");
  gather_rows(src, xt_idx_.data() + k0, xt_ld_, patches_, bp);
}

void ConvGather::col2im(const float* dx, float* image) const {
  // kCol2imLanes independent sums per block. A padding slot adds +0.0,
  // which changes no sum: x + 0.0 == x for every x but -0.0, and a float
  // sum that starts at +0.0 never becomes -0.0.
  const std::int32_t* src = col2im_src_.data();
  for (std::size_t i0 = 0; i0 < image_;
       i0 += kCol2imLanes, src += col2im_width_ * kCol2imLanes) {
    float sum[kCol2imLanes] = {};
    for (std::size_t e = 0; e < col2im_width_; ++e) {
      for (std::size_t j = 0; j < kCol2imLanes; ++j) {
        sum[j] += dx[src[e * kCol2imLanes + j]];
      }
    }
    const std::size_t n = std::min(kCol2imLanes, image_ - i0);
    for (std::size_t j = 0; j < n; ++j) image[i0 + j] = sum[j];
  }
}

}  // namespace osp::tensor
