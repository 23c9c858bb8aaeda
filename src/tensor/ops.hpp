// Tensor kernels: cache-blocked register-tiled matmul, transpose variants,
// elementwise ops, row softmax, and the panel kernel and gather tables of
// nn::Conv2d's implicit-GEMM convolution.
//
// Matmul comes in the three orientations backprop needs:
//   matmul:    C = A·B        (forward)
//   matmul_tn: C = Aᵀ·B       (weight gradient; _acc accumulates into C)
//   matmul_nt: C = A·Bᵀ       (input gradient)
// All orientations route through one shared packed GEMM kernel
// (MC/KC/NC blocking, kMR×kNR register tile) parallelized over output-row
// strips via the global ThreadPool. Each C element is accumulated by a
// single accumulator in ascending-k order, so results are bit-identical
// across thread counts and blocking parameters.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace osp::tensor {

/// C[m,n] = A[m,k] · B[k,n].
void matmul(const Tensor& a, const Tensor& b, Tensor& c);

/// C[k_a_cols,n] = Aᵀ[k,m]ᵀ… precisely: A is [m,k], B is [m,n], C = Aᵀ·B is [k,n].
void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c);

/// A is [m,k], B is [n,k], C = A·Bᵀ is [m,n].
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c);

/// C += Aᵀ·B (accumulating matmul_tn; the GEMM adds straight into the
/// destination instead of materializing a temporary).
void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& c);

/// out[r] = in[r] + bias for every row of a rank-2 tensor (in place).
void add_bias_rows(Tensor& x, std::span<const float> bias);

/// Accumulate the per-column sum of a rank-2 tensor into `out`.
///
/// CONTRACT: this ACCUMULATES (`out[c] += Σ_r x[r,c]`); it never zeroes
/// `out` first. Callers that want a plain sum must zero-fill beforehand.
/// The bias-gradient paths (`nn/linear.cpp`, `nn/conv2d.cpp`) rely on the
/// accumulate behavior to add into persistent gradient buffers that the
/// optimizer zeroes between steps. Rows are added in ascending order per
/// column regardless of thread count.
void sum_rows(const Tensor& x, std::span<float> out);

/// Row-wise softmax of a rank-2 tensor, written into `out` (same shape).
/// Numerically stabilized by max subtraction.
void softmax_rows(const Tensor& x, Tensor& out);

/// B[n,m] = Aᵀ for rank-2 A[m,n].
void transpose(const Tensor& a, Tensor& b);

/// Packed GEMM operands, shared by the blocked matmul above and kernels
/// that pack their own operands (nn::Conv2d gathers its B panels straight
/// from the image). A is packed into k-major strips of kGemmMR = 4 rows, B
/// into k-major panels kGemmNR = 16 columns wide (one AVX-512 register, or
/// two AVX2 registers, per tile row); rows and columns past the matrix
/// read 0.
inline constexpr std::size_t kGemmMR = 4;
inline constexpr std::size_t kGemmNR = 16;

/// Floats pack_a_strips writes for a rows×k matrix.
[[nodiscard]] constexpr std::size_t packed_a_size(std::size_t rows,
                                                  std::size_t k) {
  return (rows + kGemmMR - 1) / kGemmMR * kGemmMR * k;
}

/// Packs the rows×k matrix whose element (i, p) is a[i·row_stride +
/// p·col_stride] into ⌈rows/kGemmMR⌉ strips; strip s starts at
/// dst + s·kGemmMR·k and holds element (s·kGemmMR + i, p) at p·kGemmMR + i.
void pack_a_strips(const float* a, std::size_t rows, std::size_t k,
                   std::size_t row_stride, std::size_t col_stride, float* dst);

/// Packs the k×nr matrix (nr ≤ kGemmNR) whose element (p, j) is
/// b[p·row_stride + j·col_stride] into one panel: dst[p·kGemmNR + j].
void pack_b_panel(const float* b, std::size_t k, std::size_t nr,
                  std::size_t row_stride, std::size_t col_stride, float* dst);

/// One packed B panel `bp` (kl×kGemmNR) against the packed A strips `ap` of
/// an m×kl matrix. Writes
///   c[i·ldc + j] = Σ_p A[i, p]·B[p, j]  (+ bias[i] when bias is non-null)
/// for i < m and j < nr ≤ kGemmNR. Each sum starts at 0 and adds its terms
/// in ascending p, one IEEE multiply then one add per term (never fused),
/// exactly as every matmul above accumulates; the bias is added last. The
/// kernel follows util::simd::active_tier() (portable, AVX2 or AVX-512),
/// and every tier gives the same bits.
void gemm_panel(const float* ap, std::size_t m, const float* bp,
                std::size_t kl, std::size_t nr, const float* bias, float* c,
                std::size_t ldc);

/// Parameters describing a conv/pool window.
struct Conv2dGeom {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 0;   // square kernel
  std::size_t stride = 1;
  std::size_t pad = 0;

  [[nodiscard]] std::size_t out_h() const {
    return (in_h + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t out_w() const {
    return (in_w + 2 * pad - kernel) / stride + 1;
  }
  /// Output positions per image: out_h*out_w.
  [[nodiscard]] std::size_t patches() const { return out_h() * out_w(); }
  /// Inputs one output position reads: C*k*k.
  [[nodiscard]] std::size_t patch_len() const {
    return in_channels * kernel * kernel;
  }
};

/// Implicit im2col for one conv geometry (indirect convolution, Dukhan
/// 2019, arXiv:1907.02129). X[patch_len, patches] is the im2col matrix of
/// one image, X[(c·k + ky)·k + kx, oy·out_w + ox] = image[c, oy·stride + ky
/// − pad, ox·stride + kx − pad]. It is never materialized: int32 tables
/// built once pack GEMM B panels of X or Xᵀ straight from the image, and
/// another runs col2im as a gather.
///
/// A pack reads one sample laid out as its C·H·W image followed by a zero
/// slot (`source_stride()` floats); padding and the lanes past the last
/// row or column of X read that slot, so no pack branches. col2im reads
/// dX the same way: patch_len·ld() floats followed by a zero slot.
class ConvGather {
 public:
  explicit ConvGather(const Conv2dGeom& g);

  [[nodiscard]] std::size_t source_stride() const { return image_ + 1; }
  /// Leading dimension of the dX matrix col2im reads: patches rounded up
  /// to kGemmNR.
  [[nodiscard]] std::size_t ld() const { return ld_; }

  /// bp[k·kGemmNR + j] = X[k, p0 + j] for every k < patch_len: the B panel
  /// of kGemmNR output positions for W·X. p0 is a multiple of kGemmNR
  /// below patches.
  void pack_x(const float* src, std::size_t p0, float* bp) const;

  /// bp[p·kGemmNR + j] = X[k0 + j, p] for every p < patches: the B panel of
  /// kGemmNR rows of X for G·Xᵀ. k0 is a multiple of kGemmNR below
  /// patch_len.
  void pack_xt(const float* src, std::size_t k0, float* bp) const;

  /// image[i] = Σ dx[k·ld() + p] over every (k, p) whose X[k, p] reads
  /// pixel i, summed from 0 in ascending p: the float order of a
  /// scatter-add col2im into a zeroed image. Writes every pixel. dx holds
  /// patch_len·ld() + 1 floats, the last one +0.0.
  void col2im(const float* dx, float* image) const;

 private:
  std::size_t image_;  // C·H·W
  std::size_t patches_;
  std::size_t patch_len_;
  std::size_t ld_;     // patches rounded up to kGemmNR
  std::size_t xt_ld_;  // patch_len rounded up to kGemmNR
  std::vector<std::int32_t> x_idx_;   // [patch_len_, ld_]
  std::vector<std::int32_t> xt_idx_;  // [patches_, xt_ld_]
  static constexpr std::size_t kCol2imLanes = 8;
  std::size_t col2im_width_ = 0;  // most sources of any pixel
  // [pixel block, source, lane] offsets into dx, padded with the zero slot
  std::vector<std::int32_t> col2im_src_;
};

}  // namespace osp::tensor
