#include "nn/conv2d.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "tensor/init.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace osp::nn {

using tensor::kGemmNR;
using tensor::packed_a_size;
using tensor::Tensor;

Conv2d::Conv2d(std::string name, std::size_t in_channels,
               std::size_t out_channels, std::size_t in_h, std::size_t in_w,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               util::Rng& rng)
    : Layer(std::move(name)),
      geom_{in_channels, in_h, in_w, kernel, stride, pad},
      out_channels_(out_channels),
      weight_({out_channels, geom_.patch_len()}),
      bias_({out_channels}),
      wgrad_({out_channels, geom_.patch_len()}),
      bgrad_({out_channels}),
      gather_(geom_) {
  OSP_CHECK(out_channels > 0, "Conv2d needs positive out_channels");
  tensor::he_normal(weight_, geom_.patch_len(), rng);
}

Tensor Conv2d::forward(const Tensor& input, bool /*train*/) {
  OSP_CHECK(input.rank() == 4, "Conv2d expects NCHW input");
  OSP_CHECK(input.dim(1) == geom_.in_channels && input.dim(2) == geom_.in_h &&
                input.dim(3) == geom_.in_w,
            "Conv2d input geometry mismatch");
  const std::size_t batch = input.dim(0);
  const std::size_t out_c = out_channels_;
  const std::size_t patches = geom_.patches();
  const std::size_t plen = geom_.patch_len();
  const std::size_t src_stride = gather_.source_stride();
  const std::size_t img = src_stride - 1;

  batch_ = batch;
  input_.resize(batch * src_stride);
  for (std::size_t b = 0; b < batch; ++b) {
    std::memcpy(input_.data() + b * src_stride, input.raw() + b * img,
                img * sizeof(float));
    input_[b * src_stride + img] = 0.0f;
  }
  Tensor out({batch, out_c, geom_.out_h(), geom_.out_w()});
  std::vector<float> wpack(packed_a_size(out_c, plen));
  tensor::pack_a_strips(weight_.raw(), out_c, plen, plen, 1, wpack.data());

  // out_b = W · X_b + bias, one kGemmNR-wide panel of output positions at
  // a time, stored as contiguous NCHW rows.
  const float* bias = bias_.raw();
  util::ThreadPool::global().parallel_for(
      batch,
      [&](std::size_t b0, std::size_t b1) {
        thread_local std::vector<float> xpack;
        xpack.resize(plen * kGemmNR);
        float* bp = xpack.data();
        for (std::size_t b = b0; b < b1; ++b) {
          float* o = out.raw() + b * out_c * patches;
          for (std::size_t p0 = 0; p0 < patches; p0 += kGemmNR) {
            const std::size_t nr = std::min(kGemmNR, patches - p0);
            gather_.pack_x(input_.data() + b * src_stride, p0, bp);
            tensor::gemm_panel(wpack.data(), out_c, bp, plen, nr, bias,
                               o + p0, patches);
          }
        }
      },
      1);
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const std::size_t batch = batch_;
  const std::size_t out_c = out_channels_;
  OSP_CHECK(batch > 0, "Conv2d backward before forward");
  OSP_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == batch &&
                grad_out.dim(1) == out_c &&
                grad_out.dim(2) == geom_.out_h() &&
                grad_out.dim(3) == geom_.out_w(),
            "Conv2d grad shape mismatch");
  const std::size_t patches = geom_.patches();
  const std::size_t plen = geom_.patch_len();
  const std::size_t src_stride = gather_.source_stride();
  const std::size_t img = src_stride - 1;
  const std::size_t ld = gather_.ld();
  Tensor dx({batch, geom_.in_channels, geom_.in_h, geom_.in_w});
  std::vector<float> wtpack(packed_a_size(plen, out_c));
  tensor::pack_a_strips(weight_.raw(), plen, out_c, 1, plen, wtpack.data());
  // Every sample's dW_b, kept apart so they can be added in batch order.
  // Workers reach it through this pointer, not their own thread_local.
  thread_local std::vector<float> dw_scratch;
  dw_scratch.resize(batch * out_c * plen);
  float* dw_all = dw_scratch.data();
  const float* g_all = grad_out.raw();

  util::ThreadPool::global().parallel_for(
      batch,
      [&](std::size_t b0, std::size_t b1) {
        thread_local std::vector<float> gpack, bpack, dcols;
        gpack.resize(packed_a_size(out_c, patches));
        bpack.resize(std::max(patches, out_c) * kGemmNR);
        dcols.resize(plen * ld + 1);
        dcols[plen * ld] = 0.0f;  // col2im's zero slot
        float* bp = bpack.data();
        for (std::size_t b = b0; b < b1; ++b) {
          const float* x = input_.data() + b * src_stride;
          const float* g = g_all + b * out_c * patches;
          float* dw = dw_all + b * out_c * plen;
          // dW_b[out_c, plen] = G_b · X_bᵀ, reducing over output positions.
          tensor::pack_a_strips(g, out_c, patches, patches, 1, gpack.data());
          for (std::size_t k0 = 0; k0 < plen; k0 += kGemmNR) {
            const std::size_t nr = std::min(kGemmNR, plen - k0);
            gather_.pack_xt(x, k0, bp);
            tensor::gemm_panel(gpack.data(), out_c, bp, patches, nr, nullptr,
                               dw + k0, plen);
          }
          // dX_b[plen, ld] = Wᵀ · G_b, reducing over output channels.
          for (std::size_t p0 = 0; p0 < patches; p0 += kGemmNR) {
            tensor::pack_b_panel(g + p0, out_c,
                                 std::min(kGemmNR, patches - p0), patches, 1,
                                 bp);
            tensor::gemm_panel(wtpack.data(), plen, bp, out_c, kGemmNR,
                               nullptr, dcols.data() + p0, ld);
          }
          gather_.col2im(dcols.data(), dx.raw() + b * img);
        }
      },
      1);

  // wgrad += dW_b in batch order; bgrad sums G over (sample, position).
  float* wg = wgrad_.raw();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* dw = dw_all + b * out_c * plen;
    for (std::size_t i = 0; i < out_c * plen; ++i) wg[i] += dw[i];
  }
  float* bg = bgrad_.raw();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t o = 0; o < out_c; ++o) {
      const float* g = g_all + (b * out_c + o) * patches;
      for (std::size_t p = 0; p < patches; ++p) bg[o] += g[p];
    }
  }
  return dx;
}

std::vector<ParamRef> Conv2d::params() {
  return {{name() + ".weight", &weight_, &wgrad_},
          {name() + ".bias", &bias_, &bgrad_}};
}

MaxPool2d::MaxPool2d(std::string name, std::size_t channels, std::size_t in_h,
                     std::size_t in_w, std::size_t kernel, std::size_t stride)
    : Layer(std::move(name)),
      channels_(channels),
      in_h_(in_h),
      in_w_(in_w),
      kernel_(kernel),
      stride_(stride),
      out_h_((in_h - kernel) / stride + 1),
      out_w_((in_w - kernel) / stride + 1) {
  OSP_CHECK(kernel > 0 && stride > 0, "MaxPool2d invalid geometry");
  OSP_CHECK(in_h >= kernel && in_w >= kernel, "pool kernel larger than input");
}

Tensor MaxPool2d::forward(const Tensor& input, bool /*train*/) {
  OSP_CHECK(input.rank() == 4 && input.dim(1) == channels_ &&
                input.dim(2) == in_h_ && input.dim(3) == in_w_,
            "MaxPool2d input mismatch");
  const std::size_t batch = input.dim(0);
  in_shape_ = input.shape();
  Tensor out({batch, channels_, out_h_, out_w_});
  argmax_.resize(out.numel());  // every entry is written below
  const float* pi = input.raw();
  float* po = out.raw();
  std::size_t* am = argmax_.data();
  const std::size_t plane = in_h_ * in_w_;
  for (std::size_t base = 0; base < batch * channels_ * plane; base += plane) {
    for (std::size_t oy = 0; oy < out_h_; ++oy) {
      const std::size_t row = base + oy * stride_ * in_w_;
      for (std::size_t ox = 0; ox < out_w_; ++ox) {
        // A window with nothing above -inf (all -inf or NaN) outputs -inf
        // and routes its gradient to its own first element.
        const std::size_t first = row + ox * stride_;
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = first;
        for (std::size_t ky = 0; ky < kernel_; ++ky) {
          for (std::size_t i = first + ky * in_w_;
               i < first + ky * in_w_ + kernel_; ++i) {
            if (pi[i] > best) {
              best = pi[i];
              best_idx = i;
            }
          }
        }
        *po++ = best;
        *am++ = best_idx;
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  OSP_CHECK(grad_out.numel() == argmax_.size(), "MaxPool2d grad mismatch");
  Tensor dx(in_shape_);
  float* pdx = dx.raw();
  const float* pg = grad_out.raw();
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    pdx[argmax_[i]] += pg[i];
  }
  return dx;
}

Tensor Flatten::forward(const Tensor& input, bool /*train*/) {
  OSP_CHECK(input.rank() >= 2, "Flatten expects batched input");
  in_shape_ = input.shape();
  const std::size_t batch = input.dim(0);
  return input.reshaped({batch, input.numel() / batch});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(in_shape_);
}

}  // namespace osp::nn
