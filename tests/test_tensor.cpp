// Tensor library tests: shapes, access, matmul orientations against naive
// references, the conv gather (implicit im2col) and its col2im adjoint, the
// packed panel kernel (in every SIMD tier), softmax, and initializers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace osp::tensor {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (float v : t.data()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Tensor, FillConstructor) {
  Tensor t({2, 2}, 3.5f);
  for (float v : t.data()) EXPECT_FLOAT_EQ(v, 3.5f);
}

TEST(Tensor, ExplicitDataValidated) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}),
               util::CheckError);
}

TEST(Tensor, From1D) {
  Tensor t = Tensor::from({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.rank(), 1u);
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_FLOAT_EQ(t[1], 2.0f);
}

TEST(Tensor, TwoDAccessRowMajor) {
  Tensor t({2, 3});
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t[5], 5.0f);
  EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
}

TEST(Tensor, TwoDAccessBoundsChecked) {
  Tensor t({2, 3});
  EXPECT_THROW((void)t.at(2, 0), util::CheckError);
  EXPECT_THROW((void)t.at(0, 3), util::CheckError);
}

TEST(Tensor, FourDAccessNchw) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.0f;
  EXPECT_FLOAT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3});
  t.at(0, 1) = 7.0f;
  t.reshape({3, 2});
  EXPECT_FLOAT_EQ(t.at(0, 1), 7.0f);  // flat index 1 unchanged
  EXPECT_THROW(t.reshape({4, 2}), util::CheckError);
}

TEST(Tensor, ReshapedCopyLeavesOriginal) {
  Tensor t({2, 2});
  Tensor r = t.reshaped({4});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(r.rank(), 1u);
}

TEST(Tensor, RowSpanWritesThrough) {
  Tensor t({2, 3});
  auto row = t.row(1);
  row[0] = 4.0f;
  EXPECT_FLOAT_EQ(t.at(1, 0), 4.0f);
}

TEST(Tensor, ShapeHelpers) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(shape_numel({}), 1u);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

// Naive reference matmul for verification.
Tensor ref_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float s = 0.0f;
      for (std::size_t p = 0; p < k; ++p) s += a.at(i, p) * b.at(p, j);
      c.at(i, j) = s;
    }
  }
  return c;
}

Tensor random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Tensor t({r, c});
  for (float& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

class MatmulSizes : public ::testing::TestWithParam<
                        std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(MatmulSizes, MatchesNaiveReference) {
  auto [m, k, n] = GetParam();
  util::Rng rng(m * 1000 + k * 100 + n);
  const Tensor a = random_matrix(m, k, rng);
  const Tensor b = random_matrix(k, n, rng);
  Tensor c({m, n});
  matmul(a, b, c);
  const Tensor ref = ref_matmul(a, b);
  for (std::size_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4f) << "at " << i;
  }
}

TEST_P(MatmulSizes, TnMatchesTransposedReference) {
  auto [m, k, n] = GetParam();
  util::Rng rng(42 + m + k + n);
  const Tensor a = random_matrix(m, k, rng);  // will be used transposed
  const Tensor b = random_matrix(m, n, rng);
  Tensor c({k, n});
  matmul_tn(a, b, c);
  Tensor at({k, m});
  transpose(a, at);
  const Tensor ref = ref_matmul(at, b);
  for (std::size_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4f);
  }
}

TEST_P(MatmulSizes, NtMatchesTransposedReference) {
  auto [m, k, n] = GetParam();
  util::Rng rng(77 + m * k * n);
  const Tensor a = random_matrix(m, k, rng);
  const Tensor b = random_matrix(n, k, rng);
  Tensor c({m, n});
  matmul_nt(a, b, c);
  Tensor bt({k, n});
  transpose(b, bt);
  const Tensor ref = ref_matmul(a, bt);
  for (std::size_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(33, 17, 9),
                      std::make_tuple(64, 48, 32),
                      std::make_tuple(128, 70, 5)));

// Shapes chosen to stress the blocked kernel's edges: degenerate rows and
// columns, primes, register-tile boundaries ±1 (the tile is 4×16), and a k
// that crosses the 512-wide kc panel so the accumulator round-trips
// through C.
INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, MatmulSizes,
    ::testing::Values(std::make_tuple(1, 257, 1), std::make_tuple(257, 1, 9),
                      std::make_tuple(1, 9, 257),
                      std::make_tuple(13, 29, 31),
                      std::make_tuple(63, 65, 64),
                      std::make_tuple(65, 64, 63),
                      std::make_tuple(127, 129, 65),
                      std::make_tuple(31, 520, 17)));

TEST(Ops, MatmulTnAccAccumulatesIntoC) {
  // Each C element continues from its old value and adds its terms in
  // ascending order, bit for bit, on the straight-loop path (30x7x11), on
  // the blocked path with partial tiles (130x37x45), and across the
  // 512-deep kc panel (600x9x10).
  util::Rng rng(61);
  for (const auto& [m, k, n] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{30, 7, 11},
        {130, 37, 45},
        {600, 9, 10}}) {
    const Tensor a = random_matrix(m, k, rng);
    const Tensor b = random_matrix(m, n, rng);
    Tensor acc({k, n}, 1.5f);
    matmul_tn_acc(a, b, acc);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        float want = 1.5f;
        for (std::size_t p = 0; p < m; ++p) want += a.at(p, i) * b.at(p, j);
        const float got = acc.at(i, j);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
            << m << "x" << k << "x" << n << " at " << i << "," << j;
      }
    }
  }
}

/// Every SIMD tier this CPU can run, scalar first.
std::vector<util::simd::Tier> runnable_tiers() {
  std::vector<util::simd::Tier> tiers;
  for (int t = 0; t <= static_cast<int>(util::simd::hardware_tier()); ++t) {
    tiers.push_back(static_cast<util::simd::Tier>(t));
  }
  return tiers;
}

TEST(Ops, GemmPanelMatchesMatmulBitwise) {
  // One packed B panel against packed A strips must reproduce matmul's
  // accumulation exactly in every SIMD tier, including partial strips
  // (m % 4 != 0), partial panels (nr < 16: the masked tails), a row stride
  // wider than nr, and the fused bias.
  util::Rng rng(62);
  for (const util::simd::Tier tier : runnable_tiers()) {
    const util::simd::ScopedTier scoped(tier);
    for (const std::size_t m :
         {std::size_t{1}, std::size_t{7}, std::size_t{12}}) {
      for (const std::size_t nr : {std::size_t{1}, std::size_t{3},
                                   std::size_t{8}, std::size_t{15},
                                   kGemmNR}) {
        const std::string where = std::string(util::simd::tier_name(tier)) +
                                  ", m " + std::to_string(m) + ", nr " +
                                  std::to_string(nr);
        const std::size_t k = 37;
        const Tensor a = random_matrix(m, k, rng);
        const Tensor b = random_matrix(k, nr, rng);
        const Tensor bias = random_matrix(1, m, rng);
        Tensor expect({m, nr});
        matmul(a, b, expect);

        const std::size_t strips = (m + kGemmMR - 1) / kGemmMR;
        std::vector<float> ap(strips * kGemmMR * k, 0.0f);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t p = 0; p < k; ++p) {
            ap[(i / kGemmMR) * kGemmMR * k + p * kGemmMR + i % kGemmMR] =
                a.at(i, p);
          }
        }
        std::vector<float> bp(k * kGemmNR, 0.0f);
        for (std::size_t p = 0; p < k; ++p) {
          for (std::size_t j = 0; j < nr; ++j) {
            bp[p * kGemmNR + j] = b.at(p, j);
          }
        }
        // The exported packers produce the same layout, also when they
        // read the operand transposed (row stride 1).
        Tensor at({k, m}), bt({nr, k});
        transpose(a, at);
        transpose(b, bt);
        std::vector<float> ap2(packed_a_size(m, k), -1.0f),
            bp2(k * kGemmNR, -1.0f);
        ASSERT_EQ(ap2.size(), ap.size());
        pack_a_strips(at.raw(), m, k, 1, m, ap2.data());
        pack_b_panel(bt.raw(), k, nr, 1, k, bp2.data());
        EXPECT_EQ(ap2, ap) << where;
        EXPECT_EQ(bp2, bp) << where;
        const std::size_t ldc = nr + 5;
        std::vector<float> c(m * ldc, -1.0f), cb(m * ldc, -1.0f);
        gemm_panel(ap.data(), m, bp.data(), k, nr, nullptr, c.data(), ldc);
        gemm_panel(ap.data(), m, bp.data(), k, nr, bias.raw(), cb.data(),
                   ldc);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < ldc; ++j) {
            if (j >= nr) {  // outside the panel: untouched
              EXPECT_EQ(c[i * ldc + j], -1.0f) << where;
              EXPECT_EQ(cb[i * ldc + j], -1.0f) << where;
              continue;
            }
            const float want = expect.at(i, j);
            const float want_b = want + bias[i];
            EXPECT_EQ(std::memcmp(&c[i * ldc + j], &want, sizeof(float)), 0)
                << where;
            EXPECT_EQ(std::memcmp(&cb[i * ldc + j], &want_b, sizeof(float)),
                      0)
                << where;
          }
        }
      }
    }
  }
}

TEST(Ops, BlockedGemmBitwiseInEveryTier) {
  // The blocked GEMM in every SIMD tier, in every orientation, against the
  // straight-loop reference: m % 4 != 0 (a partial strip), n % 16 != 0 (a
  // masked panel tail) and k > 512 (the accumulator round-trips through C
  // between kc panels).
  const std::size_t m = 37, k = 530, n = 45;
  util::Rng rng(63);
  const Tensor a = random_matrix(m, k, rng);
  const Tensor b = random_matrix(k, n, rng);
  Tensor at({k, m}), bt({n, k});
  transpose(a, at);
  transpose(b, bt);
  const Tensor want = ref_matmul(a, b);
  Tensor want_acc({m, n}, 0.5f);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p = 0; p < k; ++p) {
        want_acc.at(i, j) += a.at(i, p) * b.at(p, j);
      }
    }
  }
  const auto same = [](const Tensor& x, const Tensor& y) {
    return std::memcmp(x.raw(), y.raw(), x.numel() * sizeof(float)) == 0;
  };
  for (const util::simd::Tier tier : runnable_tiers()) {
    const util::simd::ScopedTier scoped(tier);
    const char* name = util::simd::tier_name(tier);
    Tensor c({m, n}), tn({m, n}), nt({m, n}), acc({m, n}, 0.5f);
    matmul(a, b, c);
    matmul_tn(at, b, tn);
    matmul_nt(a, bt, nt);
    matmul_tn_acc(at, b, acc);
    EXPECT_TRUE(same(c, want)) << "matmul, " << name;
    EXPECT_TRUE(same(tn, want)) << "matmul_tn, " << name;
    EXPECT_TRUE(same(nt, want)) << "matmul_nt, " << name;
    EXPECT_TRUE(same(acc, want_acc)) << "matmul_tn_acc, " << name;
  }
}

TEST(Ops, KernelsBitIdenticalAcrossThreadCounts) {
  // The parallel decomposition must never change results: run the same
  // inputs under pools of 1, 2, and 5 threads and require byte-equal
  // outputs. Sizes are chosen to cross the parallel thresholds.
  util::Rng rng(5150);
  const Tensor a = random_matrix(127, 130, rng);
  const Tensor b = random_matrix(130, 129, rng);
  const Tensor a2 = random_matrix(127, 33, rng);
  const Tensor bt = random_matrix(129, 130, rng);
  const Tensor wide = random_matrix(5, 9001, rng);

  auto run_all = [&](Tensor& mm, Tensor& tn, Tensor& nt, Tensor& sm,
                     std::vector<float>& sums) {
    matmul(a, b, mm);
    matmul_tn(a, a2, tn);  // [130,127]·[127,33]
    matmul_nt(a, bt, nt);
    softmax_rows(a, sm);
    sum_rows(wide, sums);
  };

  Tensor mm1({127, 129}), tn1({130, 33}), nt1({127, 129}), sm1({127, 130});
  std::vector<float> sums1(9001, 0.0f);
  {
    util::ThreadPool solo(1);
    util::ThreadPool::ScopedGlobal guard(solo);
    run_all(mm1, tn1, nt1, sm1, sums1);
  }
  for (std::size_t threads : {2, 5}) {
    util::ThreadPool pool(threads);
    util::ThreadPool::ScopedGlobal guard(pool);
    Tensor mm({127, 129}), tn({130, 33}), nt({127, 129}), sm({127, 130});
    std::vector<float> sums(9001, 0.0f);
    run_all(mm, tn, nt, sm, sums);
    EXPECT_EQ(
        std::memcmp(mm.raw(), mm1.raw(), mm.numel() * sizeof(float)), 0)
        << "matmul diverged at " << threads << " threads";
    EXPECT_EQ(
        std::memcmp(tn.raw(), tn1.raw(), tn.numel() * sizeof(float)), 0)
        << "matmul_tn diverged at " << threads << " threads";
    EXPECT_EQ(
        std::memcmp(nt.raw(), nt1.raw(), nt.numel() * sizeof(float)), 0)
        << "matmul_nt diverged at " << threads << " threads";
    EXPECT_EQ(
        std::memcmp(sm.raw(), sm1.raw(), sm.numel() * sizeof(float)), 0)
        << "softmax_rows diverged at " << threads << " threads";
    EXPECT_EQ(std::memcmp(sums.data(), sums1.data(),
                          sums.size() * sizeof(float)),
              0)
        << "sum_rows diverged at " << threads << " threads";
  }
}

TEST(Ops, SumRowsWideMatrixAccumulates) {
  // Wide enough that the column range splits across workers; the +=
  // contract and per-column row order must survive the parallel path.
  const std::size_t rows = 6, cols = 9001;
  Tensor x({rows, cols});
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      x.at(r, c) = static_cast<float>(r + 1) + 0.25f * static_cast<float>(c % 4);
    }
  }
  std::vector<float> out(cols, 2.0f);  // pre-seeded: must accumulate
  util::ThreadPool pool(4);
  util::ThreadPool::ScopedGlobal guard(pool);
  sum_rows(x, out);
  for (std::size_t c = 0; c < cols; c += 997) {
    float expect = 2.0f;
    for (std::size_t r = 0; r < rows; ++r) expect += x.at(r, c);
    EXPECT_FLOAT_EQ(out[c], expect) << "column " << c;
  }
}

TEST(Ops, MatmulShapeMismatchThrows) {
  Tensor a({2, 3}), b({4, 5}), c({2, 5});
  EXPECT_THROW(matmul(a, b, c), util::CheckError);
}

TEST(Ops, AddBiasRows) {
  Tensor x({2, 3}, 1.0f);
  std::vector<float> bias = {1, 2, 3};
  add_bias_rows(x, bias);
  EXPECT_FLOAT_EQ(x.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(x.at(1, 2), 4.0f);
}

TEST(Ops, SumRowsAccumulates) {
  Tensor x({2, 2});
  x.at(0, 0) = 1.0f;
  x.at(1, 0) = 2.0f;
  x.at(0, 1) = 3.0f;
  x.at(1, 1) = 4.0f;
  std::vector<float> out = {10.0f, 0.0f};  // accumulation check
  sum_rows(x, out);
  EXPECT_FLOAT_EQ(out[0], 13.0f);
  EXPECT_FLOAT_EQ(out[1], 7.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  util::Rng rng(4);
  Tensor x = random_matrix(5, 9, rng);
  Tensor out({5, 9});
  softmax_rows(x, out);
  for (std::size_t r = 0; r < 5; ++r) {
    float sum = 0.0f;
    for (float v : out.row(r)) {
      EXPECT_GT(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxStableUnderLargeLogits) {
  Tensor x({1, 3});
  x.at(0, 0) = 1000.0f;
  x.at(0, 1) = 1001.0f;
  x.at(0, 2) = 999.0f;
  Tensor out({1, 3});
  softmax_rows(x, out);
  for (float v : out.data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(out.at(0, 1), out.at(0, 0));
}

TEST(Ops, TransposeRoundTrip) {
  util::Rng rng(8);
  const Tensor a = random_matrix(4, 7, rng);
  Tensor at({7, 4}), back({4, 7});
  transpose(a, at);
  transpose(at, back);
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_FLOAT_EQ(a[i], back[i]);
  }
}

TEST(Conv2dGeom, OutputDims) {
  Conv2dGeom g{3, 8, 8, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 8u);
  EXPECT_EQ(g.out_w(), 8u);
  EXPECT_EQ(g.patch_len(), 27u);
  Conv2dGeom strided{1, 8, 8, 2, 2, 0};
  EXPECT_EQ(strided.out_h(), 4u);
}

/// One sample in ConvGather's source layout: the image, then a zero slot.
std::vector<float> gather_source(const std::vector<float>& image) {
  std::vector<float> src(image);
  src.push_back(0.0f);
  return src;
}

/// X[k, p] read back through pack_x, one kGemmNR-wide panel at a time.
float packed_x(const ConvGather& gather, const Conv2dGeom& g,
               const std::vector<float>& src, std::size_t k, std::size_t p) {
  std::vector<float> panel(g.patch_len() * kGemmNR);
  const std::size_t p0 = p / kGemmNR * kGemmNR;
  gather.pack_x(src.data(), p0, panel.data());
  return panel[k * kGemmNR + (p - p0)];
}

TEST(ConvGather, IdentityKernelPacksTheImage) {
  // 1x1 kernel, stride 1, no pad: X is the image itself, [C, H*W].
  const Conv2dGeom g{2, 3, 3, 1, 1, 0};
  const ConvGather gather(g);
  std::vector<float> img(2 * 3 * 3);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<float>(i + 1);
  }
  const std::vector<float> src = gather_source(img);
  for (std::size_t p = 0; p < 9; ++p) {
    EXPECT_FLOAT_EQ(packed_x(gather, g, src, 0, p), img[p]);
    EXPECT_FLOAT_EQ(packed_x(gather, g, src, 1, p), img[9 + p]);
  }
  // Lanes past the last output position read the zero slot.
  std::vector<float> panel(g.patch_len() * kGemmNR, -1.0f);
  const std::size_t last = (g.patches() - 1) / kGemmNR * kGemmNR;
  gather.pack_x(src.data(), last, panel.data());
  for (std::size_t j = 0; j < kGemmNR; ++j) {
    EXPECT_FLOAT_EQ(panel[j], last + j < 9 ? img[last + j] : 0.0f);
  }
}

TEST(ConvGather, PaddingReadsZero) {
  const Conv2dGeom g{1, 2, 2, 3, 1, 1};
  const ConvGather gather(g);
  const std::vector<float> src = gather_source({1, 2, 3, 4});
  // The window centred on (0,0): its top-left 2x2 is out of bounds.
  EXPECT_FLOAT_EQ(packed_x(gather, g, src, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(packed_x(gather, g, src, 4, 0), 1.0f);  // centre: (0,0)
}

TEST(ConvGather, TransposedPanelsMatchX) {
  // pack_xt lists the same X elements as pack_x, transposed, with the lanes
  // past patch_len reading 0.
  const Conv2dGeom g{3, 5, 4, 3, 2, 1};
  const ConvGather gather(g);
  util::Rng rng(20);
  std::vector<float> img(3 * 5 * 4);
  for (float& v : img) v = static_cast<float>(rng.normal());
  const std::vector<float> src = gather_source(img);
  std::vector<float> panel(g.patches() * kGemmNR);
  for (std::size_t k0 = 0; k0 < g.patch_len(); k0 += kGemmNR) {
    gather.pack_xt(src.data(), k0, panel.data());
    for (std::size_t p = 0; p < g.patches(); ++p) {
      for (std::size_t j = 0; j < kGemmNR; ++j) {
        const float want =
            k0 + j < g.patch_len() ? packed_x(gather, g, src, k0 + j, p) : 0.0f;
        EXPECT_EQ(panel[p * kGemmNR + j], want) << "k=" << k0 + j << " p=" << p;
      }
    }
  }
}

TEST(ConvGather, Col2imIsAdjointOfPack) {
  // <X(x), y> == <x, col2im(y)> for random x, y — the adjoint property
  // that makes conv backward correct.
  const Conv2dGeom g{2, 5, 5, 3, 2, 1};
  const ConvGather gather(g);
  util::Rng rng(21);
  std::vector<float> x(2 * 5 * 5);
  for (float& v : x) v = static_cast<float>(rng.normal());
  const std::vector<float> src = gather_source(x);
  std::vector<float> y(g.patch_len() * gather.ld());
  for (float& v : y) v = static_cast<float>(rng.normal());
  y.push_back(0.0f);  // col2im's zero slot

  double lhs = 0.0;
  for (std::size_t k = 0; k < g.patch_len(); ++k) {
    for (std::size_t p = 0; p < g.patches(); ++p) {
      lhs += packed_x(gather, g, src, k, p) * y[k * gather.ld() + p];
    }
  }
  std::vector<float> xt(x.size(), -7.0f);  // col2im overwrites every pixel
  gather.col2im(y.data(), xt.data());
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) rhs += x[i] * xt[i];

  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(ConvGather, RejectsInvalidGeometry) {
  EXPECT_THROW(ConvGather(Conv2dGeom{1, 4, 4, 0, 1, 0}), util::CheckError);
  EXPECT_THROW(ConvGather(Conv2dGeom{1, 4, 4, 3, 0, 0}), util::CheckError);
  EXPECT_THROW(ConvGather(Conv2dGeom{1, 2, 2, 5, 1, 1}), util::CheckError);
}

TEST(Init, XavierBounds) {
  util::Rng rng(3);
  Tensor t({100, 100});
  xavier_uniform(t, 100, 100, rng);
  const double bound = std::sqrt(6.0 / 200.0);
  for (float v : t.data()) {
    EXPECT_LE(std::abs(v), bound);
  }
}

TEST(Init, HeNormalStddev) {
  util::Rng rng(3);
  Tensor t({200, 200});
  he_normal(t, 200, rng);
  double sum = 0.0, sq = 0.0;
  for (float v : t.data()) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(t.numel());
  const double mean = sum / n;
  const double stddev = std::sqrt(sq / n - mean * mean);
  EXPECT_NEAR(stddev, std::sqrt(2.0 / 200.0), 0.002);
}

TEST(Init, UniformRange) {
  util::Rng rng(5);
  Tensor t({1000});
  uniform_init(t, -0.5f, 0.5f, rng);
  for (float v : t.data()) {
    EXPECT_GE(v, -0.5f);
    EXPECT_LT(v, 0.5f);
  }
}

}  // namespace
}  // namespace osp::tensor
