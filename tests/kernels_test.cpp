#include <gtest/gtest.h>
#include <omp.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "autograd/gradcheck.hpp"
#include "autograd/tape.hpp"
#include "sparse/csr.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace trkx {
namespace {

// Sizes chosen to exercise the 16-lane main loop, the 8-lane loop, and
// every scalar-tail length at least once.
const std::size_t kSizes[] = {1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100, 8205};

std::vector<float> random_vec(std::size_t n, Rng& rng, float lo = -2.0f,
                              float hi = 2.0f) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform(lo, hi);
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Relative-error check for the reassociated (ULP-bounded) kernels: the
/// AVX2 result must agree with scalar to within a tight bound that only
/// accounts for reassociating a length-k float reduction.
void expect_close(const std::vector<float>& ref, const std::vector<float>& got,
                  std::size_t k, const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  const float tol =
      1e-6f * std::sqrt(static_cast<float>(k > 0 ? k : 1)) * 8.0f;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const float denom = std::max(1.0f, std::fabs(ref[i]));
    ASSERT_LE(std::fabs(ref[i] - got[i]) / denom, tol)
        << what << " diverged at " << i << ": " << ref[i] << " vs " << got[i];
  }
}

#define SKIP_WITHOUT_AVX2()                                   \
  do {                                                        \
    if (!kernels::host_has_avx2())                            \
      GTEST_SKIP() << "host lacks AVX2+FMA; nothing to compare"; \
  } while (0)

// ---------- dispatch ----------

TEST(KernelDispatch, ActiveTableResolves) {
  const kernels::KernelTable& t = kernels::active();
  ASSERT_NE(t.name, nullptr);
  EXPECT_TRUE(std::strcmp(t.name, "scalar") == 0 ||
              std::strcmp(t.name, "avx2") == 0);
  if (!kernels::host_has_avx2()) {
    EXPECT_STREQ(t.name, "scalar");
  }
}

TEST(KernelDispatch, SetModeRepointsActive) {
  const kernels::SimdMode before = kernels::mode();
  kernels::set_mode(kernels::SimdMode::kScalar);
  EXPECT_STREQ(kernels::active().name, "scalar");
  if (kernels::host_has_avx2()) {
    kernels::set_mode(kernels::SimdMode::kAvx2);
    EXPECT_STREQ(kernels::active().name, "avx2");
  }
  kernels::set_mode(before);
}

TEST(KernelDispatch, ScalarTableIsScalar) {
  EXPECT_STREQ(kernels::scalar_table().name, "scalar");
  EXPECT_STREQ(kernels::avx2_table().name, "avx2");
}

// ---------- bit-identical kernels ----------

TEST(KernelEquivalence, ElementwiseBitIdentical) {
  SKIP_WITHOUT_AVX2();
  const kernels::KernelTable& sc = kernels::scalar_table();
  const kernels::KernelTable& vx = kernels::avx2_table();
  Rng rng(7);
  for (std::size_t n : kSizes) {
    const auto a = random_vec(n, rng);
    const auto b = random_vec(n, rng);
    std::vector<float> o1(n), o2(n);

    sc.ew_add(a.data(), b.data(), o1.data(), n);
    vx.ew_add(a.data(), b.data(), o2.data(), n);
    EXPECT_TRUE(bitwise_equal(o1, o2)) << "ew_add n=" << n;

    sc.ew_sub(a.data(), b.data(), o1.data(), n);
    vx.ew_sub(a.data(), b.data(), o2.data(), n);
    EXPECT_TRUE(bitwise_equal(o1, o2)) << "ew_sub n=" << n;

    sc.ew_mul(a.data(), b.data(), o1.data(), n);
    vx.ew_mul(a.data(), b.data(), o2.data(), n);
    EXPECT_TRUE(bitwise_equal(o1, o2)) << "ew_mul n=" << n;

    sc.ew_scale(a.data(), 0.37f, o1.data(), n);
    vx.ew_scale(a.data(), 0.37f, o2.data(), n);
    EXPECT_TRUE(bitwise_equal(o1, o2)) << "ew_scale n=" << n;

    auto i1 = a, i2 = a;
    sc.ew_add_inplace(i1.data(), b.data(), n);
    vx.ew_add_inplace(i2.data(), b.data(), n);
    EXPECT_TRUE(bitwise_equal(i1, i2)) << "ew_add_inplace n=" << n;

    i1 = a;
    i2 = a;
    sc.ew_axpy(i1.data(), -1.29f, b.data(), n);
    vx.ew_axpy(i2.data(), -1.29f, b.data(), n);
    EXPECT_TRUE(bitwise_equal(i1, i2)) << "ew_axpy n=" << n;
  }
}

TEST(KernelEquivalence, GatherScatterBitIdentical) {
  SKIP_WITHOUT_AVX2();
  const kernels::KernelTable& sc = kernels::scalar_table();
  const kernels::KernelTable& vx = kernels::avx2_table();
  Rng rng(11);
  for (std::size_t cols : {1u, 5u, 16u, 33u}) {
    const std::size_t src_rows = 40, n_idx = 70;
    const auto x = random_vec(src_rows * cols, rng);
    std::vector<std::uint32_t> idx(n_idx);
    for (auto& i : idx)
      i = static_cast<std::uint32_t>(rng.uniform() * src_rows) % src_rows;

    std::vector<float> g1(n_idx * cols), g2(n_idx * cols);
    sc.row_gather(x.data(), idx.data(), g1.data(), n_idx, cols);
    vx.row_gather(x.data(), idx.data(), g2.data(), n_idx, cols);
    EXPECT_TRUE(bitwise_equal(g1, g2)) << "row_gather cols=" << cols;

    // Scatter with colliding indices: accumulation order must match.
    std::vector<float> d1(src_rows * cols, 0.25f), d2(src_rows * cols, 0.25f);
    const auto src = random_vec(n_idx * cols, rng);
    sc.row_scatter_add(d1.data(), idx.data(), src.data(), n_idx, cols);
    vx.row_scatter_add(d2.data(), idx.data(), src.data(), n_idx, cols);
    EXPECT_TRUE(bitwise_equal(d1, d2)) << "row_scatter_add cols=" << cols;
  }
}

TEST(KernelEquivalence, ColwiseSumBitIdentical) {
  SKIP_WITHOUT_AVX2();
  Rng rng(13);
  for (std::size_t cols : {1u, 7u, 8u, 19u, 64u}) {
    const std::size_t rows = 37;
    const auto a = random_vec(rows * cols, rng);
    std::vector<float> o1(cols, 0.0f), o2(cols, 0.0f);
    kernels::scalar_table().colwise_sum(a.data(), o1.data(), rows, cols);
    kernels::avx2_table().colwise_sum(a.data(), o2.data(), rows, cols);
    EXPECT_TRUE(bitwise_equal(o1, o2)) << "colwise_sum cols=" << cols;
  }
}

TEST(KernelEquivalence, AdamUpdateBitIdentical) {
  SKIP_WITHOUT_AVX2();
  Rng rng(17);
  const kernels::AdamStep step{1e-3f, 0.9f,  0.999f, 1e-8f,
                               1e-2f, 10.0f, 1000.1f};
  for (std::size_t n : kSizes) {
    auto w1 = random_vec(n, rng);
    auto g = random_vec(n, rng);
    auto m1 = random_vec(n, rng, -0.1f, 0.1f);
    auto v1 = random_vec(n, rng, 0.0f, 0.1f);
    auto w2 = w1, m2 = m1, v2 = v1;
    kernels::scalar_table().adam_update(w1.data(), g.data(), m1.data(),
                                        v1.data(), n, step);
    kernels::avx2_table().adam_update(w2.data(), g.data(), m2.data(),
                                      v2.data(), n, step);
    EXPECT_TRUE(bitwise_equal(w1, w2)) << "adam w n=" << n;
    EXPECT_TRUE(bitwise_equal(m1, m2)) << "adam m n=" << n;
    EXPECT_TRUE(bitwise_equal(v1, v2)) << "adam v n=" << n;
  }
}

// ---------- AVX2 GEMM family pinned to its historical loop order ----------

/// Post-relu-like operand: about half exact zeros (the GEMM zero-skip
/// path), plus one -0.0f and one denormal when the buffer is big enough.
std::vector<float> relu_like_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.uniform(-2.0f, 2.0f);
    if (x < 0.0f) x = 0.0f;
  }
  if (n > 1) v[1] = -0.0f;
  if (n > 2) v[2] = 1e-40f;
  return v;
}

std::uint64_t fnv1a(std::uint64_t h, const std::vector<float>& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

using GemmShape = std::tuple<std::size_t, std::size_t, std::size_t>;

/// (m, k, n) shapes hitting every blocking remainder of the AVX2 GEMM
/// family — row blocks (m mod 3), column blocks (32, 8, scalar tail),
/// k chunks (16, 8, scalar tail), k blocks — plus the hidden-32 training
/// shapes (k = 192, n = 32 and its transposes).
const GemmShape kPinnedShapes[] = {
    {97, 192, 32}, {130, 32, 40}, {50, 32, 1},  {1, 1, 1},
    {29, 27, 47},  {33, 8, 13},   {7, 5, 70},   {6, 17, 24},
    {40, 600, 33}, {64, 32, 192}, {2, 1000, 9}, {3, 3, 3},
    {5, 40, 20},
};

/// FNV-1a digests of gemm, gemm_nt and gemm_tn outputs over every pinned
/// shape. The accumulating kernels start from a nonzero C with -0.0f
/// entries so the zero-skip must leave those untouched bit for bit.
std::array<std::uint64_t, 3> gemm_family_digests(
    const kernels::KernelTable& t) {
  std::array<std::uint64_t, 3> h{0xcbf29ce484222325ull, 0xcbf29ce484222325ull,
                                 0xcbf29ce484222325ull};
  Rng rng(41);
  for (auto [m, k, n] : kPinnedShapes) {
    const auto a = relu_like_vec(m * k, rng);
    const auto b = relu_like_vec(k * n, rng);
    auto c = random_vec(m * n, rng);
    for (std::size_t i = 0; i < c.size(); i += 5) c[i] = -0.0f;
    t.gemm(a.data(), b.data(), c.data(), m, k, n);
    h[0] = fnv1a(h[0], c);

    const auto bt = relu_like_vec(n * k, rng);
    std::vector<float> d(m * n, 1.0f);
    t.gemm_nt(a.data(), bt.data(), d.data(), m, k, n);
    h[1] = fnv1a(h[1], d);

    const auto at = relu_like_vec(k * m, rng);
    auto e = random_vec(m * n, rng);
    for (std::size_t i = 0; i < e.size(); i += 5) e[i] = -0.0f;
    t.gemm_tn(at.data(), b.data(), e.data(), m, k, n);
    h[2] = fnv1a(h[2], e);
  }
  return h;
}

TEST(KernelEquivalence, GemmFamilyAvx2Pinned) {
  SKIP_WITHOUT_AVX2();
  const int before = omp_get_max_threads();
  for (int threads : {1, 4}) {
    omp_set_num_threads(threads);
    const auto h = gemm_family_digests(kernels::avx2_table());
    // Captured from the previous (mac_row / dot_row) AVX2 loops: the
    // register-blocked kernels must reproduce them bit for bit.
    EXPECT_EQ(h[0], 0x5ac1992caa6ba81dull) << "gemm, " << threads << " threads";
    EXPECT_EQ(h[1], 0xd127b2c6fe9849f2ull)
        << "gemm_nt, " << threads << " threads";
    EXPECT_EQ(h[2], 0x8b6f179f831e8c2dull)
        << "gemm_tn, " << threads << " threads";
  }
  omp_set_num_threads(before);
}

// ---------- ULP-bounded kernels ----------

TEST(KernelEquivalence, GemmFamilyClose) {
  SKIP_WITHOUT_AVX2();
  const kernels::KernelTable& sc = kernels::scalar_table();
  const kernels::KernelTable& vx = kernels::avx2_table();
  Rng rng(19);
  for (auto [m, k, n] : {GemmShape{3, 5, 7}, {16, 64, 32}, {33, 100, 17},
                         {1, 1, 1}, {97, 192, 32}, {130, 32, 40},
                         {50, 32, 1}}) {
    const auto a = relu_like_vec(m * k, rng);
    const auto b = random_vec(k * n, rng);
    std::vector<float> c1(m * n, 0.0f), c2(m * n, 0.0f);
    sc.gemm(a.data(), b.data(), c1.data(), m, k, n);
    vx.gemm(a.data(), b.data(), c2.data(), m, k, n);
    expect_close(c1, c2, k, "gemm");

    const auto bt = random_vec(n * k, rng);
    std::vector<float> d1(m * n), d2(m * n);
    sc.gemm_nt(a.data(), bt.data(), d1.data(), m, k, n);
    vx.gemm_nt(a.data(), bt.data(), d2.data(), m, k, n);
    expect_close(d1, d2, k, "gemm_nt");

    const auto at = relu_like_vec(k * m, rng);
    std::vector<float> e1(m * n, 0.0f), e2(m * n, 0.0f);
    sc.gemm_tn(at.data(), b.data(), e1.data(), m, k, n);
    vx.gemm_tn(at.data(), b.data(), e2.data(), m, k, n);
    expect_close(e1, e2, k, "gemm_tn");
  }
}

TEST(KernelEquivalence, SpmmClose) {
  SKIP_WITHOUT_AVX2();
  Rng rng(23);
  const std::size_t rows = 50, cols = 40, f = 17;
  std::vector<Triplet> trips;
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if (rng.uniform() < 0.15)
        trips.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j),
                         rng.uniform(-1.0f, 1.0f)});
  const CsrMatrix a = CsrMatrix::from_triplets(rows, cols, trips);
  const auto x = random_vec(cols * f, rng);
  std::vector<float> y1(rows * f, 0.0f), y2(rows * f, 0.0f);
  kernels::scalar_table().spmm(a.row_ptr().data(), a.col_idx().data(),
                               a.values().data(), x.data(), y1.data(), rows,
                               f);
  kernels::avx2_table().spmm(a.row_ptr().data(), a.col_idx().data(),
                             a.values().data(), x.data(), y2.data(), rows, f);
  expect_close(y1, y2, cols, "spmm");
}

TEST(KernelEquivalence, ReductionsAndLayerNormClose) {
  SKIP_WITHOUT_AVX2();
  const kernels::KernelTable& sc = kernels::scalar_table();
  const kernels::KernelTable& vx = kernels::avx2_table();
  Rng rng(29);
  for (std::size_t cols : {1u, 9u, 64u, 131u}) {
    const std::size_t rows = 23;
    const auto x = random_vec(rows * cols, rng);
    std::vector<float> r1(rows), r2(rows);
    sc.rowwise_sum(x.data(), r1.data(), rows, cols);
    vx.rowwise_sum(x.data(), r2.data(), rows, cols);
    expect_close(r1, r2, cols, "rowwise_sum");

    const auto gamma = random_vec(cols, rng, 0.5f, 1.5f);
    const auto beta = random_vec(cols, rng);
    std::vector<float> y1(rows * cols), y2(rows * cols);
    std::vector<float> xh1(rows * cols), xh2(rows * cols);
    std::vector<float> is1(rows), is2(rows);
    sc.layer_norm_fwd(x.data(), gamma.data(), beta.data(), y1.data(),
                      xh1.data(), is1.data(), rows, cols, 1e-5f);
    vx.layer_norm_fwd(x.data(), gamma.data(), beta.data(), y2.data(),
                      xh2.data(), is2.data(), rows, cols, 1e-5f);
    expect_close(y1, y2, cols, "layer_norm_fwd y");
    expect_close(is1, is2, cols, "layer_norm_fwd inv_std");

    const auto dy = random_vec(rows * cols, rng);
    std::vector<float> dx1(rows * cols), dx2(rows * cols);
    sc.layer_norm_bwd_dx(dy.data(), gamma.data(), xh1.data(), is1.data(),
                         dx1.data(), rows, cols);
    vx.layer_norm_bwd_dx(dy.data(), gamma.data(), xh2.data(), is2.data(),
                         dx2.data(), rows, cols);
    expect_close(dx1, dx2, cols, "layer_norm_bwd_dx");
  }
}

// ---------- gradcheck through each dispatch path ----------

/// The representative tape program: matmul + layer_norm + sigmoid +
/// mean_square touches gemm, gemm_nt/tn (backward), layer_norm fwd/bwd,
/// and the elementwise kernels.
GradcheckResult gradcheck_network() {
  Rng rng(31);
  Matrix x = Matrix::random_normal(6, 5, rng);
  Matrix w = Matrix::random_normal(5, 4, rng);
  Matrix gamma = Matrix::random_normal(1, 4, rng, 1.0f, 0.1f);
  Matrix beta = Matrix::random_normal(1, 4, rng, 0.0f, 0.1f);
  return gradcheck(
      [](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var x = tape.leaf(in[0], true);
        Var w = tape.leaf(in[1], true);
        Var gamma = tape.leaf(in[2], true);
        Var beta = tape.leaf(in[3], true);
        Var h = tape.layer_norm(tape.matmul(x, w), gamma, beta, 1e-5f);
        Var loss = tape.mean_square(tape.sigmoid(h));
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(x.grad());
          grads->push_back(w.grad());
          grads->push_back(gamma.grad());
          grads->push_back(beta.grad());
        }
        return v;
      },
      {x, w, gamma, beta});
}

TEST(KernelGradcheck, ScalarPath) {
  const kernels::SimdMode before = kernels::mode();
  kernels::set_mode(kernels::SimdMode::kScalar);
  const auto result = gradcheck_network();
  kernels::set_mode(before);
  EXPECT_TRUE(result.passed) << "max abs err " << result.max_abs_error;
}

TEST(KernelGradcheck, Avx2Path) {
  SKIP_WITHOUT_AVX2();
  const kernels::SimdMode before = kernels::mode();
  kernels::set_mode(kernels::SimdMode::kAvx2);
  const auto result = gradcheck_network();
  kernels::set_mode(before);
  EXPECT_TRUE(result.passed) << "max abs err " << result.max_abs_error;
}

}  // namespace
}  // namespace trkx
