// Kernel-layer roofline: per-kernel bandwidth (GB/s) and arithmetic
// throughput (GFLOP/s) for the scalar and AVX2 dispatch tables — the GEMM
// family at the hidden-32 shapes training runs, the streaming kernels at
// a generic 8192 × 64 size.
//
//   ./bench_kernels [--reps 9] [--inner 4]
//
// Each row is one (kernel, isa) pair: the median wall time plus derived
// GB/s and GFLOP/s, and AVX2 rows add the speedup over scalar, so the
// DESIGN.md roofline table reads straight off the console. On hosts
// without AVX2+FMA only the scalar rows are printed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>


#include "sparse/spgemm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/matrix.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace trkx {
namespace {

using Clock = std::chrono::steady_clock;

/// Median wall seconds of `reps` timed runs, each executing fn() `inner`
/// times (inner repetition amortises clock granularity on fast kernels).
template <typename Fn>
double median_seconds(int reps, int inner, Fn&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  fn();  // warm-up: page in buffers, resolve dispatch
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < inner; ++i) fn();
    const auto t1 = Clock::now();
    t.push_back(std::chrono::duration<double>(t1 - t0).count() / inner);
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

struct Workload {
  std::string name;
  double bytes;   // touched per run (read + write), for GB/s
  double flops;   // arithmetic per run, for GFLOP/s
  double scalar_s = 0.0;
};

/// Streaming kernels (spmm, gather, elementwise, reductions, layer norm,
/// Adam) run on 8192 × 64 floats: 2 MiB per operand, a generic
/// message-passing size rather than one particular layer.
constexpr std::size_t kRows = 8192;
constexpr std::size_t kCols = 64;
constexpr std::size_t kEwN = kRows * kCols;

/// The GEMM family runs the hidden-32 edge-MLP shapes of training: the
/// first edge-MLP layer maps the 6h = 192-wide message input of every
/// edge to h = 32, so forward is gemm (E×192 · 192×32), the input
/// gradient gemm_nt (E×32 · (192×32)ᵀ) and the weight gradient gemm_tn
/// ((E×192)ᵀ · E×32). E is a ShaDow minibatch's edge count order; the
/// activation operand is post-relu (about half exact zeros), so the
/// zero-skip the kernels keep is exercised as in training.
constexpr std::size_t kEdges = 16384;
constexpr std::size_t kHidden = 32;
constexpr std::size_t kMsgIn = 6 * kHidden;

void run_isa(const kernels::KernelTable& t, int reps, int inner,
             std::vector<Workload>& loads, bool is_scalar) {
  Rng rng(17);
  Matrix act = Matrix::random_normal(kEdges, kMsgIn, rng);  // E×192
  for (std::size_t i = 0; i < act.size(); ++i)
    act.data()[i] = std::max(act.data()[i], 0.0f);
  const Matrix wt = Matrix::random_normal(kMsgIn, kHidden, rng);    // 192×32
  const Matrix dy = Matrix::random_normal(kEdges, kHidden, rng);    // E×32
  Matrix h_out(kEdges, kHidden), dx(kEdges, kMsgIn), dw(kMsgIn, kHidden);
  const Matrix x = Matrix::random_normal(kRows, kCols, rng);
  const Matrix y = Matrix::random_normal(kRows, kCols, rng);
  Matrix out(kRows, kCols);
  std::vector<float> gamma(kCols, 1.0f), beta(kCols, 0.1f);
  std::vector<float> xhat(kEwN), inv_std(kRows), colsum(kCols);

  // ~degree-8 random sparse adjacency for spmm.
  std::vector<Triplet> trips;
  for (std::size_t r = 0; r < kRows; ++r)
    for (int d = 0; d < 8; ++d)
      trips.push_back({static_cast<std::uint32_t>(r),
                       static_cast<std::uint32_t>(rng.uniform_index(kRows)),
                       1.0f});
  const CsrMatrix adj = CsrMatrix::from_triplets(kRows, kRows, trips);
  const double nnz = static_cast<double>(adj.nnz());

  std::vector<std::uint32_t> idx(kRows);
  for (std::size_t i = 0; i < kRows; ++i)
    idx[i] = static_cast<std::uint32_t>(rng.uniform_index(kRows));

  Matrix w = Matrix::random_normal(kRows, kCols, rng);
  Matrix m0(kRows, kCols, 0.0f), v0(kRows, kCols, 0.0f);
  const kernels::AdamStep step{1e-3f, 0.9f, 0.999f, 1e-8f, 0.0f, 1.111f,
                               1.001f};

  struct Case {
    const char* name;
    double bytes;
    double flops;
    std::function<void()> fn;
  };
  const double fR = static_cast<double>(kRows), fC = static_cast<double>(kCols),
               fN = static_cast<double>(kEwN);
  const double fE = static_cast<double>(kEdges),
               fH = static_cast<double>(kHidden),
               fI = static_cast<double>(kMsgIn);
  // GEMM bytes: each operand read once and the output written (plus read
  // for the accumulating gemm/gemm_tn); flops count the dense 2·m·k·n.
  const double gemm_flops = 2.0 * fE * fI * fH;
  std::vector<Case> cases;
  cases.push_back({"gemm", 4.0 * (fE * fI + fI * fH + 2.0 * fE * fH),
                   gemm_flops, [&] {
                     std::memset(h_out.data(), 0, h_out.size() * sizeof(float));
                     t.gemm(act.data(), wt.data(), h_out.data(), kEdges,
                            kMsgIn, kHidden);
                   }});
  cases.push_back({"gemm_nt", 4.0 * (fE * fH + fI * fH + fE * fI),
                   gemm_flops, [&] {
                     t.gemm_nt(dy.data(), wt.data(), dx.data(), kEdges,
                               kHidden, kMsgIn);
                   }});
  cases.push_back({"gemm_tn", 4.0 * (fE * fI + fE * fH + 2.0 * fI * fH),
                   gemm_flops, [&] {
                     std::memset(dw.data(), 0, dw.size() * sizeof(float));
                     t.gemm_tn(act.data(), dy.data(), dw.data(), kMsgIn,
                               kEdges, kHidden);
                   }});
  cases.push_back({"spmm", 4.0 * (nnz * 2.0 + fR * fC * 2.0 + nnz * fC),
                   2.0 * nnz * fC, [&] {
                     std::memset(out.data(), 0, kEwN * sizeof(float));
                     t.spmm(adj.row_ptr().data(), adj.col_idx().data(),
                            adj.values().data(), x.data(), out.data(), kRows,
                            kCols);
                   }});
  cases.push_back({"row_gather", 4.0 * (fN * 2.0) + 4.0 * fR, 0.0, [&] {
                     t.row_gather(x.data(), idx.data(), out.data(), kRows,
                                  kCols);
                   }});
  cases.push_back({"ew_add", 4.0 * fN * 3.0, fN, [&] {
                     t.ew_add(x.data(), y.data(), out.data(), kEwN);
                   }});
  cases.push_back({"ew_axpy", 4.0 * fN * 3.0, 2.0 * fN, [&] {
                     t.ew_axpy(out.data(), 0.5f, x.data(), kEwN);
                   }});
  cases.push_back({"rowwise_sum", 4.0 * (fN + fR), fN, [&] {
                     t.rowwise_sum(x.data(), inv_std.data(), kRows, kCols);
                   }});
  cases.push_back({"colwise_sum", 4.0 * (fN + 2.0 * fC), fN, [&] {
                     std::memset(colsum.data(), 0, kCols * sizeof(float));
                     t.colwise_sum(x.data(), colsum.data(), kRows, kCols);
                   }});
  cases.push_back({"layer_norm_fwd", 4.0 * (fN * 3.0 + fR + 2.0 * fC),
                   8.0 * fN, [&] {
                     t.layer_norm_fwd(x.data(), gamma.data(), beta.data(),
                                      out.data(), xhat.data(), inv_std.data(),
                                      kRows, kCols, 1e-5f);
                   }});
  cases.push_back({"adam_update", 4.0 * fN * 7.0, 11.0 * fN, [&] {
                     t.adam_update(w.data(), x.data(), m0.data(), v0.data(),
                                   kEwN, step);
                   }});

  for (std::size_t c = 0; c < cases.size(); ++c) {
    const Case& k = cases[c];
    const double sec = median_seconds(reps, inner, k.fn);
    if (is_scalar) {
      loads.push_back({k.name, k.bytes, k.flops, sec});
    }
    double speedup = 1.0;
    if (!is_scalar) {
      for (const Workload& wl : loads)
        if (wl.name == k.name) speedup = wl.scalar_s / sec;
    }
    std::printf("  %-16s %-6s  %8.1f us  %7.2f GB/s  %7.2f GFLOP/s", k.name,
                t.name, sec * 1e6, k.bytes / sec / 1e9, k.flops / sec / 1e9);
    if (!is_scalar)
      std::printf("  %5.2fx vs scalar", speedup);
    std::printf("\n");
  }
}

}  // namespace
}  // namespace trkx

int main(int argc, char** argv) {
  using namespace trkx;
  set_log_level(LogLevel::kWarn);
  ArgParser args(argc, argv);
  const int reps = args.get_int("reps", 9);
  const int inner = args.get_int("inner", 4);

  std::printf("=== Kernel roofline: scalar vs AVX2 dispatch tables ===\n");
  std::vector<Workload> loads;
  run_isa(kernels::scalar_table(), reps, inner, loads, /*is_scalar=*/true);
  if (kernels::host_has_avx2()) {
    run_isa(kernels::avx2_table(), reps, inner, loads, /*is_scalar=*/false);
  } else {
    std::printf("host lacks AVX2+FMA: scalar series only\n");
  }

  return 0;
}
