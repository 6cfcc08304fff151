// Ablation A3: sparse kernel microbenchmarks — the primitives the
// matrix-based sampler is built from (SpGEMM, SpMM, selection, transpose,
// row sampling).

#include <benchmark/benchmark.h>

#include "graph/generators.hpp"
#include "sparse/sample.hpp"
#include "sparse/spgemm.hpp"

namespace trkx {
namespace {

CsrMatrix random_graph_adjacency(std::size_t n, std::size_t degree,
                                 std::uint64_t seed) {
  Rng rng(seed);
  return random_regular_out(n, degree, rng).symmetric_adjacency();
}

void BM_Spgemm_QA(benchmark::State& state) {
  // The sampler's hot product: a (rows × n) one-nonzero-per-row Q times
  // the adjacency.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t q_rows = 1024;
  CsrMatrix a = random_graph_adjacency(n, 8, 1);
  Rng rng(2);
  std::vector<std::uint32_t> roots;
  for (std::size_t i = 0; i < q_rows; ++i)
    roots.push_back(static_cast<std::uint32_t>(rng.uniform_index(n)));
  CsrMatrix q = CsrMatrix::selection(n, roots);
  for (auto _ : state) {
    CsrMatrix p = spgemm(q, a);
    benchmark::DoNotOptimize(p);
  }
  state.counters["nnz_out"] = static_cast<double>(spgemm(q, a).nnz());
}
BENCHMARK(BM_Spgemm_QA)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

void BM_SpgemmSquare(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  CsrMatrix a = random_graph_adjacency(n, 6, 3);
  for (auto _ : state) {
    CsrMatrix c = spgemm(a, a);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SpgemmSquare)->Arg(1 << 10)->Arg(1 << 12)
    ->Unit(benchmark::kMillisecond);

void BM_Spmm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  CsrMatrix a = random_graph_adjacency(n, 8, 4);
  Rng rng(5);
  Matrix x = Matrix::random_normal(n, 64, rng);
  for (auto _ : state) {
    Matrix y = spmm(a, x);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz() * 64));
}
BENCHMARK(BM_Spmm)->Arg(1 << 12)->Arg(1 << 14)->Unit(benchmark::kMillisecond);

void BM_Transpose(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  CsrMatrix a = random_graph_adjacency(n, 8, 6);
  for (auto _ : state) {
    CsrMatrix t = a.transpose();
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_Transpose)->Arg(1 << 12)->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond);

void BM_InducedDirect(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  CsrMatrix a = random_graph_adjacency(n, 8, 7);
  Rng rng(8);
  auto idx = rng.sample_without_replacement(static_cast<std::uint32_t>(n), 64);
  for (auto _ : state) {
    CsrMatrix s = a.induced(idx);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_InducedDirect)->Arg(1 << 12)->Arg(1 << 14)
    ->Unit(benchmark::kMicrosecond);

void BM_InducedViaSpgemm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  CsrMatrix a = random_graph_adjacency(n, 8, 7);
  Rng rng(8);
  auto idx = rng.sample_without_replacement(static_cast<std::uint32_t>(n), 64);
  for (auto _ : state) {
    CsrMatrix s = induced_via_spgemm(a, idx);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_InducedViaSpgemm)->Arg(1 << 12)->Arg(1 << 14)
    ->Unit(benchmark::kMicrosecond);

void BM_SampleRows(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  CsrMatrix a = random_graph_adjacency(n, 16, 9);
  a.normalize_rows();
  Rng rng(10);
  for (auto _ : state) {
    CsrMatrix s = sample_rows(a, 6, rng);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SampleRows)->Arg(1 << 12)->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace trkx

BENCHMARK_MAIN();
