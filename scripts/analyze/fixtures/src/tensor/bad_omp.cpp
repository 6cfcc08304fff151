// Seeded omp-sharing violations. Line numbers are pinned by
// fixtures/expected.txt — edit both together.
#include <cstddef>

namespace trkx {

void fixture_no_default(float* data, std::size_t n, float s) {
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) data[i] *= s;
}

void fixture_missing_clause(float* dst, const float* src, std::size_t n,
                            float bias) {
#pragma omp parallel for default(none) shared(dst, src) firstprivate(n)
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] + bias;
}

void fixture_unused_clause(float* dst, std::size_t n, float stale) {
#pragma omp parallel for default(none) shared(dst) firstprivate(n, stale)
  for (std::size_t i = 0; i < n; ++i) dst[i] = 1.0f;
}

void fixture_shared_write(const float* data, std::size_t n, double* out) {
  double total = 0.0;
#pragma omp parallel for default(none) shared(data, total) firstprivate(n)
  for (std::size_t i = 0; i < n; ++i) total += data[i];
  *out = total;
}

template <int N>
inline float fixture_scaled(float x) {
  return x * static_cast<float>(N);
}

// Clean: a function-template call is a call, not a captured variable.
void fixture_template_call(float* dst, std::size_t n) {
#pragma omp parallel for default(none) shared(dst) firstprivate(n)
  for (std::size_t i = 0; i < n; ++i) dst[i] = fixture_scaled<2>(dst[i]);
}

}  // namespace trkx
