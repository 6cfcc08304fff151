// AVX2+FMA instantiation of the kernel bodies. kernels_body.hpp scopes
// the ISA to the kernel bodies with a target pragma, so shared inline
// code emitted here stays baseline x86-64; the TU is always linked, and
// the dispatch table guards execution, so the binary runs on any x86-64
// host. The TU is compiled with -ffp-contract=off (see
// src/tensor/CMakeLists.txt): the compiler never FMA-contracts the
// scalar tail loops and the kernels documented as bit-identical — FMA
// enters only through explicit _mm256_fmadd_ps.

#define TRKX_KERNELS_AVX2 1
#define TRKX_KERNELS_NS avx2_impl
#define TRKX_KERNELS_NAME "avx2"
#include "tensor/kernels/kernels_body.hpp"

namespace trkx {
namespace kernels {

const KernelTable& avx2_table() { return avx2_impl::table(); }

}  // namespace kernels
}  // namespace trkx
