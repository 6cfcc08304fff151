#pragma once

#include <cstdint>
#include <initializer_list>

namespace trkx {

/// Inert stand-in for the deleted tape memory planner. It exists only
/// because perfbench/runner.cpp still includes it and opens a Scope per
/// step; it goes with the next change to the benchmark. Nothing else may
/// include it: TensorPool is the only allocator.
class MemoryPlanner {
 public:
  struct Scope {
    explicit Scope(std::uint64_t /*signature*/) {}
  };

  /// FNV-1a over the step's shape-defining dimensions.
  static std::uint64_t fingerprint(std::initializer_list<std::uint64_t> dims) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint64_t d : dims)
      for (int b = 0; b < 8; ++b)
        h = (h ^ ((d >> (8 * b)) & 0xffu)) * 1099511628211ull;
    return h;
  }
};

}  // namespace trkx
