// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its calls into the library's
// public functions; nothing inside the library is instrumented. A span
// belongs to the thread that opened it, and its parent is the innermost
// span still open on that thread, so a span's self time is its duration
// minus the durations of its children. Spans stay in memory until the
// runner writes them out at exit.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< string literal, never copied
    int parent = -1;        ///< index into spans(), -1 = root
    int thread = 0;         ///< dense per-process thread number
    double t0 = 0.0;        ///< seconds since the tracer's epoch
    double t1 = 0.0;
  };

  /// Totals per span name over every recorded span.
  struct LayerTotals {
    std::size_t count = 0;
    double inclusive_s = 0.0;
    double self_s = 0.0;
  };

  static Tracer& global() {
    static Tracer tracer;
    return tracer;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Open a span on the calling thread; -1 when tracing is off.
  int begin(const char* name) {
    if (!enabled()) return -1;
    std::vector<int>& stack = open_stack();
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = name;
    s.parent = stack.empty() ? -1 : stack.back();
    s.thread = thread_number();
    s.t0 = t;
    spans_.push_back(s);
    const int idx = static_cast<int>(spans_.size()) - 1;
    stack.push_back(idx);
    return idx;
  }

  void end(int idx) {
    if (idx < 0) return;
    const double t = now();
    std::vector<int>& stack = open_stack();
    if (!stack.empty() && stack.back() == idx) stack.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(idx)].t1 = t;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// Per-name inclusive and self time over spans [first, last).
  std::map<std::string, LayerTotals> totals(
      std::size_t first, std::size_t last = static_cast<std::size_t>(-1)) const {
    const std::vector<Span> all = spans();
    last = std::min(last, all.size());
    std::vector<double> child_s(all.size(), 0.0);
    for (std::size_t i = first; i < last; ++i) {
      const int p = all[i].parent;
      if (p >= 0) child_s[static_cast<std::size_t>(p)] += all[i].t1 - all[i].t0;
    }
    std::map<std::string, LayerTotals> out;
    for (std::size_t i = first; i < last; ++i) {
      LayerTotals& t = out[all[i].name];
      const double dur = all[i].t1 - all[i].t0;
      ++t.count;
      t.inclusive_s += dur;
      t.self_s += dur - child_s[i];
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string to_json() const {
    const std::vector<Span> all = spans();
    std::string out = "{\"traceEvents\": [";
    char buf[256];
    for (std::size_t i = 0; i < all.size(); ++i) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"id\": %zu, \"parent\": %d}}",
                    i == 0 ? "" : ",", all[i].name, all[i].thread,
                    all[i].t0 * 1e6, (all[i].t1 - all[i].t0) * 1e6, i,
                    all[i].parent);
      out += buf;
    }
    out += "\n]}\n";
    return out;
  }

 private:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  static std::vector<int>& open_stack() {
    thread_local std::vector<int> stack;
    return stack;
  }

  int thread_number() {
    thread_local int number = next_thread_.fetch_add(1);
    return number;
  }

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<int> next_thread_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : idx_(Tracer::global().begin(name)) {}
  ~ScopedSpan() { Tracer::global().end(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int idx_;
};

}  // namespace perfbench
