// Benchmark-of-record runner: runs one workload in this process and prints
// a human-readable report followed by one result line
//
//   PERFBENCH_RESULT {"workload": ..., "fingerprint": {...}, "metrics": ...}
//
// that perfbench/run.py turns into the benchmark's final JSON line.
//
//   perfbench_runner --workload train_ctd|train_ex3_ddp|serve_ex3
//                    --seed N --seconds S [--trace 0|1]
//                    [--scale full|smoke]
//                    [--trace-out spans.json]
//                    [--perturb-input 1] [--corrupt-output 1]
//
// Every workload has the same shape, because every run reports every
// end-to-end metric: set up (generate events, build the model, for
// serve_ex3 train the whole pipeline) several times and report the median,
// train a GNN for a fixed number of epochs, then serve held-out events of
// the same kind open-loop through serve::ServeServer at a fixed ladder of
// absolute arrival rates. Training is pinned to kDatasetSeed; --seed draws
// the served stream. Every library setting stays at its default; a
// workload chooses only input size, event counts, epochs, rank and worker
// counts, rates and the seed.
//
// With --trace 1 the runner additionally replays one training epoch and
// the serving stream through the library's public calls with spans around
// each call (perfbench/trace.hpp), once untraced and once traced, and
// reports per-layer numbers instead of the end-to-end ones.

#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "detector/presets.hpp"
#include "obs/manifest.hpp"
#include "pipeline/gnn_train.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/track_fit.hpp"
#include "sampling/matrix_shadow.hpp"
#include "serve/server.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"
#include "trace.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace trkx;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

/// Open-loop arrival ladder. Rates, deadline and latency limit are
/// constants of the workload, never derived from the run being measured.
/// The stream runs first at the nominal rate, well below capacity, where
/// p50 and p99 are taken; then climbs probe rungs at fixed steps around a
/// constant capacity estimate until one misses the limit (serve_max_rps);
/// then runs at the overload rate, where goodput is taken.
struct Ladder {
  double nominal = 0;     ///< [1/s]
  double capacity = 0;    ///< estimate the probe rungs bracket [1/s]
  double overload = 0;    ///< [1/s]
  double deadline_ms = 0; ///< per request, counted from its due time
  double limit_ms = 0;    ///< latency limit on p99
  int workers = 2;        ///< ServeServer workers
  /// Probe rungs as multiples of `capacity`, climbed in order.
  static constexpr double kProbeSteps[] = {0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2};
  std::vector<double> rates;  ///< nominal, the probes, overload [1/s]
  std::vector<int> requests;  ///< offered per rung; set from --seconds
  bool is_probe(std::size_t rung) const {
    return rung > 0 && rung + 1 < rates.size();
  }
};

struct Workload {
  bool ctd = false;          ///< CTD-like dense preset, else Ex3-like sparse
  double scale = 0.0;        ///< preset scale of the training events
  double serve_scale = 0.0;  ///< preset scale of the served events
  std::size_t train_events = 0;
  std::size_t val_events = 0;
  /// Distinct held-out events in the stream: enough that the seed hardly
  /// moves the stream's cost (with 64, serve_max_rps followed the seed).
  std::size_t serve_events = 0;
  std::size_t epochs = 0;
  int ranks = 1;             ///< > 1: train_shadow_ddp on simulated ranks
  bool learned_graphs = false;   ///< serve the full learned-graph pipeline
  int omp_threads = 1;       ///< expected OMP_NUM_THREADS (the thread plan)
  int setup_reps = 5;        ///< set-ups per run; setup_s is their median
  double f1_floor = 0.0;     ///< val_f1 must reach this
  Ladder ladder;
};

/// Training is pinned: its events and its randomness (GnnTrainConfig::seed:
/// initial weights, batch order, ShaDow draws) come from this seed, so
/// val_f1 and the trained weights are deterministic and change only when
/// the arithmetic does. --seed draws the served stream. Seeded training
/// moved epoch time by up to 40% (per-event ShaDow cost differs that much
/// between events of equal hit and edge counts) and val_f1 after a few
/// epochs by 15%, both above the bounds the benchmark must hold.
constexpr std::uint64_t kDatasetSeed = 1;

/// The model size of the repository's CPU-sized benches (bench_fig3,
/// bench_ignn): the paper's hidden 64 x 8 layers needs ~10 GB per CTD
/// minibatch at ShaDow d=3, s=6. MLP depth follows the preset (Table I).
IgnnConfig model_config(const DatasetSpec& spec) {
  IgnnConfig g;
  g.node_input_dim = spec.detector.node_feature_dim;
  g.edge_input_dim = spec.detector.edge_feature_dim;
  g.hidden_dim = 32;
  g.num_layers = 4;
  g.mlp_hidden = spec.mlp_hidden_layers - 1;
  return g;
}

/// Served events are smaller than training events where that buys the
/// nominal rate enough requests for a p99 within the run.
Workload make_workload(const std::string& name, bool smoke, double seconds) {
  Workload w;
  Ladder& L = w.ladder;
  if (name == "train_ctd") {
    // P=1 matrix-bulk ShaDow on dense events: forward/backward dominate.
    // Thread plan: 1 OMP thread + 1 prefetch producer; serving: 2 workers
    // x 1 OMP thread + the load generator. With 3 OMP threads identical
    // epochs varied 20% from run to run, and with a 2-thread OMP team per
    // worker the serving p99 varied 40% (one stalled team member stalls
    // the request).
    w.ctd = true;
    w.scale = 0.0015;
    w.serve_scale = 0.0005;
    w.train_events = 1;
    w.val_events = 1;
    w.serve_events = 256;
    w.epochs = 3;
    w.omp_threads = 1;
    w.f1_floor = 0.30;
    L.workers = 2;
    L.nominal = 90;
    L.capacity = 200;
    L.overload = 500;
  } else if (name == "train_ex3_ddp") {
    // 2 simulated ranks on sparse events: small per-rank subgraphs, so
    // all-reduce, rank waiting, sampling and optimizer steps weigh most.
    // Thread plan: 2 ranks x (1 OMP thread + 1 producer); serving: 2
    // workers x 1 OMP thread + the load generator.
    w.scale = 0.05;
    w.serve_scale = 0.025;
    w.train_events = 2;
    w.val_events = 2;
    w.serve_events = 256;
    w.epochs = 4;
    w.ranks = 2;
    w.omp_threads = 1;
    w.f1_floor = 0.50;
    L.workers = 2;
    L.nominal = 75;
    L.capacity = 160;
    L.overload = 400;
  } else if (name == "serve_ex3") {
    // Learned-graph pipeline (embed -> FRNN -> filter -> GNN -> build ->
    // fit) trained in set-up, then served open-loop. Thread plan: 1 OMP
    // thread; serving: 2 workers + the load generator.
    w.scale = 0.015;
    w.serve_scale = 0.01;
    w.train_events = 2;
    w.val_events = 2;
    w.serve_events = 256;
    w.epochs = 2;
    w.learned_graphs = true;
    w.omp_threads = 1;
    w.setup_reps = 3;  // each set-up trains the whole pipeline
    w.f1_floor = 0.25;
    L.workers = 2;
    L.nominal = 100;
    L.capacity = 200;
    // Twice what the fully degraded pipeline (skip-fit, coarse filter)
    // drains, so this rate stays an overload.
    L.overload = 800;
  } else {
    throw Error("unknown workload '" + name + "'");
  }
  // A full admission queue drains well inside the limit, so at overload a
  // request either is rejected at once or completes within the limit. The
  // overload rates are about twice what a busy server drains (back-to-back
  // requests run faster than spaced ones), so goodput measures capacity
  // rather than sitting on the knee.
  L.deadline_ms = 600;
  L.limit_ms = 300;
  if (smoke) {
    // Self-test scale: same code paths, a few seconds per workload.
    w.scale *= 0.5;
    w.serve_scale *= 0.5;
    w.epochs = 2;
    w.serve_events = 2;
    w.setup_reps = 1;
    w.f1_floor = 0.0;
  }
  // The serving ladder fills the run's measured seconds: most of it at the
  // nominal rate, where p50 and p99 are taken, a short stretch per probe
  // rung, and enough at overload for the admission queue and the
  // degradation ladder to settle.
  const auto add_rung = [&](double rate, double share) {
    L.rates.push_back(rate);
    L.requests.push_back(
        std::max(8, static_cast<int>(std::lround(rate * share * seconds))));
  };
  add_rung(L.nominal, 0.45);
  for (double step : Ladder::kProbeSteps) add_rung(step * L.capacity, 0.05);
  add_rung(L.overload, 0.2);
  return w;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Percentile, linear between order statistics; +inf entries (missed
/// requests) sort last and make any percentile they touch +inf.
double pctl(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Inputs and their fingerprint
// ---------------------------------------------------------------------------

struct Inputs {
  DatasetSpec spec;
  Dataset data;  ///< train / val / test (= the served stream's events)
};

struct Fingerprint {
  std::size_t events = 0, hits = 0, edges = 0;
  std::string hash;
};

Fingerprint fingerprint(const Dataset& d) {
  Fingerprint fp;
  Fnv fnv;
  for (const auto* split : {&d.train, &d.val, &d.test}) {
    fnv.value(split->size());
    for (const Event& e : *split) {
      ++fp.events;
      fp.hits += e.num_hits();
      fp.edges += e.num_edges();
      for (const Hit& h : e.hits) {
        fnv.value(h.x);
        fnv.value(h.y);
        fnv.value(h.z);
        fnv.value(h.layer);
        fnv.value(h.particle);
      }
      for (const Edge& edge : e.graph.edges()) {
        fnv.value(edge.src);
        fnv.value(edge.dst);
      }
      fnv.bytes(e.edge_labels.data(), e.edge_labels.size());
    }
  }
  fp.hash = hex64(fnv.h);
  return fp;
}

/// Events come from the library's own generator: training and validation
/// events from kDatasetSeed, the served stream from --seed.
Inputs generate_inputs(const Workload& w, std::uint64_t seed) {
  ScopedSpan span("detector.generate");
  Inputs in;
  in.spec = w.ctd ? ctd_spec(w.scale) : ex3_spec(w.scale);
  const DatasetSpec serve_spec =
      w.ctd ? ctd_spec(w.serve_scale) : ex3_spec(w.serve_scale);
  in.data = generate_dataset(in.spec.name, in.spec.detector, w.train_events,
                             w.val_events, 0, kDatasetSeed);
  in.data.test = generate_dataset(serve_spec.name, serve_spec.detector, 0, 0,
                                  w.serve_events, seed)
                     .test;
  return in;
}

// ---------------------------------------------------------------------------
// Serving: stage-API reference and the open-loop ladder
// ---------------------------------------------------------------------------

using TrackList = std::vector<std::vector<std::uint32_t>>;

TrackList track_hits(const std::vector<TrackCandidate>& tracks) {
  TrackList out;
  out.reserve(tracks.size());
  for (const TrackCandidate& t : tracks) out.push_back(t.hits);
  return out;
}

/// The serial stage-API result for one event: what an undegraded served
/// request must return.
TrackList reference_tracks(const TrackingPipeline& p, const Event& event) {
  Event e = event;
  p.embed_stage(e);
  p.filter_stage(e, 1.0f);
  const std::vector<float> scores = p.gnn_stage(e);
  return track_hits(p.build_stage(e, scores));
}

struct RungResult {
  double rate = 0.0;
  int offered = 0;
  int completed = 0;
  int within_limit = 0;
  int rejected = 0;
  int expired = 0;
  int errored = 0;      ///< unexpected error: an operation failure
  int mismatched = 0;   ///< undegraded result != stage-API reference
  int degraded = 0;
  std::uint64_t retries = 0;
  std::vector<double> latency_ms;  ///< from due time; +inf = missed
  std::vector<double> lag_ms;      ///< generator lateness per request
  std::vector<double> admit_us;    ///< time inside submit()
  std::vector<double> queue_wait_ms;
  double done_s = 0.0;  ///< last completion, from the first due time
  bool backlog_growing = false;

  double p(double q) const { return pctl(latency_ms, q); }
  bool meets(double limit_ms) const {
    return rejected == 0 && expired == 0 && errored == 0 &&
           p(0.99) <= limit_ms && !backlog_growing;
  }
};

RungResult run_rung(serve::ServeServer& server, const Workload& w,
                    const std::vector<Event>& pool,
                    const std::vector<TrackList>& refs, std::size_t rung,
                    bool corrupt_output) {
  const Ladder& L = w.ladder;
  RungResult r;
  r.rate = L.rates[rung];
  r.offered = L.requests[rung];
  const std::size_t n = static_cast<std::size_t>(r.offered);

  const std::uint64_t retries0 = server.counters().retries;

  std::vector<std::optional<std::future<serve::ServeResult>>> futures(n);
  std::vector<double> submit_offset_s(n, 0.0);  ///< submit time - due time
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto due_of = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / r.rate));
  };
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = due_of(i);
    std::this_thread::sleep_until(due);
    // The payload is copied after the due time, so the copy counts as
    // generator lag rather than as memory held for the whole rung.
    Event payload = pool[i % pool.size()];
    const auto t_submit = Clock::now();
    submit_offset_s[i] = std::chrono::duration<double>(t_submit - due).count();
    r.lag_ms.push_back(submit_offset_s[i] * 1e3);
    const auto deadline = serve::Deadline::at(
        due + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(L.deadline_ms)));
    try {
      futures[i] = server.submit(std::move(payload),
                                 serve::Priority::kNormal, deadline);
    } catch (const serve::OverloadError&) {
      ++r.rejected;
    }
    r.admit_us.push_back(seconds_since(t_submit) * 1e6);
  }
  bool corrupted = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!futures[i].has_value()) {
      r.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    try {
      serve::ServeResult res = futures[i]->get();
      ++r.completed;
      // ServeResult::latency_seconds runs from submit(); add the time the
      // request waited for the generator to count from its due time.
      const double ms = (submit_offset_s[i] + res.latency_seconds) * 1e3;
      r.latency_ms.push_back(ms);
      if (ms <= L.limit_ms) ++r.within_limit;
      r.done_s = std::max(r.done_s, static_cast<double>(i) / r.rate + ms / 1e3);
      r.queue_wait_ms.push_back(
          std::max(0.0, res.latency_seconds - res.total_seconds()) * 1e3);
      if (res.degrade_level > 0 || res.fit_skipped) {
        ++r.degraded;
        continue;
      }
      TrackList got = track_hits(res.tracks);
      if (corrupt_output && !corrupted && !got.empty()) {
        got.front().pop_back();  // self-test: a wrong served result
        corrupted = true;
      }
      if (got != refs[i % refs.size()]) ++r.mismatched;
    } catch (const serve::DeadlineExceededError&) {
      ++r.expired;
      r.latency_ms.push_back(std::numeric_limits<double>::infinity());
    } catch (const Error& e) {
      ++r.errored;
      r.latency_ms.push_back(std::numeric_limits<double>::infinity());
      std::printf("  request %zu failed: %s\n", i, e.what());
    }
  }
  r.retries = server.counters().retries - retries0;
  // A backlog that keeps growing shows as later requests waiting longer.
  const std::size_t q = n / 4;
  if (q > 0) {
    const std::vector<double> head(r.latency_ms.begin(),
                                   r.latency_ms.begin() + q);
    const std::vector<double> tail(r.latency_ms.end() - q, r.latency_ms.end());
    r.backlog_growing = median(tail) > 2.0 * median(head) + 0.25 * L.limit_ms;
  }
  return r;
}

struct ServeSummary {
  std::vector<RungResult> rungs;
  double p50_ms = 0, p99_ms = 0, goodput = 0, max_rps = 0;
  double gen_lag_ms_p99 = 0;
};

ServeSummary serve_ladder(serve::ReplicaSet& replicas, const Workload& w,
                          const std::vector<Event>& pool,
                          const std::vector<TrackList>& refs,
                          bool corrupt_output) {
  ServeSummary s;
  serve::ServeConfig cfg;
  cfg.workers = w.ladder.workers;
  serve::ServeServer server(replicas, cfg);
  server.start();
  // Untimed warm-up: each served event is sent once per worker at a time,
  // so the rungs measure warm tensor pools rather than first allocations.
  for (const Event& e : pool) {
    std::vector<std::future<serve::ServeResult>> warm;
    for (int k = 0; k < cfg.workers; ++k)
      warm.push_back(server.submit(e, serve::Priority::kNormal));
    for (auto& f : warm) f.get();
  }
  const Ladder& L = w.ladder;
  std::vector<double> lags;
  bool probe_missed = false;
  for (std::size_t rung = 0; rung < L.rates.size(); ++rung) {
    // The probe rungs stop climbing at the first miss.
    if (L.is_probe(rung) && probe_missed) continue;
    s.rungs.push_back(
        run_rung(server, w, pool, refs, rung, corrupt_output && rung == 0));
    const RungResult& r = s.rungs.back();
    const bool meets = r.meets(L.limit_ms);
    if (L.is_probe(rung) && !meets) probe_missed = true;
    lags.insert(lags.end(), r.lag_ms.begin(), r.lag_ms.end());
    std::printf(
        "  %-8s %4.0f/s: offered %d completed %d within-limit %d rejected %d "
        "expired %d errored %d degraded %d | p50 %.2f ms p99 %.2f ms%s\n",
        rung == 0 ? "nominal" : L.is_probe(rung) ? "probe" : "overload",
        r.rate, r.offered, r.completed, r.within_limit, r.rejected, r.expired,
        r.errored, r.degraded, r.p(0.5), r.p(0.99),
        meets ? "" : " (misses limit)");
    // Requests completed within the limit per second, from the first due
    // time to the last completion.
    if (meets && r.done_s > 0)
      s.max_rps = std::max(s.max_rps, r.within_limit / r.done_s);
  }
  const RungResult& nominal = s.rungs.front();
  const RungResult& over = s.rungs.back();
  s.p50_ms = std::min(nominal.p(0.5), L.deadline_ms);
  s.p99_ms = std::min(nominal.p(0.99), L.deadline_ms);
  s.goodput = static_cast<double>(over.within_limit) / over.offered;
  server.stop();
  s.gen_lag_ms_p99 = pctl(lags, 0.99);
  return s;
}

// ---------------------------------------------------------------------------
// Traced replays
// ---------------------------------------------------------------------------

struct ReplayCounts {
  std::size_t sample_calls = 0, spgemm_calls = 0, roots = 0, sub_edges = 0;
  std::size_t steps = 0, tape_nodes = 0;
  double activation_mb = 0.0;
  std::size_t allreduce_calls = 0, allreduce_bytes = 0;
  double modeled_s = 0.0;
  double wait_s = 0.0;  ///< summed over ranks
  std::vector<double> allreduce_step_s;  ///< one rank's all-reduce per step
  void merge(const ReplayCounts& o) {
    sample_calls += o.sample_calls;
    spgemm_calls += o.spgemm_calls;
    roots += o.roots;
    sub_edges += o.sub_edges;
    steps += o.steps;
    tape_nodes += o.tape_nodes;
    activation_mb += o.activation_mb;
    allreduce_calls += o.allreduce_calls;
    allreduce_bytes += o.allreduce_bytes;
    modeled_s += o.modeled_s;
    wait_s += o.wait_s;
  }
};

/// Domain tag of the trainer's per-(rank, epoch, event, batch) sampling
/// streams (pipeline/gnn_train.cpp), so the replay draws the subgraphs the
/// trainer's first epoch trains on.
constexpr std::uint64_t kSampleStreamTag = 0x53414d504c453344ull;

/// The first training epoch of one rank through the public calls the
/// trainer makes: sample_bulk -> feature gather -> InteractionGnn::forward
/// -> Tape::backward -> synchronize_gradients -> Adam::step, with evaluate
/// at the epoch end as the trainer does by default. Batch order, shards
/// and sampling streams are the trainer's, and each rank builds its own
/// samplers as the trainer does.
ReplayCounts replay_epoch_rank(GnnModel& model, Adam& opt,
                               const std::vector<Event>& train,
                               const std::vector<Event>& val,
                               const GnnTrainConfig& cfg, float pos_weight,
                               Communicator* comm) {
  const int rank = comm ? comm->rank() : 0;
  const int world = comm ? comm->size() : 1;
  std::vector<std::unique_ptr<MatrixShadowSampler>> samplers;
  for (const Event& e : train)
    samplers.push_back(std::make_unique<MatrixShadowSampler>(e.graph, cfg.shadow));
  constexpr std::uint64_t kEpoch = 0;
  ScopedSpan epoch_span("replay.epoch");
  ReplayCounts c;
  const CommStats comm0 = comm ? comm->stats() : CommStats{};
  Rng batch_rng(cfg.seed);
  std::vector<std::uint32_t> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<std::uint32_t>(i);
  batch_rng.shuffle(order);
  for (std::uint32_t ei : order) {
    const Event& event = train[ei];
    if (event.num_hits() == 0) continue;
    const auto global = make_minibatches(event.num_hits(), cfg.batch_size,
                                         batch_rng);
    std::vector<std::vector<std::uint32_t>> local;
    for (const auto& b : global)
      local.push_back(world > 1 ? shard_batch(b, rank, world) : b);
    for (std::size_t bi = 0; bi < local.size(); bi += cfg.bulk_k) {
      const std::size_t k = std::min(cfg.bulk_k, local.size() - bi);
      std::vector<std::vector<std::uint32_t>> chunk;
      for (std::size_t j = bi; j < bi + k; ++j)
        if (!local[j].empty()) chunk.push_back(local[j]);
      Rng rng = Rng::stream(cfg.seed ^ kSampleStreamTag,
                            static_cast<std::uint64_t>(rank), kEpoch, ei, bi);
      std::vector<ShadowSample> samples;
      if (!chunk.empty()) {
        ScopedSpan span("sampling.sample_bulk");
        BulkSampleStats stats;
        samples = samplers[ei]->sample_bulk(chunk, rng, &stats);
        ++c.sample_calls;
        c.spgemm_calls += stats.spgemm_calls;
      }
      std::vector<Matrix> node_x(samples.size()), edge_x(samples.size());
      std::vector<std::vector<float>> labels(samples.size());
      {
        ScopedSpan span("tensor.gather");
        for (std::size_t j = 0; j < samples.size(); ++j) {
          const InducedSubgraph& sub = samples[j].sub;
          node_x[j] = row_gather(event.node_features, sub.vertex_map);
          edge_x[j] = row_gather(event.edge_features, sub.edge_map);
          for (std::uint32_t e : sub.edge_map)
            labels[j].push_back(event.edge_labels[e] != 0 ? 1.0f : 0.0f);
          c.roots += samples[j].roots.size();
          c.sub_edges += sub.graph.num_edges();
        }
      }
      // Empty shards still take part in the gradient all-reduce.
      for (std::size_t j = 0; j < k; ++j) {
        opt.zero_grad();
        if (j < samples.size() && samples[j].sub.graph.num_edges() > 0) {
          const Graph& g = samples[j].sub.graph;
          MemoryPlanner::Scope plan(MemoryPlanner::fingerprint(
              {g.num_vertices(), g.num_edges(), node_x[j].cols(),
               edge_x[j].cols()}));
          TapeContext ctx;
          Var loss;
          {
            ScopedSpan span("gnn.forward");
            Var logits = model.gnn->forward(ctx, node_x[j], edge_x[j], g);
            loss = ctx.tape().bce_with_logits(logits, labels[j], {},
                                              pos_weight);
          }
          c.tape_nodes += ctx.tape().num_nodes();
          c.activation_mb += static_cast<double>(
                                 ctx.tape().activation_floats()) *
                             sizeof(float) / 1e6;
          ScopedSpan span("autograd.backward");
          ctx.backward(loss);
        }
        if (comm) {
          const auto t0 = Clock::now();
          {
            ScopedSpan span("dist.allreduce");
            synchronize_gradients(*comm, model.store, cfg.sync);
          }
          c.allreduce_step_s.push_back(seconds_since(t0));
        }
        {
          ScopedSpan span("nn.optimizer");
          if (cfg.grad_clip > 0.0f) opt.clip_grad_norm(cfg.grad_clip);
          opt.step();
        }
        ++c.steps;
      }
    }
  }
  if (rank == 0 && cfg.evaluate_every_epoch) {
    ScopedSpan span("pipeline.evaluate");
    evaluate_edges(model, val, cfg.eval_threshold);
  }
  if (comm) {
    // Ranks wait for root's evaluation, as at the trainer's epoch-end
    // broadcast; outside every span, like the rest of the epoch end.
    comm->barrier();
    const CommStats& s = comm->stats();
    c.allreduce_calls = s.all_reduce_calls - comm0.all_reduce_calls;
    c.allreduce_bytes = s.all_reduce_bytes - comm0.all_reduce_bytes;
    c.modeled_s = s.modeled_seconds - comm0.modeled_seconds;
  }
  return c;
}

/// Replays one epoch on `ranks` replicas of `trained`; returns per-rank
/// counts summed over ranks.
ReplayCounts replay_epoch(const GnnModel& trained, const Inputs& in, int ranks,
                          const GnnTrainConfig& cfg) {
  const float pos_weight = auto_pos_weight(in.data.train);
  std::vector<std::unique_ptr<GnnModel>> models;
  std::vector<std::unique_ptr<Adam>> opts;
  for (int r = 0; r < ranks; ++r) {
    models.push_back(std::make_unique<GnnModel>(trained.config, cfg.seed));
    models.back()->store.copy_values_from(trained.store);
    opts.push_back(std::make_unique<Adam>(models.back()->store,
                                          AdamOptions{.lr = cfg.lr}));
  }
  ReplayCounts total;
  if (ranks == 1) {
    total = replay_epoch_rank(*models[0], *opts[0], in.data.train, in.data.val,
                              cfg, pos_weight, nullptr);
  } else {
    std::vector<ReplayCounts> per(static_cast<std::size_t>(ranks));
    DistRuntime rt(ranks);
    rt.run([&](Communicator& comm) {
      const std::size_t r = static_cast<std::size_t>(comm.rank());
      per[r] = replay_epoch_rank(*models[r], *opts[r], in.data.train,
                                 in.data.val, cfg, pos_weight, &comm);
    });
    for (const ReplayCounts& c : per) total.merge(c);
    // Every rank enters each step's all-reduce; the last to arrive spends
    // the least time in it, so each rank's wait at a step is its
    // all-reduce time minus the shortest one.
    const std::size_t steps = per.front().allreduce_step_s.size();
    for (std::size_t s = 0; s < steps; ++s) {
      double fastest = std::numeric_limits<double>::infinity();
      for (const ReplayCounts& c : per)
        fastest = std::min(fastest, c.allreduce_step_s.at(s));
      for (const ReplayCounts& c : per)
        total.wait_s += c.allreduce_step_s.at(s) - fastest;
    }
  }
  return total;
}

struct ServeReplay {
  std::size_t requests = 0, frnn_edges = 0, filter_kept = 0;
  std::size_t tracks = 0, fits_ok = 0, mismatched = 0;
};

/// The serving path of one request, stage by stage through the public
/// calls behind TrackingPipeline's stage API.
ServeReplay replay_serving(TrackingPipeline& p, const Inputs& in,
                           const std::vector<TrackList>& refs) {
  ServeReplay out;
  const PipelineConfig& cfg = p.config();
  // TrackingPipeline::fit derives its feature envelope from the training
  // hits; the replay rebuilds the same one.
  FeatureScales scales;
  scales.r_max = 1.0f;
  scales.z_max = 1.0f;
  for (const Event& e : in.data.train)
    for (const Hit& h : e.hits) {
      scales.r_max = std::max(scales.r_max, h.r());
      scales.z_max = std::max(scales.z_max, std::fabs(h.z));
    }
  const std::size_t edge_dim = in.spec.detector.edge_feature_dim;
  for (std::size_t i = 0; i < in.data.test.size(); ++i) {
    ScopedSpan request("serve.request");
    Event e = in.data.test[i];
    if (cfg.use_learned_graphs) {
      Matrix embedded;
      {
        ScopedSpan span("pipeline.embed");
        embedded = p.embedding().embed(e.node_features);
      }
      {
        ScopedSpan span("pipeline.frnn");
        rebuild_event_graph(e, embedded, cfg.frnn, edge_dim, scales);
      }
      out.frnn_edges += e.num_edges();
      {
        ScopedSpan span("pipeline.filter");
        p.filter().apply(e);
      }
      out.filter_kept += e.num_edges();
    }
    std::vector<float> scores;
    {
      // The pipeline's GNN stage is the module's inference forward.
      ScopedSpan span("pipeline.gnn");
      ScopedSpan fwd("gnn.forward");
      if (e.num_edges() > 0)
        scores = p.gnn().gnn->predict(e.node_features, e.edge_features, e.graph);
    }
    std::vector<TrackCandidate> tracks;
    {
      ScopedSpan span("pipeline.build");
      tracks = build_tracks(e, scores, cfg.track);
    }
    {
      ScopedSpan span("pipeline.fit");
      for (const TrackCandidate& t : tracks)
        if (fit_track(e, t, serve::ServeConfig{}.b_field_tesla).has_value())
          ++out.fits_ok;
    }
    out.tracks += tracks.size();
    if (track_hits(tracks) != refs[i]) ++out.mismatched;
    ++out.requests;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

struct MetricOut {
  std::string name, unit;
  double value;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  ArgParser args(argc, argv);
  const std::string name = args.get("workload", "");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  const bool traced = args.get_int("trace", 0) != 0;
  const bool smoke = args.get("scale", "full") == "smoke";
  const double seconds = args.get_double("seconds", 10.0);
  const std::string trace_out = args.get("trace-out", "");
  const bool perturb_input = args.get_int("perturb-input", 0) != 0;
  const bool corrupt_output = args.get_int("corrupt-output", 0) != 0;

  try {
    const Workload w = make_workload(name, smoke, seconds);
    if (omp_get_max_threads() != w.omp_threads)
      throw Error("thread plan: " + name + " expects OMP_NUM_THREADS=" +
                  std::to_string(w.omp_threads) + ", got " +
                  std::to_string(omp_get_max_threads()));
    Tracer::global().set_enabled(traced);

    // ---- set-up, repeated; the last repetition's products are used ----
    std::vector<double> setup_s;
    std::vector<double> setup_epoch_s;  // serve_ex3: pipeline GNN epochs
    Inputs in;
    std::unique_ptr<GnnModel> model;
    std::unique_ptr<TrackingPipeline> pipeline;
    TrainResult pipeline_fit;
    GnnTrainConfig tcfg;  // library defaults
    tcfg.epochs = w.epochs;
    tcfg.seed = kDatasetSeed;
    for (int rep = 0; rep < w.setup_reps; ++rep) {
      const auto t0 = Clock::now();
      in = generate_inputs(w, seed);
      if (perturb_input) in.data.train.front().hits.front().x += 1.0f;
      const IgnnConfig gcfg = model_config(in.spec);
      if (w.learned_graphs) {
        PipelineConfig pcfg;
        pcfg.gnn = gcfg;
        pcfg.gnn_train = tcfg;
        pcfg.use_learned_graphs = true;
        pipeline = std::make_unique<TrackingPipeline>(
            gcfg.node_input_dim, gcfg.edge_input_dim, pcfg);
        {
          ScopedSpan span("pipeline.fit");
          pipeline_fit = pipeline->fit(in.data.train, in.data.val);
        }
        for (const EpochRecord& e : pipeline_fit.epochs)
          setup_epoch_s.push_back(e.wall_seconds);
      } else {
        model = std::make_unique<GnnModel>(gcfg, tcfg.seed);
      }
      setup_s.push_back(seconds_since(t0));
    }
    const Fingerprint fp = fingerprint(in.data);
    std::printf("workload %s seed %llu: %zu events, %zu hits, %zu edges, "
                "inputs %s\n",
                name.c_str(), static_cast<unsigned long long>(seed), fp.events,
                fp.hits, fp.edges, fp.hash.c_str());
    std::printf("set-up: median %.3f s of %d\n", median(setup_s),
                w.setup_reps);

    // ---- training ----
    TrainResult train_result;
    std::unique_ptr<DistRuntime> runtime;
    if (w.learned_graphs) {
      train_result = pipeline_fit;
    } else if (w.ranks == 1) {
      train_result = train_shadow(*model, in.data.train, in.data.val, tcfg,
                                  SamplerKind::kMatrixBulk);
    } else {
      runtime = std::make_unique<DistRuntime>(w.ranks);
      train_result = train_shadow_ddp(*model, in.data.train, in.data.val, tcfg,
                                      *runtime, SamplerKind::kMatrixBulk);
    }
    std::vector<double> epoch_s = setup_epoch_s;
    if (!w.learned_graphs)
      for (const EpochRecord& e : train_result.epochs)
        epoch_s.push_back(e.wall_seconds);
    std::printf("training (program-reported EpochRecord timers):\n");
    bool loss_ok = !train_result.epochs.empty();
    for (std::size_t i = 0; i < train_result.epochs.size(); ++i) {
      const EpochRecord& e = train_result.epochs[i];
      loss_ok = loss_ok && std::isfinite(e.train_loss);
      std::printf("  epoch %zu: %.3f s loss %.5f val_f1 %.4f | sample %.3f "
                  "gather %.3f train %.3f allreduce %.3f stall %.3f\n",
                  i, e.wall_seconds, e.train_loss, e.val.f1(),
                  e.timers.get("sample"), e.timers.get("gather"),
                  e.timers.get("train"), e.timers.get("allreduce"),
                  e.timers.get("prefetch_stall"));
    }
    const double first_loss = train_result.epochs.front().train_loss;
    const double last_loss = train_result.last().train_loss;
    loss_ok = loss_ok && last_loss < first_loss;
    const double val_f1 = train_result.last().val.f1();
    const bool f1_ok = val_f1 >= w.f1_floor;
    const ParameterStore& trained_store =
        w.learned_graphs ? pipeline->gnn().store : model->store;
    Fnv digest;
    const std::vector<float> flat = trained_store.flatten_values();
    digest.bytes(flat.data(), flat.size() * sizeof(float));
    std::printf("training check: loss %.5f -> %.5f %s, val_f1 %.4f (floor "
                "%.2f) %s, parameter digest %s\n",
                first_loss, last_loss, loss_ok ? "falls" : "DOES NOT FALL",
                val_f1, w.f1_floor, f1_ok ? "ok" : "BELOW FLOOR",
                hex64(digest.h).c_str());

    // ---- serving ----
    if (!w.learned_graphs) {
      // Serve the GNN just trained: detector graphs -> GNN -> build -> fit.
      PipelineConfig pcfg;
      pcfg.gnn = model->config;
      pcfg.use_learned_graphs = false;
      pipeline = std::make_unique<TrackingPipeline>(
          model->config.node_input_dim, model->config.edge_input_dim, pcfg);
      pipeline->gnn().store.copy_values_from(model->store);
    }
    std::vector<TrackList> refs;
    for (const Event& e : in.data.test)
      refs.push_back(reference_tracks(*pipeline, e));
    TrackingPipeline* pipe = pipeline.get();
    serve::ReplicaSet replicas(in.spec.detector.node_feature_dim,
                               in.spec.detector.edge_feature_dim,
                               pipeline->config());
    replicas.install(std::move(pipeline), "perfbench");
    std::printf("serving (%d worker(s), deadline %.0f ms, p99 limit %.0f ms):\n",
                w.ladder.workers, w.ladder.deadline_ms, w.ladder.limit_ms);
    const ServeSummary serve =
        serve_ladder(replicas, w, in.data.test, refs, corrupt_output);
    int mismatched = 0, errored = 0, offered = 0, accounted = 0;
    for (const RungResult& r : serve.rungs) {
      mismatched += r.mismatched;
      errored += r.errored;
      offered += r.offered;
      accounted += r.completed + r.rejected + r.expired + r.errored;
    }
    std::printf("serve_p50_ms %.3f ms, serve_p99_ms %.3f ms at the nominal "
                "%.0f/s (%d requests); serve_goodput %.4f at %.0f/s; "
                "serve_p99_ms and serve_goodput are reported, not gated\n",
                serve.p50_ms, serve.p99_ms, w.ladder.nominal,
                w.ladder.requests.front(), serve.goodput, w.ladder.overload);
    const double lag_share = serve.gen_lag_ms_p99 / w.ladder.limit_ms;
    const bool lag_ok = lag_share <= 0.05;
    std::printf("serving check: %d undegraded result(s) differ from the "
                "stage-API reference, %d unexpected error(s), %d of %d "
                "offered accounted for, generator lag p99 %.3f ms (%.1f%% of "
                "the limit, allowed 5%%)%s\n",
                mismatched, errored, accounted, offered, serve.gen_lag_ms_p99,
                100.0 * lag_share, lag_ok ? "" : " INVALID RUN");

    // Operations: every training epoch and every offered request.
    const int attempted =
        offered + static_cast<int>(train_result.epochs.size());
    const int failed = mismatched + errored + (loss_ok ? 0 : 1) +
                       (offered == accounted ? 0 : offered - accounted);
    bool correct = loss_ok && f1_ok && mismatched == 0 && errored == 0 &&
                   offered == accounted && lag_ok;

    std::vector<MetricOut> metrics;
    if (!traced) {
      metrics = {
          {"setup_s", "s", median(setup_s)},
          {"peak_rss_mb", "MB", peak_rss_mb()},
          {"epoch_s_p50", "s", median(epoch_s)},
          {"val_f1", "ratio", val_f1},
          {"serve_p50_ms", "ms", serve.p50_ms},
          {"serve_max_rps", "1/s", serve.max_rps},
      };
    } else {
      // ---- traced replays: untraced first, then traced ----
      ReplayCounts rc;
      ServeReplay sr;
      std::size_t serve_first = 0;  // first span of the serving replay
      const auto run_replays = [&]() {
        const auto t0 = Clock::now();
        if (!w.learned_graphs) rc = replay_epoch(*model, in, w.ranks, tcfg);
        serve_first = Tracer::global().size();
        sr = replay_serving(*pipe, in, refs);
        return seconds_since(t0);
      };
      Tracer::global().set_enabled(false);
      // Two warm-up passes: the second sight of a step shape is slower than
      // the first and third (memory-plan set-up), so untraced and traced
      // passes are compared only once both see warm plans.
      for (int pass = 0; pass < 2; ++pass) run_replays();
      const double untraced_s = run_replays();
      Tracer::global().set_enabled(true);
      const std::size_t train_first = Tracer::global().size();
      const double traced_s = run_replays();
      Tracer::global().set_enabled(false);
      if (sr.mismatched > 0) {
        std::printf("replay check: %zu replayed request(s) differ from the "
                    "stage-API reference\n", sr.mismatched);
        correct = false;
      }
      using Totals = std::map<std::string, Tracer::LayerTotals>;
      const Totals setup_spans = Tracer::global().totals(0, train_first);
      const Totals train_spans = Tracer::global().totals(train_first, serve_first);
      const Totals serve_spans = Tracer::global().totals(serve_first);
      const auto incl = [](const Totals& t, const char* n) {
        auto it = t.find(n);
        return it == t.end() ? 0.0 : it->second.inclusive_s;
      };
      const auto self = [](const Totals& t, const char* n) {
        auto it = t.find(n);
        return it == t.end() ? 0.0 : it->second.self_s;
      };
      // Training layers are reported per rank, serving stages per request.
      const double world = w.ranks;
      const double steps = std::max<double>(1.0, rc.steps);
      const double rank_steps = std::max(1.0, rc.steps / world);
      const double req = std::max<double>(1.0, sr.requests);
      const double epoch_p50 = median(epoch_s);
      double epoch_layers_s = 0.0;
      for (const char* n :
           {"sampling.sample_bulk", "tensor.gather", "gnn.forward",
            "autograd.backward", "dist.allreduce", "nn.optimizer",
            "pipeline.evaluate"})
        epoch_layers_s += self(train_spans, n) / world;
      double request_layers_s = 0.0;
      for (const char* n : {"pipeline.embed", "pipeline.frnn",
                            "pipeline.filter", "gnn.forward",
                            "pipeline.build", "pipeline.fit"})
        request_layers_s += self(serve_spans, n) / req;
      const auto serve_s = [&](const char* n) {
        return incl(serve_spans, n) / req;
      };
      const auto train_s = [&](const char* n) {
        return incl(train_spans, n) / world;
      };
      const RungResult& over = serve.rungs.back();
      metrics = {
          {"detector.generate_s", "s",
           incl(setup_spans, "detector.generate") / w.setup_reps},
          {"sampling.calls", "count", rc.sample_calls / world},
          {"sampling.busy_s", "s", train_s("sampling.sample_bulk")},
          {"sampling.epoch_share", "ratio",
           epoch_p50 > 0 ? train_s("sampling.sample_bulk") / epoch_p50 : 0.0},
          {"sampling.spgemm_calls", "count", rc.spgemm_calls / world},
          {"sampling.sub_edges_per_root", "count",
           rc.roots ? static_cast<double>(rc.sub_edges) / rc.roots : 0.0},
          {"tensor.gather_s", "s", train_s("tensor.gather")},
          // Training forward per rank-epoch; serve_ex3 trains in set-up
          // only, so there it is the inference forward per request.
          {"gnn.forward_s", "s",
           w.learned_graphs ? serve_s("gnn.forward") : train_s("gnn.forward")},
          {"autograd.backward_s", "s", train_s("autograd.backward")},
          {"autograd.tape_nodes", "count", rc.tape_nodes / steps},
          {"autograd.activation_mb", "MB", rc.activation_mb / steps},
          {"nn.optimizer_s", "s", train_s("nn.optimizer")},
          {"nn.steps", "count", rc.steps / world},
          {"dist.allreduce_calls_per_step", "count",
           rc.allreduce_calls / world / rank_steps},
          {"dist.allreduce_bytes_per_step", "B",
           rc.allreduce_bytes / world / rank_steps},
          {"dist.allreduce_s", "s", train_s("dist.allreduce")},
          // The part of dist.allreduce_s a rank spends waiting for the
          // other ranks.
          {"dist.wait_s", "s", rc.wait_s / world},
          {"dist.modeled_s", "s", rc.modeled_s / world},
          {"pipeline.evaluate_s", "s", incl(train_spans, "pipeline.evaluate")},
          {"pipeline.embed_s", "s", serve_s("pipeline.embed")},
          {"pipeline.frnn_s", "s", serve_s("pipeline.frnn")},
          {"pipeline.frnn_edges", "count", sr.frnn_edges / req},
          {"pipeline.filter_s", "s", serve_s("pipeline.filter")},
          {"pipeline.filter_keep_frac", "ratio",
           sr.frnn_edges ? static_cast<double>(sr.filter_kept) / sr.frnn_edges
                         : 0.0},
          {"pipeline.gnn_s", "s", serve_s("pipeline.gnn")},
          {"pipeline.build_s", "s", serve_s("pipeline.build")},
          {"pipeline.fit_s", "s", serve_s("pipeline.fit")},
          {"pipeline.fit_ok_frac", "ratio",
           sr.tracks ? static_cast<double>(sr.fits_ok) / sr.tracks : 0.0},
          {"serve.admit_us", "us", median(over.admit_us)},
          {"serve.queue_wait_ms_p50", "ms", pctl(over.queue_wait_ms, 0.5)},
          {"serve.queue_wait_ms_p99", "ms",
           pctl(over.queue_wait_ms, 0.99)},
          {"serve.rejected", "count", static_cast<double>(over.rejected)},
          {"serve.expired", "count", static_cast<double>(over.expired)},
          {"serve.degraded_frac", "ratio",
           over.completed ? static_cast<double>(over.degraded) / over.completed
                          : 0.0},
          {"serve.retries", "count", static_cast<double>(over.retries)},
          {"serve.gen_lag_ms_p99", "ms", serve.gen_lag_ms_p99},
          // Reported with the layers, without a bound: on the shared 4-core
          // host their spread across runs exceeds any bound the benchmark
          // may set (see the report line of every untraced run).
          {"serve_p99_ms", "ms", serve.p99_ms},
          {"serve_goodput", "ratio", serve.goodput},
          {"trace.overhead_s", "s", traced_s - untraced_s},
          {"trace.overhead_frac", "ratio",
           untraced_s > 0 ? (traced_s - untraced_s) / untraced_s : 0.0},
          {"trace.epoch_accounted_frac", "ratio",
           epoch_p50 > 0 ? epoch_layers_s / epoch_p50 : 0.0},
          {"trace.request_accounted_frac", "ratio",
           serve.p50_ms > 0 ? request_layers_s * 1e3 / serve.p50_ms : 0.0},
      };
      std::printf("traced replay: untraced %.3f s, traced %.3f s\n",
                  untraced_s, traced_s);
      for (const auto* t : {&train_spans, &serve_spans}) {
        std::printf("per-layer self time, %s replay (all threads):\n",
                    t == &train_spans ? "training" : "serving");
        std::printf("  %-24s %8s %12s %12s\n", "span", "count", "incl[s]",
                    "self[s]");
        for (const auto& [n, l] : *t)
          std::printf("  %-24s %8zu %12.4f %12.4f\n", n.c_str(), l.count,
                      l.inclusive_s, l.self_s);
      }
      std::printf("replayed epoch layers account for %.1f%% of epoch_s_p50 "
                  "%.3f s; replayed request stages %.2f ms vs serve_p50_ms "
                  "%.2f ms\n",
                  epoch_p50 > 0 ? 100.0 * epoch_layers_s / epoch_p50 : 0.0,
                  epoch_p50, request_layers_s * 1e3, serve.p50_ms);
      if (!trace_out.empty()) {
        std::ofstream os(trace_out);
        os << Tracer::global().to_json();
        if (!os) throw Error("cannot write " + trace_out);
      }
    }

    const RunManifest m = RunManifest::collect("perfbench");
    std::ostringstream os;
    os.precision(17);
    os << "PERFBENCH_RESULT {\"workload\": \"" << name << "\", \"seed\": "
       << seed << ", \"fingerprint\": {\"events\": " << fp.events
       << ", \"hits\": " << fp.hits << ", \"edges\": " << fp.edges
       << ", \"hash\": \"" << fp.hash << "\"}, \"env\": {\"compiler\": \""
       << json_escape(m.compiler) << "\", \"build_type\": \""
       << json_escape(m.build_type) << "\", \"omp_threads\": "
       << omp_get_max_threads() << ", \"hardware_threads\": "
       << m.hardware_threads << "}, \"correct\": "
       << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"param_digest\": \""
       << hex64(digest.h) << "\", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
}
