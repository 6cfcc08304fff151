// Ablation A9: end-to-end inference cost of the five-stage pipeline —
// the deployment-side metric (events/second and per-stage share) that
// complements the paper's training-side Figure 3.

#include <benchmark/benchmark.h>

#include "pipeline/pipeline.hpp"
#include "pipeline/track_fit.hpp"

namespace trkx {
namespace {

struct Fixture {
  DetectorConfig detector;
  std::vector<Event> events;
  std::unique_ptr<TrackingPipeline> pipeline;

  explicit Fixture(double particles) {
    detector.mean_particles = particles;
    Rng rng(static_cast<std::uint64_t>(particles) + 9);
    std::vector<Event> train;
    for (int i = 0; i < 2; ++i) {
      Rng er = rng.split();
      train.push_back(generate_event(detector, er));
    }
    for (int i = 0; i < 3; ++i) {
      Rng er = rng.split();
      events.push_back(generate_event(detector, er));
    }
    PipelineConfig cfg;
    cfg.embedding.epochs = 2;
    cfg.filter.epochs = 2;
    cfg.gnn.hidden_dim = 32;
    cfg.gnn.num_layers = 4;
    cfg.gnn.mlp_hidden = 1;
    cfg.gnn_train.epochs = 1;
    cfg.gnn_train.batch_size = 128;
    cfg.gnn_train.shadow = {.depth = 2, .fanout = 4};
    cfg.gnn_train.evaluate_every_epoch = false;
    cfg.use_learned_graphs = false;
    pipeline = std::make_unique<TrackingPipeline>(
        detector.node_feature_dim, detector.edge_feature_dim, cfg);
    pipeline->fit(train, {train.back()});
  }
};

Fixture& fixture_for(double particles) {
  static std::map<double, std::unique_ptr<Fixture>> cache;
  auto it = cache.find(particles);
  if (it == cache.end())
    it = cache.emplace(particles, std::make_unique<Fixture>(particles)).first;
  return *it->second;
}

void BM_PipelineReconstruct(benchmark::State& state) {
  Fixture& f = fixture_for(static_cast<double>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    const PipelineOutput out =
        f.pipeline->reconstruct(f.events[i++ % f.events.size()]);
    benchmark::DoNotOptimize(out);
  }
  state.counters["avg_hits"] = static_cast<double>(f.events[0].num_hits());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelineReconstruct)->Arg(30)->Arg(100)->Iterations(5)
    ->Unit(benchmark::kMillisecond);

void BM_GnnInferenceOnly(benchmark::State& state) {
  Fixture& f = fixture_for(static_cast<double>(state.range(0)));
  const Event& e = f.events[0];
  for (auto _ : state) {
    auto scores = f.pipeline->gnn().gnn->predict(e.node_features,
                                                 e.edge_features, e.graph);
    benchmark::DoNotOptimize(scores);
  }
  state.counters["edges"] = static_cast<double>(e.num_edges());
}
BENCHMARK(BM_GnnInferenceOnly)->Arg(30)->Arg(100)->Iterations(5)
    ->Unit(benchmark::kMillisecond);

void BM_TrackBuildOnly(benchmark::State& state) {
  Fixture& f = fixture_for(100.0);
  const Event& e = f.events[0];
  const auto scores = f.pipeline->gnn().gnn->predict(e.node_features,
                                                     e.edge_features, e.graph);
  TrackBuildConfig cfg;
  for (auto _ : state) {
    auto tracks = build_tracks(e, scores, cfg);
    benchmark::DoNotOptimize(tracks);
  }
}
BENCHMARK(BM_TrackBuildOnly)->Iterations(50)->Unit(benchmark::kMicrosecond);

void BM_TrackFitOnly(benchmark::State& state) {
  Fixture& f = fixture_for(100.0);
  const Event& e = f.events[0];
  const auto scores = f.pipeline->gnn().gnn->predict(e.node_features,
                                                     e.edge_features, e.graph);
  const auto tracks = build_tracks(e, scores, TrackBuildConfig{});
  for (auto _ : state) {
    for (const auto& t : tracks) {
      auto fit = fit_track(e, t, f.detector.b_field);
      benchmark::DoNotOptimize(fit);
    }
  }
  state.counters["tracks"] = static_cast<double>(tracks.size());
}
BENCHMARK(BM_TrackFitOnly)->Iterations(50)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace trkx

BENCHMARK_MAIN();
