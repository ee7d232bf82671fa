// Microbenchmark — the memory-estimator MLP: training step throughput and
// single-row inference (the cost Algorithm 1 pays per candidate, Table II's
// "Memory Estimation" row) for the two nets that matter, both on the
// estimator's feature vector (14 inputs):
//   fast  {14,128,128,1}          the benches' and time_to_plan's profile
//   paper {14,200,200,200,200,1}  five layers, 200 hidden (§VI)
// items_per_second is training steps (or inferences) per second.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "estimators/mlp_memory.h"
#include "mlp/network.h"
#include "model/gpt_zoo.h"

using namespace pipette;

namespace {

const model::TrainingJob kJob{model::gpt_3_1b(), 512};
const parallel::TrainPlan kPlan{{8, 2, 8}, 2};

// The estimator's input width, read off a real feature vector so the nets
// follow the feature set (14 at kFeatureVersion 2).
int feature_dim() {
  return static_cast<int>(estimators::MlpMemoryEstimator::features(kJob, kPlan).size());
}

std::vector<int> net_shape(int profile) {
  if (profile == 0) return {feature_dim(), 128, 128, 1};
  return {feature_dim(), 200, 200, 200, 200, 1};
}

const char* net_label(int profile) { return profile == 0 ? "fast" : "paper"; }

}  // namespace

static void BM_MlpTrainingStep(benchmark::State& state) {
  const int profile = static_cast<int>(state.range(0));
  mlp::Network net(net_shape(profile), 1);
  common::Rng rng(3);
  mlp::Matrix x(32, feature_dim());
  mlp::Matrix y(32, 1);
  for (auto& v : x.data()) v = rng.normal();
  for (auto& v : y.data()) v = rng.normal();
  mlp::AdamOptions adam;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.loss_and_grad(x, y));
    net.adam_step(adam);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(net_label(profile));
}
BENCHMARK(BM_MlpTrainingStep)->ArgName("paper")->Arg(0)->Arg(1);

static void BM_MlpInference(benchmark::State& state) {
  const int profile = static_cast<int>(state.range(0));
  const mlp::Network net(net_shape(profile), 1);
  mlp::Matrix x(1, feature_dim(), 0.3);
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(x)(0, 0));
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(net_label(profile));
}
BENCHMARK(BM_MlpInference)->ArgName("paper")->Arg(0)->Arg(1);

static void BM_FeatureVector(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimators::MlpMemoryEstimator::features(kJob, kPlan));
  }
}
BENCHMARK(BM_FeatureVector);

BENCHMARK_MAIN();
