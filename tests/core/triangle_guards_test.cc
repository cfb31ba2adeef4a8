// Triangle-inequality routing guards (see GlEstimatorConfig).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "core/gl_estimator.h"
#include "eval/harness.h"

namespace simcard {
namespace {

GlEstimatorConfig FastConfig(bool guards) {
  GlEstimatorConfig config = GlEstimatorConfig::GlCnn();
  config.local_train.epochs = 10;
  config.global_train.epochs = 10;
  config.use_triangle_guards = guards;
  return config;
}

TEST(TriangleGuardsTest, ExclusionNeverDropsTrueMatches) {
  // The exclusion rule is provably sound: disabling guards can only ADD
  // segments relative to exclusion, so the guarded estimate must account
  // for at least the segments with true matches. Verify on real labels:
  // for every test sample, every segment with seg_card > 0 satisfies
  // xc[s] <= tau + radius[s] (the contrapositive of the exclusion rule).
  EnvOptions opts;
  opts.num_segments = 6;
  auto env =
      std::move(BuildEnvironment("youtube-sim", Scale::kTiny, opts).value());
  const auto& seg = env.segmentation;
  for (const auto& lq : env.workload.test) {
    const float* q = env.workload.test_queries.Row(lq.row);
    auto xc = seg.CentroidDistances(q, env.dataset.dim(),
                                    env.dataset.metric());
    for (const auto& t : lq.thresholds) {
      for (size_t s = 0; s < seg.num_segments(); ++s) {
        if (t.seg_cards[s] > 0.0f) {
          EXPECT_LE(xc[s], t.tau + seg.radius[s] + 1e-4f)
              << "exclusion rule would drop a segment with matches";
        }
      }
    }
  }
}

TEST(TriangleGuardsTest, GuardedEstimatorStillAccurate) {
  EnvOptions opts;
  opts.num_segments = 6;
  auto env =
      std::move(BuildEnvironment("glove-sim", Scale::kTiny, opts).value());
  GlEstimator with(FastConfig(true));
  GlEstimator without(FastConfig(false));
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(with.Train(ctx).ok());
  ASSERT_TRUE(without.Train(ctx).ok());
  const double with_med = EvaluateSearch(&with, env.workload).qerror.median;
  const double without_med =
      EvaluateSearch(&without, env.workload).qerror.median;
  // Guards must not wreck accuracy (they mostly change tails).
  EXPECT_LT(with_med, 2.0 * without_med + 1.0);
}

TEST(TriangleGuardsTest, InclusionBackstopsForcedMiss) {
  // Force the global model to miss everything by cranking sigma to ~1;
  // with guards the centroid-within-tau rule still routes big thresholds.
  EnvOptions opts;
  opts.num_segments = 5;
  auto env =
      std::move(BuildEnvironment("youtube-sim", Scale::kTiny, opts).value());
  GlEstimatorConfig config = FastConfig(true);
  config.sigma = 0.999f;
  GlEstimator est(config);
  TrainContext ctx = MakeTrainContext(env);
  ASSERT_TRUE(est.Train(ctx).ok());
  const float* q = env.workload.test_queries.Row(0);
  // A tau larger than the query's distance to some centroid triggers the
  // inclusion rule regardless of the (suppressed) global probabilities.
  auto xc = est.segmentation().CentroidDistances(q, env.dataset.dim(),
                                                 env.dataset.metric());
  const float big_tau = *std::max_element(xc.begin(), xc.end()) + 0.1f;
  EstimateProbe probe;
  EstimateRequest request;
  request.query = std::span<const float>(q, est.dim());
  request.tau = big_tau;
  request.options.probe = &probe;
  est.Estimate(request);
  const size_t n_seg = est.segmentation().num_segments();
  EXPECT_EQ(probe.evaluated, n_seg);
  // The global model's selection is never empty, so at most the other
  // segments came in through the force-include.
  EXPECT_LT(probe.forced_segments, n_seg);
}

}  // namespace
}  // namespace simcard
