// Pins GL inference bit for bit, against itself and against a reference.
//
// EstimateSearchBatch is the one GL inference path; Estimate is a batch of
// one. Two properties are checked EXACTLY — not approximately:
//   - row independence: a row's answer (and probe) does not depend on its
//     batch mates or its position, so a batch equals N batches of one;
//   - the composed reference: Algorithm 2 rebuilt in this file from the
//     public per-layer primitives (CentroidDistanceRow, GlobalModel::
//     Probabilities, SelectSegments + the triangle rules, an ascending sum
//     of LocalModel::Estimate or the segment fallback) gives the same bits
//     as Estimate, so the production routing loop has a check that does
//     not share its code.
// Any reassociation of the floating-point reductions (in the blocked
// matmuls, the batched distance kernel, or the per-segment sum) breaks
// these EXPECT_EQ checks. Coverage includes invalid rows, mixed
// valid/invalid batches, quarantined locals answering through the sampling
// fallback, and the default Estimator::EstimateBatch loop on a baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "common/checked_file.h"
#include "common/rng.h"
#include "core/features.h"
#include "core/gl_estimator.h"
#include "dist/metric.h"
#include "baselines/sampling_estimator.h"
#include "eval/harness.h"

namespace simcard {
namespace {

constexpr float kNaNf = std::numeric_limits<float>::quiet_NaN();

const ExperimentEnv& SharedEnv() {
  static const ExperimentEnv* env = [] {
    EnvOptions opts;
    opts.num_segments = 6;
    return new ExperimentEnv(std::move(
        BuildEnvironment("glove-sim", Scale::kTiny, opts).value()));
  }();
  return *env;
}

GlEstimatorConfig FastConfig(GlEstimatorConfig config) {
  config.local_train.epochs = 8;
  config.global_train.epochs = 8;
  config.tuner.max_trials = 2;
  config.tuner.trial_epochs = 4;
  config.tuner.train_subsample = 200;
  config.tuner.val_subsample = 60;
  config.tune_per_segment = false;
  return config;
}

const GlEstimator& TrainedGlCnn() {
  static const GlEstimator* est = [] {
    auto* e = new GlEstimator(FastConfig(GlEstimatorConfig::GlCnn()));
    TrainContext ctx = MakeTrainContext(SharedEnv());
    EXPECT_TRUE(e->Train(ctx).ok());
    return e;
  }();
  return *est;
}

const GlEstimator& TrainedLocalPlus() {
  static const GlEstimator* est = [] {
    auto* e = new GlEstimator(FastConfig(GlEstimatorConfig::LocalPlus()));
    TrainContext ctx = MakeTrainContext(SharedEnv());
    EXPECT_TRUE(e->Train(ctx).ok());
    return e;
  }();
  return *est;
}

double Single(const GlEstimator& est, const float* q, size_t dim, float tau) {
  EstimateRequest request;
  request.query = std::span<const float>(q, dim);
  request.tau = tau;
  return est.Estimate(request);
}

// Algorithm 2 composed from the public per-layer primitives, one query at a
// time: x_C, the global model's probabilities thresholded at sigma, the
// triangle exclude/force rules, then the selected segments' local models
// (or retained samples, for a quarantined slot) summed in ascending order
// and clamped to [0, |D|].
double ComposedReference(const GlEstimator& est, const float* q, float tau) {
  const Segmentation& seg = est.segmentation();
  const std::vector<float> xc =
      CentroidDistanceRow(q, seg, est.dim(), est.metric());
  const size_t n_seg = est.num_local_models();
  std::vector<char> selected(n_seg, 1);  // Local+: every segment
  if (const GlobalModel* global = est.global_model()) {
    selected.assign(n_seg, 0);
    for (size_t s :
         global->SelectSegments(global->Probabilities(q, tau, xc.data()))) {
      selected[s] = 1;
    }
    if (est.config().use_triangle_guards) {
      for (size_t s = 0; s < n_seg; ++s) {
        if (xc[s] > tau + seg.radius[s]) selected[s] = 0;  // holds no match
        if (xc[s] <= tau) selected[s] = 1;  // centroid within tau
      }
    }
  }
  double sum = 0.0;
  for (size_t s = 0; s < n_seg; ++s) {
    if (selected[s] == 0) continue;
    const LocalModel* local = est.local_model(s);
    sum += local != nullptr ? local->Estimate(q, tau, xc.data())
                            : est.segment_fallback(s).Estimate(
                                  q, tau, est.dim(), est.metric());
  }
  const double population = static_cast<double>(seg.assignment.size());
  return std::clamp(sum, 0.0, population);
}

// Every (test query, threshold) pair of the workload, as row pointers.
struct WorkloadPairs {
  std::vector<const float*> rows;
  std::vector<float> taus;
};

WorkloadPairs AllPairs(const SearchWorkload& wl) {
  WorkloadPairs pairs;
  for (const auto& lq : wl.test) {
    for (const auto& t : lq.thresholds) {
      pairs.rows.push_back(wl.test_queries.Row(lq.row));
      pairs.taus.push_back(t.tau);
    }
  }
  return pairs;
}

void ExpectMatchesComposedReference(const GlEstimator& est) {
  const SearchWorkload& wl = SharedEnv().workload;
  const WorkloadPairs pairs = AllPairs(wl);
  ASSERT_GT(pairs.rows.size(), 16u);
  for (size_t i = 0; i < pairs.rows.size(); ++i) {
    EXPECT_EQ(Single(est, pairs.rows[i], est.dim(), pairs.taus[i]),
              ComposedReference(est, pairs.rows[i], pairs.taus[i]))
        << est.Name() << " pair " << i;
  }
}

TEST(BatchParityTest, GlCnnMatchesComposedReference) {
  ExpectMatchesComposedReference(TrainedGlCnn());
}

TEST(BatchParityTest, LocalPlusMatchesComposedReference) {
  const GlEstimator& est = TrainedLocalPlus();
  ASSERT_EQ(est.global_model(), nullptr);
  ExpectMatchesComposedReference(est);
}

// The whole workload as one batch in a seeded random order: every row's
// answer and probe equal those of the same row run as a batch of one.
void ExpectRowsIndependent(const GlEstimator& est) {
  const WorkloadPairs pairs = AllPairs(SharedEnv().workload);
  const size_t n = pairs.rows.size();
  const size_t dim = est.dim();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  Rng rng(91);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }

  Matrix queries(n, dim);
  std::vector<float> taus(n);
  std::vector<EstimateProbe> probes(n);
  std::vector<EstimateProbe*> probe_ptrs(n);
  for (size_t j = 0; j < n; ++j) {
    queries.SetRow(j, pairs.rows[order[j]]);
    taus[j] = pairs.taus[order[j]];
    probe_ptrs[j] = &probes[j];
  }
  const std::vector<double> batch = est.EstimateSearchBatch(
      queries, std::span<const float>(taus.data(), n), nullptr,
      std::span<EstimateProbe* const>(probe_ptrs.data(), n));
  ASSERT_EQ(batch.size(), n);

  for (size_t j = 0; j < n; ++j) {
    Matrix one(1, dim);
    one.SetRow(0, queries.Row(j));
    EstimateProbe alone;
    EstimateProbe* alone_ptr = &alone;
    const std::vector<double> single = est.EstimateSearchBatch(
        one, std::span<const float>(&taus[j], 1), nullptr,
        std::span<EstimateProbe* const>(&alone_ptr, 1));
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(batch[j], single[0]) << est.Name() << " row " << j;
    const EstimateProbe& p = probes[j];
    EXPECT_EQ(p.evaluated, alone.evaluated) << "row " << j;
    EXPECT_EQ(p.forced_segments, alone.forced_segments) << "row " << j;
    EXPECT_EQ(p.fallback_segments, alone.fallback_segments) << "row " << j;
    ASSERT_EQ(p.stored, alone.stored) << "row " << j;
    for (size_t k = 0; k < p.stored; ++k) {
      EXPECT_EQ(p.segments[k], alone.segments[k]) << "row " << j;
      EXPECT_EQ(p.probs[k], alone.probs[k]) << "row " << j;
    }
  }
}

TEST(BatchParityTest, GlCnnPermutedBatchEqualsBatchesOfOne) {
  ExpectRowsIndependent(TrainedGlCnn());
}

TEST(BatchParityTest, LocalPlusPermutedBatchEqualsBatchesOfOne) {
  ExpectRowsIndependent(TrainedLocalPlus());
}

// Every (test query, threshold) pair of the workload in one batch: each row
// must answer exactly as Estimate (a batch of one) does, including all
// per-row pruning decisions.
TEST(BatchParityTest, WholeWorkloadBitwiseEqual) {
  const GlEstimator& est = TrainedGlCnn();
  const SearchWorkload& wl = SharedEnv().workload;
  const size_t dim = wl.test_queries.cols();
  const WorkloadPairs pairs = AllPairs(wl);
  const std::vector<const float*>& rows = pairs.rows;
  const std::vector<float>& taus = pairs.taus;
  ASSERT_GT(rows.size(), 16u);

  Matrix queries(rows.size(), dim);
  for (size_t i = 0; i < rows.size(); ++i) queries.SetRow(i, rows[i]);
  const std::vector<double> batch = est.EstimateSearchBatch(
      queries, std::span<const float>(taus.data(), taus.size()));
  ASSERT_EQ(batch.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batch[i], Single(est, rows[i], dim, taus[i])) << "row " << i;
  }
}

// Invalid rows (non-finite query, NaN/negative tau) answer 0.0, and their
// presence must not disturb the valid rows packed around them.
TEST(BatchParityTest, InvalidRowsIsolatedInMixedBatch) {
  const GlEstimator& est = TrainedGlCnn();
  const SearchWorkload& wl = SharedEnv().workload;
  const size_t dim = wl.test_queries.cols();

  Matrix queries(5, dim);
  queries.SetRow(0, wl.test_queries.Row(0));
  queries.SetRow(1, wl.test_queries.Row(1));
  queries.SetRow(2, wl.test_queries.Row(2));
  queries.at(2, dim / 2) = kNaNf;  // poisoned query vector
  queries.SetRow(3, wl.test_queries.Row(3));
  queries.SetRow(4, wl.test_queries.Row(4));
  const std::vector<float> taus = {0.2f, kNaNf, 0.2f, -0.5f, 0.3f};

  const std::vector<double> batch = est.EstimateSearchBatch(
      queries, std::span<const float>(taus.data(), taus.size()));
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch[1], 0.0);  // NaN tau
  EXPECT_EQ(batch[2], 0.0);  // NaN query
  EXPECT_EQ(batch[3], 0.0);  // negative tau
  EXPECT_EQ(batch[0], Single(est, wl.test_queries.Row(0), dim, 0.2f));
  EXPECT_EQ(batch[4], Single(est, wl.test_queries.Row(4), dim, 0.3f));
}

// A taus span shorter than the batch marks the tail rows invalid (0.0)
// instead of reading out of bounds.
TEST(BatchParityTest, ShortTauSpanZeroesTail) {
  const GlEstimator& est = TrainedGlCnn();
  const SearchWorkload& wl = SharedEnv().workload;
  const size_t dim = wl.test_queries.cols();

  Matrix queries(3, dim);
  for (size_t i = 0; i < 3; ++i) queries.SetRow(i, wl.test_queries.Row(i));
  const std::vector<float> taus = {0.25f};  // rows 1..2 have no tau
  const std::vector<double> batch = est.EstimateSearchBatch(
      queries, std::span<const float>(taus.data(), taus.size()));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], Single(est, wl.test_queries.Row(0), dim, 0.25f));
  EXPECT_EQ(batch[1], 0.0);
  EXPECT_EQ(batch[2], 0.0);
}

// Quarantined locals (degraded load) answer through the sampling fallback;
// a batch must route those rows through the same fallback as a batch of
// one, and both must match the composed reference.
TEST(BatchParityTest, QuarantinedSegmentRowsMatchSinglePath) {
  const GlEstimator& trained = TrainedGlCnn();
  const std::string path = testing::TempDir() + "/batch_parity_model.bin";
  ASSERT_TRUE(trained.SaveToFile(path).ok());

  // Corrupt one payload byte of "local.1" so degraded load quarantines it.
  std::vector<uint8_t> bytes;
  {
    FILE* f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<size_t>(ftell(f)));
    fseek(f, 0, SEEK_SET);
    ASSERT_EQ(fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    fclose(f);
  }
  auto reader_or = CheckedFileReader::FromBytes(bytes);
  ASSERT_TRUE(reader_or.ok());
  bool found = false;
  for (const auto& info : reader_or.value().sections()) {
    if (info.name == "local.1") {
      ASSERT_GT(info.size, 8u);
      bytes[info.offset + info.size / 2] ^= 0x40;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    fclose(f);
  }

  GlEstimator degraded(GlEstimatorConfig::GlCnn());
  ASSERT_TRUE(
      degraded.LoadFromFile(path, GlEstimator::LoadMode::kDegraded).ok());
  ASSERT_EQ(degraded.num_quarantined_locals(), 1u);

  const SearchWorkload& wl = SharedEnv().workload;
  const size_t dim = wl.test_queries.cols();
  const size_t n = std::min<size_t>(12, wl.test_queries.rows());
  Matrix queries(n, dim);
  std::vector<float> taus(n);
  for (size_t i = 0; i < n; ++i) {
    queries.SetRow(i, wl.test_queries.Row(i));
    // Large taus pull in many segments, including the quarantined one.
    taus[i] = 0.4f + 0.05f * static_cast<float>(i % 4);
  }
  const std::vector<double> batch = degraded.EstimateSearchBatch(
      queries, std::span<const float>(taus.data(), taus.size()));
  ASSERT_EQ(batch.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(batch[i], Single(degraded, wl.test_queries.Row(i), dim, taus[i]))
        << "row " << i;
    EXPECT_EQ(batch[i],
              ComposedReference(degraded, wl.test_queries.Row(i), taus[i]))
        << "row " << i;
  }
  std::remove(path.c_str());
}

// Estimators without a specialized batch path inherit the base EstimateBatch
// loop, which must agree with per-row Estimate calls.
TEST(BatchParityTest, DefaultEstimateBatchLoopsSingle) {
  SamplingEstimator est("Sampling (10%)", 0.10);
  TrainContext ctx = MakeTrainContext(SharedEnv());
  ASSERT_TRUE(est.Train(ctx).ok());

  const SearchWorkload& wl = SharedEnv().workload;
  const size_t dim = wl.test_queries.cols();
  const size_t n = std::min<size_t>(8, wl.test_queries.rows());
  Matrix queries(n, dim);
  std::vector<float> taus(n);
  for (size_t i = 0; i < n; ++i) {
    queries.SetRow(i, wl.test_queries.Row(i));
    taus[i] = 0.1f + 0.05f * static_cast<float>(i);
  }
  BatchEstimateRequest request;
  request.queries = &queries;
  request.taus = std::span<const float>(taus.data(), taus.size());
  const std::vector<double> batch = est.EstimateBatch(request);
  ASSERT_EQ(batch.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EstimateRequest single;
    single.query = std::span<const float>(queries.Row(i), dim);
    single.tau = taus[i];
    EXPECT_EQ(batch[i], est.Estimate(single)) << "row " << i;
  }
}

// The batched distance kernel behind the feature builders must reproduce the
// scalar Distance() for every metric, including the zero-norm cosine branch.
TEST(BatchParityTest, BatchDistancesMatchScalarKernel) {
  Rng rng(17);
  const size_t d = 9;
  Matrix queries(5, d);
  Matrix points(7, d);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries.data()[i] = rng.NextFloat() * 2.0f - 1.0f;
  }
  for (size_t i = 0; i < points.size(); ++i) {
    points.data()[i] = rng.NextFloat() * 2.0f - 1.0f;
  }
  // Exercise the zero-norm branches of cosine/angular.
  for (size_t c = 0; c < d; ++c) queries.at(4, c) = 0.0f;

  for (Metric metric : {Metric::kL1, Metric::kL2, Metric::kCosine,
                        Metric::kAngular, Metric::kHamming}) {
    const Matrix dists = BatchDistances(queries, points, metric);
    ASSERT_EQ(dists.rows(), queries.rows());
    ASSERT_EQ(dists.cols(), points.rows());
    for (size_t i = 0; i < queries.rows(); ++i) {
      for (size_t j = 0; j < points.rows(); ++j) {
        EXPECT_EQ(dists.at(i, j),
                  Distance(queries.Row(i), points.Row(j), d, metric))
            << MetricName(metric) << " (" << i << "," << j << ")";
      }
    }
  }
}

}  // namespace
}  // namespace simcard
