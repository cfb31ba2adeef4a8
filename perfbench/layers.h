// Pieces shared by the three workloads: the query cycle with its exact
// truth, repeated timed set-up, the closed-loop driver and its serve client,
// and the direct-call measurement of the dist and core layers.
#ifndef SIMCARD_PERFBENCH_LAYERS_H_
#define SIMCARD_PERFBENCH_LAYERS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/gl_estimator.h"
#include "data/dataset.h"
#include "eval/harness.h"
#include "serve/estimation_service.h"
#include "serve/model_registry.h"
#include "support.h"
#include "update/update_manager.h"
#include "workload/queries.h"

namespace perfbench {

/// One (test query, threshold) request of the cycle, with its exact
/// cardinality on the data the workload starts from.
struct QueryPair {
  uint32_t row = 0;  ///< row of the workload's test-query matrix
  float tau = 0.0f;
  double truth = 0.0;
};

/// The workload's test queries x thresholds. Truth is the label: an exact
/// count by a full scan of the data (index::GroundTruth, distance <= tau).
std::vector<QueryPair> MakePairs(const simcard::SearchWorkload& workload);

/// The seeded order in which a run visits the pairs.
std::vector<uint32_t> ShuffledOrder(size_t n, uint64_t seed);

simcard::EstimateRequest MakeRequest(const simcard::Matrix& queries,
                                     const QueryPair& pair);

/// An estimate is valid when it is finite and within [0, population].
inline bool InRange(double estimate, double population) {
  return std::isfinite(estimate) && estimate >= 0.0 &&
         estimate <= population;
}

/// Seed of every workload's corpus: its data, segmentation, training and
/// test queries, and so its model. --seed drives the request stream: the
/// order of requests, the arrival times and the deltas. A fixed corpus
/// keeps model-to-model accuracy variance out of the run-to-run spread.
constexpr uint64_t kCorpusSeed = 2026;

/// Training and test queries per workload; each has 10 thresholds. Half
/// the small-scale training set, so that three set-ups fit in a run.
constexpr size_t kTrainQueries = 200;
constexpr size_t kTestQueries = 300;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;

/// \brief A GL-CNN trained on one analog dataset, published and served.
/// Members are declared so that the service stops before the update
/// manager and registry it reads go away.
struct GlStack {
  simcard::ExperimentEnv env;
  std::shared_ptr<const simcard::GlEstimator> model;
  simcard::serve::ModelRegistry registry;
  std::unique_ptr<simcard::update::UpdateManager> updates;
  std::unique_ptr<simcard::serve::EstimationService> service;
};

/// Generates `dataset` at small scale from kCorpusSeed (16 segments,
/// labeled workload of kTrainQueries + kTestQueries queries) and
/// trains GL-CNN on it with the drill-sized budget of
/// shard::FastShardConfig (15 epochs), the same budget the shard4_closed
/// shards train with; nullptr on failure (logged).
std::unique_ptr<GlStack> TrainGlStack(const std::string& dataset);

/// Starts `stack->service` over `stack->registry` and waits for one
/// answer: set-up ends at the first servable request.
bool StartServing(GlStack* stack,
                  const simcard::serve::ServeOptions& options);

/// Counts a reply's status into `phase`: a non-OK status is failed, and
/// also shed (kUnavailable) or deadline-exceeded by its code. Returns
/// status.ok().
bool CountStatus(const simcard::Status& status, Phase* phase);

/// Operator new calls per `call(i)` over `n` serial calls, after 64
/// warm-up calls; every thread's allocations count.
template <typename Call>
double AllocsPerCall(size_t n, Call&& call) {
  for (size_t i = 0; i < 64; ++i) call(i);
  const uint64_t before = AllocCount();
  for (size_t i = 0; i < n; ++i) call(i);
  return static_cast<double>(AllocCount() - before) / static_cast<double>(n);
}

/// Runs `build` kSetupReps times, reports setup_s as the median wall
/// seconds of one build, and returns the last result (nullptr when a build
/// failed). Each result is destroyed before the next build starts, so only
/// one stack is alive at a time.
template <typename Build>
auto TimedSetUp(Build&& build, Report* report) -> decltype(build()) {
  decltype(build()) out;
  std::vector<double> secs;
  for (int r = 0; r < kSetupReps; ++r) {
    out.reset();
    const int64_t t0 = NowNs();
    out = build();
    secs.push_back(UsBetween(t0, NowNs()) / 1e6);
    if (out == nullptr) return out;
  }
  report->Metric("setup_s", Quantile(secs, 0.5), "s",
                 "median of " + std::to_string(kSetupReps) + " set-ups");
  return out;
}

/// serve.* samples read from each EstimateResponse.
struct ServeSamples {
  std::vector<double> queue_us, eval_us, overhead_us, batch_size;

  /// overhead is total - queue - eval.
  void Add(const simcard::serve::EstimateResponse& response);
};

/// \brief The serve.* samples of a traced phase, and the spans rebuilt
/// from each response's own timings.
class ServeTrace {
 public:
  explicit ServeTrace(SpanRecorder* spans);

  /// Samples `response` and records a "request" span from `start_ns`, when
  /// it was sent, to `end_ns`, with children "serve.queue" and
  /// "serve.eval". Returns the root span's id.
  uint32_t Add(uint64_t request, int64_t start_ns, int64_t end_ns,
               const simcard::serve::EstimateResponse& response);

  const ServeSamples& samples() const { return samples_; }

 private:
  SpanRecorder* spans_;
  uint32_t request_, queue_, eval_;
  ServeSamples samples_;
};

/// \brief Result of one closed-loop client.
struct ClosedLoop {
  Phase phase;
  LatencyLog latency;          ///< client-observed, per request sent
  std::vector<double> lag_us;  ///< client gap between reply and next send
  std::vector<double> qerror;
  double wall_s = 0.0;

  /// Correct answers per wall second.
  double throughput() const {
    return wall_s > 0.0 ? static_cast<double>(phase.succeeded) / wall_s : 0.0;
  }
};

/// \brief How a closed-loop client talks to the layer under test. `Reply`
/// has a `status` and an `estimate`.
template <typename Reply>
struct ClosedLoopClient {
  /// Sends pairs[idx] and waits for its reply; the only timed step.
  std::function<Reply(uint32_t idx)> send;
  /// Bound of a valid estimate, read at each reply (it may grow).
  const double* population = nullptr;
  /// Optional: sees request `i` (pairs[idx]) answered OK and in range
  /// between `t0` and `t1`; returns "" or what is wrong with the answer.
  std::function<std::string(uint64_t i, uint32_t idx, const Reply& reply,
                            int64_t t0, int64_t t1)>
      inspect;
  /// Optional: runs, untimed, after request `i`.
  std::function<void(uint64_t i)> between;
};

/// \brief The closed loop every closed workload runs: one client visits
/// `order` over `pairs` for `seconds`, one request at a time.
///
/// Each reply's status is counted into the phase. An OK reply must be in
/// [0, *population] and pass `inspect`; one that does not is incorrect and
/// a violation. Q-error is taken against pairs[idx].truth at reply time.
template <typename Reply>
ClosedLoop RunClosedLoop(const ClosedLoopClient<Reply>& client,
                         const std::vector<QueryPair>& pairs,
                         const std::vector<uint32_t>& order, double seconds,
                         const std::string& phase_name, Report* report) {
  ClosedLoop out;
  out.phase.name = phase_name;
  const size_t expect = static_cast<size_t>(seconds * 60000.0) + 1024;
  out.latency.Reserve(expect);
  ReserveTouched(&out.lag_us, expect);
  ReserveTouched(&out.qerror, expect);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t now = start;
  int64_t prev_done = 0;
  for (uint64_t i = 0; now < end; ++i) {
    const uint32_t idx = order[i % order.size()];
    const int64_t t0 = NowNs();
    if (prev_done != 0) out.lag_us.push_back(UsBetween(prev_done, t0));
    const Reply reply = client.send(idx);
    const int64_t t1 = NowNs();
    prev_done = t1;
    ++out.phase.attempted;
    bool ok = CountStatus(reply.status, &out.phase);
    if (ok) {
      std::string wrong;
      if (!InRange(reply.estimate, *client.population)) {
        wrong = "estimate " + std::to_string(reply.estimate) +
                " outside [0, " + std::to_string(*client.population) + "]";
      } else if (client.inspect) {
        wrong = client.inspect(i, idx, reply, t0, t1);
      }
      if (wrong.empty()) {
        ++out.phase.succeeded;
        out.qerror.push_back(QError(reply.estimate, pairs[idx].truth));
      } else {
        ok = false;
        ++out.phase.incorrect;
        report->Violation(phase_name + ": " + wrong);
      }
    }
    out.latency.Add(t0, ok, UsBetween(t0, t1));
    if (client.between) client.between(i);
    now = NowNs();
  }
  out.wall_s = UsBetween(start, now) / 1e6;
  return out;
}

/// A client of `service` that spins on each reply (AwaitSpinning) and
/// checks it against `reference` bitwise when that is non-null. With
/// `trace`, each correct answer is sampled and its spans recorded.
ClosedLoopClient<simcard::serve::EstimateResponse> ServeClient(
    simcard::serve::EstimationService* service,
    const simcard::Matrix& queries, const std::vector<QueryPair>& pairs,
    const double* population, const std::vector<double>* reference,
    ServeTrace* trace);

/// Direct estimates of every pair on `model` (GlEstimator::Estimate).
std::vector<double> DirectEstimates(const simcard::GlEstimator& model,
                                    const simcard::Matrix& queries,
                                    const std::vector<QueryPair>& pairs);

/// \brief Times the dist and core layers by direct calls on `model` for
/// `seconds`, recording spans, and reports dist.* and core.* metrics.
///
/// Per request: "core.gl" wraps "core.features" (CentroidDistanceRow),
/// "core.global" (GlobalModel::Probabilities), "core.select"
/// (GlobalModel::SelectSegments) and "core.locals" (LocalModel::Estimate
/// per selected segment); "core.estimate" times GlEstimator::Estimate with
/// an EstimateProbe; "dist.centroid" times the distance kernel over every
/// centroid. Allocation counts come from an untraced pass.
void MeasureCoreLayers(const simcard::GlEstimator& model,
                       const simcard::Matrix& queries,
                       const std::vector<QueryPair>& pairs,
                       const std::vector<uint32_t>& order, double seconds,
                       SpanRecorder* spans, Report* report);

/// serve.* metrics from traced samples, the phase they came from (shed and
/// deadline-exceeded counts) and a serial allocation pass.
void ReportServeLayers(const ServeSamples& samples, const Phase& phase,
                       double allocs_per_request, Report* report);

/// Allocations per request over `n` serial Submit().get() calls.
double ServeAllocsPerRequest(simcard::serve::EstimationService* service,
                             const simcard::Matrix& queries,
                             const std::vector<QueryPair>& pairs,
                             const std::vector<uint32_t>& order, size_t n);

/// latency_p50_us and slo_attainment pooled over every request of
/// `latency`, latency_p99_us as the median p99 of its quiet windows (see
/// LatencyLog), qerror_p50/p95 over every correct answer. Each window
/// holds over a thousand answers, so at least 10 lie beyond its p99.
void ReportLatencyAndAccuracy(const LatencyLog& latency,
                              const std::vector<double>& qerror,
                              Report* report);

/// ReportLatencyAndAccuracy plus throughput_qps (median correct answers
/// per second over the quiet windows; pooled when the loop holds no whole
/// window) and loadgen.lag_p99_us for a closed loop.
void ReportClosedLoopEndToEnd(const ClosedLoop& loop, Report* report);

/// Puts `stack` behind an UpdateManager that journals to `journal_dir`
/// and serves it again, feedback on (2 workers, max_batch=1). `seed`
/// drives the refresh RNG. A service already running is stopped first.
bool AttachIngest(GlStack* stack, uint64_t seed,
                  const std::string& journal_dir);

/// \brief The feedback and update side probe of a traced run whose own
/// load neither writes nor reports truth.
///
/// Attaches `stack` to an UpdateManager (AttachIngest), then runs the
/// glove_ingest load on it, traced, for `seconds`, with a refresh due after
/// every 250 deltas, so that one or two fall inside the probe. Reports the
/// feedback.* and update.* metrics, write_ack_p50_us, write_ack_p99_us and
/// refresh_s. Every answer is checked as on glove_ingest.
bool ProbeIngestLayers(GlStack* stack, const Args& args, double seconds,
                       SpanRecorder* spans, Report* report);

/// \brief The shard side probe of a traced run whose own load is not
/// sharded.
///
/// Serves `registry` through a one-shard ShardedEstimationService (options
/// as on shard4_closed) and runs a traced closed loop of `seconds` against
/// it, each answer followed by a direct shard_service(0) call. Reports the
/// shard.* metrics. A non-partial answer must equal GlEstimator::Estimate
/// on the registry's snapshot, bitwise.
void ProbeShardLayers(simcard::serve::ModelRegistry* registry,
                      const simcard::Matrix& queries,
                      const std::vector<QueryPair>& pairs,
                      const std::vector<uint32_t>& order, double seconds,
                      SpanRecorder* spans, Report* report);

/// Writes the spans of a traced run and reports obs.* metrics.
void FinishTrace(const Args& args, const SpanRecorder& spans,
                 double untraced_p50_us, double traced_p50_us,
                 Report* report);

}  // namespace perfbench

#endif  // SIMCARD_PERFBENCH_LAYERS_H_
