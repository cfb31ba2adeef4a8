// shard4_closed: one closed-loop client against the sharded tier over
// glove-sim grown to 80k rows: 4 shards x 4 segments, 1 worker per shard,
// hedging on, no faults. A query selects about 2 of the 16 segments but is
// sent to all 4 shards, so the scatter-gather tax shows here.
//
// A non-partial answer must equal the sum, in shard order and clamped to
// the total population, of GlEstimator::Estimate on every shard's snapshot.
// The traced run also calls each shard_service(k) directly: the slowest
// direct shard against the sharded call gives the scatter-gather cost, and
// the direct answers must sum to the sharded one. It ends with the ingest
// side probe (layers.h) on a glove-sim stack trained for it.
//
// The shard side probe of the other workloads' traced runs is defined here
// too: their own model served through a one-shard tier.
#include <algorithm>
#include <bit>

#include "data/generators.h"
#include "layers.h"
#include "obs/metrics.h"
#include "shard/shard_builder.h"
#include "shard/sharded_service.h"

namespace perfbench {

namespace {

using simcard::EstimateRequest;
using simcard::shard::ShardedEstimateResponse;

constexpr size_t kShards = 4;
constexpr size_t kGrowRows = 60000;  // 20k base rows + 60k = 80k

struct ShardStack {
  simcard::Dataset dataset;
  std::vector<std::unique_ptr<simcard::serve::ModelRegistry>> registries;
  std::unique_ptr<simcard::shard::ShardedEstimationService> service;
};

/// Shard options of every sharded service here: 1 worker per shard,
/// hedging on.
simcard::shard::ShardedServeOptions ShardOptions() {
  simcard::shard::ShardedServeOptions opts;
  opts.serve.num_threads = 1;
  opts.default_deadline_ms = 1000.0;
  opts.hedge.enabled = true;
  return opts;
}

std::unique_ptr<ShardStack> BuildShard4() {
  const uint64_t seed = kCorpusSeed;
  auto stack = std::make_unique<ShardStack>();
  auto data = simcard::MakeAnalogDataset("glove-sim", simcard::Scale::kSmall,
                                         seed);
  auto extra = simcard::MakeAnalogUpdates("glove-sim", simcard::Scale::kSmall,
                                          kGrowRows, seed + 33);
  if (!data.ok() || !extra.ok()) return nullptr;
  stack->dataset = std::move(data).value();
  stack->dataset.Append(extra.value());

  simcard::shard::ShardBuildOptions build_opts;
  build_opts.num_shards = kShards;
  build_opts.segments_per_shard = 4;
  build_opts.train_queries = kTrainQueries / 2;  // per shard
  build_opts.test_queries = 10;                  // per shard, unused
  build_opts.seed = seed;
  build_opts.config = simcard::shard::FastShardConfig(
      simcard::GlEstimatorConfig::GlCnn());
  auto built = simcard::shard::BuildShardEstimators(stack->dataset, build_opts);
  if (!built.ok()) {
    std::cerr << "building shards: " << built.status().ToString() << "\n";
    return nullptr;
  }
  std::vector<simcard::serve::ModelRegistry*> raw;
  for (size_t k = 0; k < kShards; ++k) {
    stack->registries.push_back(
        std::make_unique<simcard::serve::ModelRegistry>());
    stack->registries.back()->Publish(std::move(built.value().estimators[k]));
    raw.push_back(stack->registries.back().get());
  }
  stack->service = std::make_unique<simcard::shard::ShardedEstimationService>(
      std::move(raw), ShardOptions());
  EstimateRequest first;
  first.query = std::span<const float>(stack->dataset.Point(0),
                                       stack->dataset.dim());
  first.tau = 0.1f;
  if (!stack->service->Estimate(first).status.ok()) return nullptr;
  return stack;
}

/// What the traced run learns from calling each shard_service(k) directly
/// after every sharded answer.
struct DirectCalls {
  Phase phase;  ///< the direct shard_service(k) calls
  ServeSamples serve;
  std::vector<double> slowest_us, scatter_gather_us;
  uint64_t partial = 0;  ///< sharded answers marked partial
};

/// A client of the sharded service. A non-partial answer must equal
/// `reference`, the shard-order sum of the shards' own estimates. With
/// `direct`, the same request then goes to every shard's service in turn,
/// whose answers must sum to the sharded one.
ClosedLoopClient<ShardedEstimateResponse> ShardClient(
    simcard::shard::ShardedEstimationService* service,
    const simcard::Matrix& queries, const std::vector<QueryPair>& pairs,
    const double* population, const std::vector<double>& reference,
    SpanRecorder* spans, DirectCalls* direct) {
  ClosedLoopClient<ShardedEstimateResponse> client;
  client.send = [service, &queries, &pairs](uint32_t idx) {
    return service->Estimate(MakeRequest(queries, pairs[idx]));
  };
  client.population = population;
  uint32_t n_request = 0, n_direct = 0, n_shard = 0;
  if (spans != nullptr) {
    n_request = spans->Name("request");
    n_direct = spans->Name("shard.direct");
    n_shard = spans->Name("shard.direct_shard");
  }
  client.inspect = [=, &queries, &pairs, &reference](
                       uint64_t i, uint32_t idx,
                       const ShardedEstimateResponse& resp, int64_t t0,
                       int64_t t1) -> std::string {
    if (!resp.partial && std::bit_cast<uint64_t>(resp.estimate) !=
                             std::bit_cast<uint64_t>(reference[idx])) {
      return "sharded " + std::to_string(resp.estimate) +
             " != sum of shard estimates " + std::to_string(reference[idx]);
    }
    if (direct == nullptr) return "";
    if (resp.partial) ++direct->partial;
    spans->Add(n_request, 0, i, t0, t1);
    const EstimateRequest request = MakeRequest(queries, pairs[idx]);
    std::vector<std::pair<int64_t, int64_t>> shard_times(
        service->num_shards());
    double slowest = 0.0, sum = 0.0;
    bool all_ok = true;
    for (size_t k = 0; k < shard_times.size(); ++k) {
      const int64_t s0 = NowNs();
      const simcard::serve::EstimateResponse r =
          AwaitSpinning(service->shard_service(k)->Submit(request));
      const int64_t s1 = NowNs();
      shard_times[k] = {s0, s1};
      ++direct->phase.attempted;
      if (!CountStatus(r.status, &direct->phase)) {
        all_ok = false;
        continue;
      }
      ++direct->phase.succeeded;
      sum += r.estimate;
      slowest = std::max(slowest, UsBetween(s0, s1));
      direct->serve.Add(r);
    }
    const uint32_t root = spans->Add(n_direct, 0, i, shard_times.front().first,
                                     shard_times.back().second);
    for (const auto& [s0, s1] : shard_times) {
      spans->Add(n_shard, root, i, s0, s1);
    }
    direct->slowest_us.push_back(slowest);
    direct->scatter_gather_us.push_back(UsBetween(t0, t1) - slowest);
    sum = std::clamp(sum, 0.0, *population);
    if (all_ok && !resp.partial &&
        std::bit_cast<uint64_t>(sum) != std::bit_cast<uint64_t>(resp.estimate)) {
      return "sharded " + std::to_string(resp.estimate) +
             " != sum of direct shard answers " + std::to_string(sum);
    }
    return "";
  };
  return client;
}

/// Shard requests each sharded request caused, read from the program's own
/// counters (simcard.serve.requests, summed over every shard's service,
/// over simcard.shard.requests) across `n` serial requests with metrics on.
double MeasuredFanout(simcard::shard::ShardedEstimationService* service,
                      const simcard::Matrix& queries,
                      const std::vector<QueryPair>& pairs,
                      const std::vector<uint32_t>& order, size_t n) {
  namespace obs = simcard::obs;
  obs::Counter* sharded = obs::GetCounter("simcard.shard.requests");
  obs::Counter* per_shard = obs::GetCounter("simcard.serve.requests");
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  const int64_t sharded0 = sharded->Value();
  const int64_t per_shard0 = per_shard->Value();
  for (size_t i = 0; i < n; ++i) {
    service->Estimate(MakeRequest(queries, pairs[order[i % order.size()]]));
  }
  const double fanout =
      static_cast<double>(per_shard->Value() - per_shard0) /
      static_cast<double>(std::max<int64_t>(1, sharded->Value() - sharded0));
  obs::SetMetricsEnabled(was_enabled);
  return fanout;
}

/// The traced part of a sharded run: a closed loop of `seconds` whose
/// every answer is followed by direct shard_service(k) calls, then serial
/// passes for allocations and fan-out. Reports the shard.* metrics and
/// returns the traced loop and the direct calls.
std::pair<ClosedLoop, DirectCalls> TraceShardTier(
    simcard::shard::ShardedEstimationService* service,
    const simcard::Matrix& queries, const std::vector<QueryPair>& pairs,
    const std::vector<uint32_t>& order, const std::vector<double>& reference,
    double seconds, const std::string& name, SpanRecorder* spans,
    Report* report) {
  const double population = service->total_population();
  DirectCalls direct;
  direct.phase.name = name + "_direct";
  const uint64_t fired_before = service->hedges_fired();
  const uint64_t won_before = service->hedges_won();
  ClosedLoop traced = RunClosedLoop(
      ShardClient(service, queries, pairs, &population, reference, spans,
                  &direct),
      pairs, order, seconds, name, report);
  const double fired =
      static_cast<double>(service->hedges_fired() - fired_before);
  const double won = static_cast<double>(service->hedges_won() - won_before);
  const double allocs = AllocsPerCall(2000, [&](size_t i) {
    service->Estimate(MakeRequest(queries, pairs[order[i % order.size()]]));
  });
  const double fanout = MeasuredFanout(service, queries, pairs, order, 2000);

  report->AddPhase(traced.phase);
  report->AddPhase(direct.phase);
  const double requests = static_cast<double>(traced.phase.attempted);
  report->Metric("shard.fanout_per_request", fanout, "count",
                 "per-shard serve requests over sharded requests");
  report->Metric("shard.slowest_shard_us_p50",
                 Quantile(direct.slowest_us, 0.5), "us",
                 "slowest direct shard_service(k) call per request");
  report->Metric("shard.scatter_gather_us_p50",
                 Quantile(direct.scatter_gather_us, 0.5), "us",
                 "sharded call minus slowest direct shard");
  report->Metric("shard.partial_ratio",
                 requests > 0 ? static_cast<double>(direct.partial) / requests
                              : 0.0,
                 "ratio");
  report->Metric("shard.hedges_fired", fired, "count");
  report->Metric("shard.hedge_win_ratio", fired > 0 ? won / fired : 0.0,
                 "ratio");
  report->Metric("shard.allocs_per_request", allocs, "count",
                 "operator new calls per sharded Estimate, all threads");
  return {std::move(traced), std::move(direct)};
}

}  // namespace

int RunShard4Closed(const Args& args, Report* report) {
  auto stack = TimedSetUp(BuildShard4, report);
  if (stack == nullptr) return 1;

  // Test queries over the whole 80k rows, with exact truth.
  simcard::WorkloadOptions wl_opts;
  wl_opts.num_train = 0;
  wl_opts.num_test = 100;  // labels scan all 80k rows per query
  wl_opts.seed = kCorpusSeed + 2;
  wl_opts.keep_profiles = false;
  auto wl = simcard::BuildSearchWorkload(stack->dataset, nullptr, wl_opts);
  if (!wl.ok()) {
    std::cerr << "test workload: " << wl.status().ToString() << "\n";
    return 1;
  }
  const simcard::Matrix& queries = wl.value().test_queries;
  const std::vector<QueryPair> pairs = MakePairs(wl.value());
  const std::vector<uint32_t> order = ShuffledOrder(pairs.size(), args.seed);
  auto* service = stack->service.get();

  // Reference: per-shard GlEstimator::Estimate, summed in shard order.
  std::vector<double> reference(pairs.size(), 0.0);
  for (const auto& registry : stack->registries) {
    const auto snapshot = registry->Current();
    const std::vector<double> shard =
        DirectEstimates(*snapshot.estimator, queries, pairs);
    for (size_t i = 0; i < pairs.size(); ++i) reference[i] += shard[i];
  }
  for (double& r : reference) {
    r = std::clamp(r, 0.0, service->total_population());
  }

  const double population = service->total_population();
  auto report_loop = [&](const ClosedLoop& loop) {
    report->AddPhase(loop.phase);
    ReportClosedLoopEndToEnd(loop, report);
  };

  if (!args.trace) {
    report_loop(RunClosedLoop(ShardClient(service, queries, pairs,
                                          &population, reference, nullptr,
                                          nullptr),
                              pairs, order, args.seconds, "closed", report));
    return 0;
  }

  const ClosedLoop untraced = RunClosedLoop(
      ShardClient(service, queries, pairs, &population, reference, nullptr,
                  nullptr),
      pairs, order, args.seconds * 0.3, "closed", report);
  report_loop(untraced);
  SpanRecorder spans(kSpanCapacity);
  const auto [traced, direct] =
      TraceShardTier(service, queries, pairs, order, reference,
                     args.seconds * 0.25, "closed_traced", &spans, report);
  MeasureCoreLayers(*stack->registries[0]->Current().estimator, queries,
                    pairs, order, args.seconds * 0.15, &spans, report);
  const double shard_allocs = ServeAllocsPerRequest(
      service->shard_service(0), queries, pairs, order, 2000);
  ReportServeLayers(direct.serve, direct.phase, shard_allocs, report);
  // No load here writes or reports truth: feedback and update are measured
  // on a glove-sim stack of their own, built for the probe.
  std::unique_ptr<GlStack> glove = TrainGlStack("glove-sim");
  if (glove == nullptr ||
      !ProbeIngestLayers(glove.get(), args, args.seconds * 0.2, &spans,
                         report)) {
    return 1;
  }
  FinishTrace(args, spans, Quantile(untraced.latency.ok_us(), 0.5),
              Quantile(traced.latency.ok_us(), 0.5), report);
  return 0;
}

void ProbeShardLayers(simcard::serve::ModelRegistry* registry,
                      const simcard::Matrix& queries,
                      const std::vector<QueryPair>& pairs,
                      const std::vector<uint32_t>& order, double seconds,
                      SpanRecorder* spans, Report* report) {
  simcard::shard::ShardedEstimationService service({registry},
                                                   ShardOptions());
  std::vector<double> reference =
      DirectEstimates(*registry->Current().estimator, queries, pairs);
  for (double& r : reference) {
    r = std::clamp(r, 0.0, service.total_population());
  }
  TraceShardTier(&service, queries, pairs, order, reference, seconds,
                 "shard_probe", spans, report);
}

}  // namespace perfbench
