#include "layers.h"

#include <bit>
#include <cstdio>
#include <iostream>
#include <random>
#include <span>
#include <string>

#include "core/features.h"
#include "dist/metric.h"
#include "shard/shard_builder.h"

namespace perfbench {

using simcard::EstimateRequest;
using simcard::GlEstimator;
using simcard::GlEstimatorConfig;
using simcard::Matrix;
using simcard::StatusCode;

std::unique_ptr<GlStack> TrainGlStack(const std::string& dataset) {
  auto stack = std::make_unique<GlStack>();
  simcard::EnvOptions opts;
  opts.num_segments = 16;
  opts.train_queries_override = kTrainQueries;
  opts.test_queries_override = kTestQueries;
  opts.keep_profiles = false;  // only join-set labelling reads them
  opts.seed = kCorpusSeed;
  auto env = simcard::BuildEnvironment(dataset, simcard::Scale::kSmall, opts);
  if (!env.ok()) {
    std::cerr << "environment " << dataset << ": "
              << env.status().ToString() << "\n";
    return nullptr;
  }
  stack->env = std::move(env).value();
  auto model = std::make_unique<GlEstimator>(
      simcard::shard::FastShardConfig(GlEstimatorConfig::GlCnn()));
  simcard::Status st = model->Train(simcard::MakeTrainContext(stack->env));
  if (!st.ok()) {
    std::cerr << "training GL-CNN: " << st.ToString() << "\n";
    return nullptr;
  }
  stack->model = std::move(model);
  return stack;
}

bool StartServing(GlStack* stack,
                  const simcard::serve::ServeOptions& options) {
  stack->service = std::make_unique<simcard::serve::EstimationService>(
      &stack->registry, options);
  const Matrix& queries = stack->env.workload.test_queries;
  EstimateRequest request;
  request.query = std::span<const float>(queries.Row(0), queries.cols());
  request.tau = 0.1f;
  return stack->service->Submit(request).get().status.ok();
}

std::vector<QueryPair> MakePairs(const simcard::SearchWorkload& workload) {
  std::vector<QueryPair> pairs;
  for (const auto& lq : workload.test) {
    for (const auto& t : lq.thresholds) {
      pairs.push_back(QueryPair{lq.row, t.tau, static_cast<double>(t.card)});
    }
  }
  return pairs;
}

std::vector<uint32_t> ShuffledOrder(size_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

EstimateRequest MakeRequest(const Matrix& queries, const QueryPair& pair) {
  EstimateRequest request;
  request.query = std::span<const float>(queries.Row(pair.row), queries.cols());
  request.tau = pair.tau;
  return request;
}

std::vector<double> DirectEstimates(const GlEstimator& model,
                                    const Matrix& queries,
                                    const std::vector<QueryPair>& pairs) {
  std::vector<double> out;
  out.reserve(pairs.size());
  for (const QueryPair& p : pairs) {
    out.push_back(model.Estimate(MakeRequest(queries, p)));
  }
  return out;
}

ClosedLoopClient<simcard::serve::EstimateResponse> ServeClient(
    simcard::serve::EstimationService* service, const Matrix& queries,
    const std::vector<QueryPair>& pairs, const double* population,
    const std::vector<double>* reference, ServeTrace* trace) {
  using simcard::serve::EstimateResponse;
  ClosedLoopClient<EstimateResponse> client;
  client.send = [service, &queries, &pairs](uint32_t idx) {
    return AwaitSpinning(service->Submit(MakeRequest(queries, pairs[idx])));
  };
  client.population = population;
  if (reference == nullptr && trace == nullptr) return client;
  client.inspect = [reference, trace](uint64_t i, uint32_t idx,
                                      const EstimateResponse& resp,
                                      int64_t t0, int64_t t1) -> std::string {
    if (reference != nullptr && std::bit_cast<uint64_t>(resp.estimate) !=
                                    std::bit_cast<uint64_t>((*reference)[idx])) {
      return "served " + std::to_string(resp.estimate) +
             " != GlEstimator::Estimate " + std::to_string((*reference)[idx]);
    }
    if (trace != nullptr) trace->Add(i, t0, t1, resp);
    return "";
  };
  return client;
}

bool CountStatus(const simcard::Status& status, Phase* phase) {
  if (status.ok()) return true;
  ++phase->failed;
  if (status.code() == StatusCode::kUnavailable) ++phase->shed;
  if (status.code() == StatusCode::kDeadlineExceeded) {
    ++phase->deadline_exceeded;
  }
  return false;
}

double ServeAllocsPerRequest(simcard::serve::EstimationService* service,
                             const Matrix& queries,
                             const std::vector<QueryPair>& pairs,
                             const std::vector<uint32_t>& order, size_t n) {
  return AllocsPerCall(n, [&](size_t i) {
    service->Submit(MakeRequest(queries, pairs[order[i % order.size()]]))
        .get();
  });
}

void MeasureCoreLayers(const GlEstimator& model, const Matrix& queries,
                       const std::vector<QueryPair>& pairs,
                       const std::vector<uint32_t>& order, double seconds,
                       SpanRecorder* spans,
                       Report* report) {
  const simcard::Segmentation& seg = model.segmentation();
  const size_t dim = model.dim();
  const simcard::Metric metric = model.metric();
  const simcard::GlobalModel* global = model.global_model();

  // Allocation and provenance counts: untraced passes over the cycle.
  const double allocs_per_query = AllocsPerCall(pairs.size(), [&](size_t i) {
    model.Estimate(MakeRequest(queries, pairs[i]));
  });
  double segments = 0.0, fallbacks = 0.0, forced = 0.0;
  for (const QueryPair& p : pairs) {
    simcard::EstimateProbe probe;
    EstimateRequest request = MakeRequest(queries, p);
    request.options.probe = &probe;
    model.Estimate(request);
    segments += probe.evaluated;
    fallbacks += probe.fallback_segments;
    forced += probe.forced_segments;
  }
  const double n_pairs = static_cast<double>(pairs.size());

  const uint32_t n_gl = spans->Name("core.gl");
  const uint32_t n_features = spans->Name("core.features");
  const uint32_t n_global = spans->Name("core.global");
  const uint32_t n_select = spans->Name("core.select");
  const uint32_t n_locals = spans->Name("core.locals");
  const uint32_t n_estimate = spans->Name("core.estimate");
  const uint32_t n_centroid = spans->Name("dist.centroid");

  double sink = 0.0;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t i = 0; NowNs() < end; ++i) {
    const QueryPair& p = pairs[order[i % order.size()]];
    const float* q = queries.Row(p.row);
    const int64_t t0 = NowNs();
    std::vector<float> xc = simcard::CentroidDistanceRow(q, seg, dim, metric);
    const int64_t t1 = NowNs();
    double sum = 0.0;
    int64_t t2 = t1, t3 = t1;
    if (global != nullptr) {
      std::vector<float> probs = global->Probabilities(q, p.tau, xc.data());
      t2 = NowNs();
      std::vector<size_t> selected = global->SelectSegments(probs);
      t3 = NowNs();
      for (size_t s : selected) {
        const simcard::LocalModel* local = model.local_model(s);
        if (local != nullptr) sum += local->Estimate(q, p.tau, xc.data());
      }
    }
    const int64_t t4 = NowNs();
    sink += sum;
    const uint32_t root = spans->Add(n_gl, 0, i, t0, t4);
    spans->Add(n_features, root, i, t0, t1);
    spans->Add(n_global, root, i, t1, t2);
    spans->Add(n_select, root, i, t2, t3);
    spans->Add(n_locals, root, i, t3, t4);

    const int64_t t5 = NowNs();
    sink += model.Estimate(MakeRequest(queries, p));
    const int64_t t6 = NowNs();
    spans->Add(n_estimate, 0, i, t5, t6);

    const int64_t t7 = NowNs();
    float acc = 0.0f;
    for (size_t c = 0; c < seg.num_segments(); ++c) {
      acc += simcard::Distance(q, seg.centroids.Row(c), dim, metric);
    }
    const int64_t t8 = NowNs();
    sink += acc;
    spans->Add(n_centroid, 0, i, t7, t8);
  }

  if (!std::isfinite(sink)) report->Violation("core: non-finite direct sum");

  report->Metric("dist.centroid_us", Quantile(spans->Durations("dist.centroid"), 0.5),
                 "us", "distance kernel over every centroid, p50");
  report->Metric("core.features_us",
                 Quantile(spans->Durations("core.features"), 0.5), "us");
  report->Metric("core.global_us",
                 Quantile(spans->Durations("core.global"), 0.5), "us");
  report->Metric("core.select_us",
                 Quantile(spans->Durations("core.select"), 0.5), "us");
  report->Metric("core.locals_us",
                 Quantile(spans->Durations("core.locals"), 0.5), "us");
  report->Metric("core.estimate_us",
                 Quantile(spans->Durations("core.estimate"), 0.5), "us");
  report->Metric("core.allocs_per_query", allocs_per_query, "count",
                 "operator new calls per GlEstimator::Estimate");
  report->Metric("core.segments_per_query", segments / n_pairs, "count");
  report->Metric("core.fallback_per_query", fallbacks / n_pairs, "count");
  report->Metric("core.forced_per_query", forced / n_pairs, "count");
}

void ServeSamples::Add(const simcard::serve::EstimateResponse& response) {
  queue_us.push_back(response.queue_us);
  eval_us.push_back(response.eval_us);
  overhead_us.push_back(response.total_us - response.queue_us -
                        response.eval_us);
  batch_size.push_back(static_cast<double>(response.batch_size));
}

ServeTrace::ServeTrace(SpanRecorder* spans)
    : spans_(spans),
      request_(spans->Name("request")),
      queue_(spans->Name("serve.queue")),
      eval_(spans->Name("serve.eval")) {}

uint32_t ServeTrace::Add(uint64_t request, int64_t start_ns, int64_t end_ns,
                         const simcard::serve::EstimateResponse& response) {
  samples_.Add(response);
  const uint32_t root = spans_->Add(request_, 0, request, start_ns, end_ns);
  const int64_t queued =
      start_ns + static_cast<int64_t>(response.queue_us * 1e3);
  spans_->Add(queue_, root, request, start_ns, queued);
  spans_->Add(eval_, root, request, queued,
              queued + static_cast<int64_t>(response.eval_us * 1e3));
  return root;
}

void ReportServeLayers(const ServeSamples& samples, const Phase& phase,
                       double allocs_per_request, Report* report) {
  report->Metric("serve.queue_us_p50", Quantile(samples.queue_us, 0.5), "us");
  report->Metric("serve.queue_us_p99", Quantile(samples.queue_us, 0.99), "us");
  report->Metric("serve.eval_us_p50", Quantile(samples.eval_us, 0.5), "us");
  report->Metric("serve.overhead_us_p50", Quantile(samples.overhead_us, 0.5),
                 "us", "total - queue - eval");
  report->Metric("serve.batch_size_mean", Mean(samples.batch_size), "count");
  report->Metric("serve.shed", static_cast<double>(phase.shed), "count");
  report->Metric("serve.deadline_exceeded",
                 static_cast<double>(phase.deadline_exceeded), "count");
  report->Metric("serve.allocs_per_request", allocs_per_request, "count",
                 "operator new calls per Submit().get(), all threads");
}

void ReportLatencyAndAccuracy(const LatencyLog& latency,
                              const std::vector<double>& qerror,
                              Report* report) {
  const std::vector<double>& ok_us = latency.ok_us();
  const std::vector<size_t> all = latency.AllWindows();
  const std::vector<size_t> quiet = latency.QuietWindows();
  if (ok_us.size() < 1000 * std::max<size_t>(1, all.size())) {
    report->Note("warning: under 1000 answers per window, so fewer than 10 "
                 "beyond each window's p99");
  }
  char note[160];
  std::snprintf(note, sizeof(note), "n=%zu", ok_us.size());
  report->Metric("latency_p50_us", Quantile(ok_us, 0.5), "us", note);
  std::snprintf(note, sizeof(note),
                "median of %zu quiet of %zu windows' p99; all windows %.1f, "
                "pooled %.1f",
                quiet.size(), all.size(), latency.WindowP99(all),
                Quantile(ok_us, 0.99));
  report->Metric("latency_p99_us", latency.WindowP99(quiet), "us", note);
  report->Metric("slo_attainment", latency.slo(), "ratio",
                 "answered correctly within 1 ms over " +
                     std::to_string(latency.sent()) + " sent");
  report->Metric("qerror_p50", Quantile(qerror, 0.5), "ratio");
  report->Metric("qerror_p95", Quantile(qerror, 0.95), "ratio");
}

void ReportClosedLoopEndToEnd(const ClosedLoop& loop, Report* report) {
  ReportLatencyAndAccuracy(loop.latency, loop.qerror, report);
  const std::vector<size_t> all = loop.latency.AllWindows();
  const std::vector<size_t> quiet = loop.latency.QuietWindows();
  char note[128];
  std::snprintf(note, sizeof(note),
                "median of %zu quiet of %zu windows; all windows %.1f, "
                "pooled %.1f",
                quiet.size(), all.size(), loop.latency.WindowRate(all),
                loop.throughput());
  report->Metric("throughput_qps",
                 quiet.empty() ? loop.throughput()
                               : loop.latency.WindowRate(quiet),
                 "1/s", note);
  report->Metric("loadgen.lag_p99_us", Quantile(loop.lag_us, 0.99), "us",
                 "closed loop: client gap between reply and next send");
}

void FinishTrace(const Args& args, const SpanRecorder& spans,
                 double untraced_p50_us, double traced_p50_us,
                 Report* report) {
  const std::string path =
      args.out_dir + "/trace-" + args.workload + ".jsonl";
  if (!spans.Write(path)) {
    report->Note("warning: could not write spans to " + path);
  }
  report->Note("spans: " + std::to_string(spans.size()) + " kept, " +
               std::to_string(spans.dropped()) + " dropped -> " + path);
  for (const std::string& name : spans.names()) {
    const std::vector<double> total = spans.Durations(name);
    if (total.empty()) continue;
    const std::vector<double> self = spans.SelfTimes(name);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "span %-16s count=%zu p50_us=%.3f self_p50_us=%.3f",
                  name.c_str(), total.size(), Quantile(total, 0.5),
                  Quantile(self, 0.5));
    report->Note(line);
  }
  report->Metric("obs.trace_overhead_ratio",
                 untraced_p50_us > 0.0 ? traced_p50_us / untraced_p50_us : 0.0,
                 "ratio", "traced over untraced latency_p50_us");
}

}  // namespace perfbench
