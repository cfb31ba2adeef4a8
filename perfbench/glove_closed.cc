// glove_closed: one closed-loop client against a 2-worker service with no
// micro-batching and no feedback. No queue forms, so the GL phases set the
// latency. Every served answer must equal GlEstimator::Estimate on the same
// snapshot bitwise. The traced run ends with the shard and ingest side
// probes (layers.h), for the layers this load does not run.
#include "layers.h"

namespace perfbench {

namespace {

std::unique_ptr<GlStack> BuildGloveClosed() {
  std::unique_ptr<GlStack> stack = TrainGlStack("glove-sim");
  if (stack == nullptr) return nullptr;
  stack->registry.Publish(stack->model);
  simcard::serve::ServeOptions opts;
  opts.num_threads = 2;
  opts.max_batch = 1;
  opts.default_deadline_ms = 1000.0;
  if (!StartServing(stack.get(), opts)) return nullptr;
  return stack;
}

}  // namespace

int RunGloveClosed(const Args& args, Report* report) {
  auto stack = TimedSetUp(BuildGloveClosed, report);
  if (stack == nullptr) return 1;

  const simcard::Matrix& queries = stack->env.workload.test_queries;
  const std::vector<QueryPair> pairs = MakePairs(stack->env.workload);
  const std::vector<uint32_t> order = ShuffledOrder(pairs.size(), args.seed);
  const auto snapshot = stack->registry.Current();
  const std::vector<double> reference =
      DirectEstimates(*snapshot.estimator, queries, pairs);
  const double population = static_cast<double>(stack->env.dataset.size());
  auto* service = stack->service.get();

  if (!args.trace) {
    const ClosedLoop loop = RunClosedLoop(
        ServeClient(service, queries, pairs, &population, &reference,
                    nullptr),
        pairs, order, args.seconds, "closed", report);
    report->AddPhase(loop.phase);
    ReportClosedLoopEndToEnd(loop, report);
    return 0;
  }

  const ClosedLoop untraced = RunClosedLoop(
      ServeClient(service, queries, pairs, &population, &reference, nullptr),
      pairs, order, args.seconds * 0.3, "closed", report);
  SpanRecorder spans(kSpanCapacity);
  ServeTrace trace(&spans);
  const ClosedLoop traced = RunClosedLoop(
      ServeClient(service, queries, pairs, &population, &reference, &trace),
      pairs, order, args.seconds * 0.3, "closed_traced", report);
  MeasureCoreLayers(*snapshot.estimator, queries, pairs, order,
                    args.seconds * 0.1, &spans, report);
  const double allocs =
      ServeAllocsPerRequest(service, queries, pairs, order, 2000);
  report->AddPhase(untraced.phase);
  report->AddPhase(traced.phase);
  ReportClosedLoopEndToEnd(untraced, report);
  ReportServeLayers(trace.samples(), traced.phase, allocs, report);
  // Side probes for the layers this load does not run. The ingest probe
  // goes last: it puts the stack behind an UpdateManager.
  ProbeShardLayers(&stack->registry, queries, pairs, order,
                   args.seconds * 0.1, &spans, report);
  if (!ProbeIngestLayers(stack.get(), args, args.seconds * 0.2, &spans,
                         report)) {
    return 1;
  }
  FinishTrace(args, spans, Quantile(untraced.latency.ok_us(), 0.5),
              Quantile(traced.latency.ok_us(), 0.5), report);
  return 0;
}

}  // namespace perfbench
