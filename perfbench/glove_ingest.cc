// glove_ingest: the glove_closed stack behind an UpdateManager with a
// journal, and feedback on. One client thread issues closed-loop reads,
// reports each read's exact truth through ReportActual, and after every
// kReadsPerWrite reads stages one delta, alternating Insert and Erase. A
// second thread runs Refresh() after every kDeltasPerRefresh deltas, so
// reads meet epoch hot-swaps, journal appends and a growing feedback store.
// A refresh relabels on every core (the library's global thread pool) and
// then holds one for its fine-tunes: it slows the reads that overlap it.
// The period spreads refreshes over the run (one every 3.5 s or so on a
// 4-vCPU Xeon) and keeps them to under half of it, so the typical window of
// the run is a read-and-write one; update.read_p99_during_refresh_us prices
// the rest.
//
// Truth starts from the labels (an exact full scan) and is then kept by the
// bench: it mirrors every acknowledged delta and updates the exact count of
// every (query, threshold) pair with one distance per test query. Erases
// walk the original rows downwards, so an erased row's index is the same in
// every epoch: stable compaction only shifts rows after an erased one, and
// every earlier erase was a later row.
//
// The traced run ends with the shard side probe (layers.h). The ingest
// side probe of the other workloads' traced runs is defined here too: this
// load, on a stack put behind an UpdateManager for it.
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <optional>
#include <stop_token>
#include <thread>

#include "data/generators.h"
#include "dist/metric.h"
#include "layers.h"

namespace perfbench {

namespace {

constexpr size_t kReadsPerWrite = 32;
/// Refresh() is due after every kDeltasPerRefresh deltas (about 3.5 s of
/// reads); a refresh that falls due while one runs starts when it ends.
constexpr size_t kDeltasPerRefresh = 1500;
/// The side probe of the other workloads' traced runs is a few seconds
/// long; a shorter period puts a refresh or two inside it.
constexpr size_t kProbeDeltasPerRefresh = 250;
constexpr size_t kInsertPool = 20000;

/// `seed` drives the refresh RNG streams (fallback re-sampling, fine-tunes).
std::unique_ptr<GlStack> BuildIngest(uint64_t seed,
                                     const std::string& journal_dir) {
  std::unique_ptr<GlStack> stack = TrainGlStack("glove-sim");
  if (stack == nullptr || !AttachIngest(stack.get(), seed, journal_dir)) {
    return nullptr;
  }
  return stack;
}

/// Bytes of every journal file (*.wal) under `dir`, read from outside.
double JournalBytes(const std::string& dir) {
  double bytes = 0.0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".wal") {
      bytes += static_cast<double>(entry.file_size(ec));
    }
  }
  return bytes;
}

/// The bench's mirror of the data: exact truth of every pair under every
/// acknowledged delta, and the next insert and erase to stage.
struct Mirror {
  const simcard::Matrix* queries = nullptr;
  const simcard::Dataset* original = nullptr;
  simcard::Matrix inserts;
  std::vector<QueryPair> pairs;
  size_t next_insert = 0;
  int64_t next_erase = 0;  ///< next original row to erase (walks down)
  int64_t erase_floor = 0;
  double max_rows = 0.0;  ///< clamp bound: no epoch ever holds more rows

  void Apply(const float* x, double delta) {
    const size_t dim = original->dim();
    const simcard::Metric metric = original->metric();
    for (size_t i = 0; i < pairs.size();) {
      const uint32_t row = pairs[i].row;
      const float d = simcard::Distance(queries->Row(row), x, dim, metric);
      for (; i < pairs.size() && pairs[i].row == row; ++i) {
        if (d <= pairs[i].tau) pairs[i].truth += delta;
      }
    }
  }
};

struct IngestLoop {
  ClosedLoop reads;
  Phase writes, reports, refreshes;
  std::vector<double> base_qerror;
  ServeSamples serve;  ///< traced loops only
  std::vector<double> report_us, write_us, insert_us, during_refresh_us;
  std::vector<double> refresh_ms, refreshed_ratio, journal_per_delta;
  uint64_t corrected = 0;
  double neighbors = 0.0;
};

IngestLoop RunIngestLoop(GlStack* stack, Mirror* mirror,
                         const std::vector<uint32_t>& order,
                         const std::string& journal_dir,
                         size_t deltas_per_refresh, double seconds,
                         const std::string& name, SpanRecorder* spans,
                         Report* report) {
  IngestLoop out;
  out.writes.name = name + "_writes";
  out.reports.name = name + "_reports";
  out.refreshes.name = name + "_refreshes";
  auto* service = stack->service.get();
  auto* updates = stack->updates.get();
  const double segments =
      static_cast<double>(stack->model->segmentation().num_segments());

  std::optional<ServeTrace> trace;
  uint32_t n_report = 0, n_write = 0, n_refresh = 0;
  if (spans != nullptr) {
    trace.emplace(spans);
    n_report = spans->Name("feedback.report");
    n_write = spans->Name("update.write");
    n_refresh = spans->Name("update.refresh");
  }

  // Refresh thread: one Refresh() per `deltas_per_refresh` staged deltas. A
  // stop request ends it once no refresh is due, also when this scope
  // unwinds.
  std::mutex mu;
  std::condition_variable_any cv;
  bool refresh_due = false;
  std::atomic<bool> refreshing{false};
  std::vector<std::pair<int64_t, int64_t>> refresh_spans;
  std::jthread refresher([&](std::stop_token stop) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (!cv.wait(lock, stop, [&] { return refresh_due; })) return;
        refresh_due = false;
      }
      const double pending = static_cast<double>(updates->pending());
      if (pending > 0) {
        out.journal_per_delta.push_back(JournalBytes(journal_dir) / pending);
      }
      ++out.refreshes.attempted;
      refreshing.store(true);
      const int64_t t0 = NowNs();
      auto outcome = updates->Refresh();
      const int64_t t1 = NowNs();
      refreshing.store(false);
      if (!outcome.ok()) {
        ++out.refreshes.failed;
        std::cerr << "Refresh: " << outcome.status().ToString() << "\n";
        continue;
      }
      ++out.refreshes.succeeded;
      if (!outcome.value().refreshed) continue;
      refresh_spans.emplace_back(t0, t1);
      out.refresh_ms.push_back(UsBetween(t0, t1) / 1e3);
      out.refreshed_ratio.push_back(
          static_cast<double>(outcome.value().segments_refreshed) / segments);
    }
  });

  const simcard::Matrix& queries = *mirror->queries;
  using simcard::serve::EstimateResponse;
  ClosedLoopClient<EstimateResponse> client = ServeClient(
      service, queries, mirror->pairs, &mirror->max_rows, nullptr, nullptr);
  // Each correct read: feedback figures, then ReportActual with the exact
  // truth, untimed.
  client.inspect = [&](uint64_t i, uint32_t idx, const EstimateResponse& resp,
                       int64_t t0, int64_t t1) -> std::string {
    const QueryPair& pair = mirror->pairs[idx];
    if (refreshing.load()) out.during_refresh_us.push_back(UsBetween(t0, t1));
    out.base_qerror.push_back(QError(resp.base_estimate, pair.truth));
    if (resp.corrected) ++out.corrected;
    out.neighbors += static_cast<double>(resp.feedback_neighbors);
    ++out.reports.attempted;
    const int64_t t2 = NowNs();
    const simcard::Status st =
        service->ReportActual(resp.request_id, pair.truth);
    const int64_t t3 = NowNs();
    if (st.ok()) {
      ++out.reports.succeeded;
      out.report_us.push_back(UsBetween(t2, t3));
    } else {
      ++out.reports.failed;
    }
    if (trace) {
      trace->Add(i, t0, t1, resp);
      spans->Add(n_report, 0, i, t2, t3);
    }
    return "";
  };
  // After every kReadsPerWrite reads, one delta: inserts and erases
  // alternate while both last.
  size_t deltas = 0;
  client.between = [&](uint64_t i) {
    if ((i + 1) % kReadsPerWrite != 0) return;
    const bool insert = ((i + 1) / kReadsPerWrite) % 2 == 0 ||
                        mirror->next_erase < mirror->erase_floor;
    if (insert && mirror->next_insert >= mirror->inserts.rows()) return;
    const float* x =
        insert ? mirror->inserts.Row(mirror->next_insert)
               : mirror->original->Point(
                     static_cast<size_t>(mirror->next_erase));
    ++out.writes.attempted;
    const int64_t t0 = NowNs();
    const simcard::Status st =
        insert ? updates->Insert(
                     std::span<const float>(x, mirror->original->dim()))
               : updates->Erase(static_cast<uint32_t>(mirror->next_erase));
    const int64_t t1 = NowNs();
    if (!CountStatus(st, &out.writes)) return;
    ++out.writes.succeeded;
    out.write_us.push_back(UsBetween(t0, t1));
    if (spans != nullptr) spans->Add(n_write, 0, i, t0, t1);
    if (insert) {
      out.insert_us.push_back(UsBetween(t0, t1));
      ++mirror->next_insert;
      mirror->max_rows += 1.0;
      mirror->Apply(x, +1.0);
    } else {
      --mirror->next_erase;
      mirror->Apply(x, -1.0);
    }
    if (++deltas % deltas_per_refresh == 0) {
      std::lock_guard<std::mutex> lock(mu);
      refresh_due = true;
      cv.notify_one();
    }
  };
  out.reads = RunClosedLoop(client, mirror->pairs, order, seconds,
                            name + "_reads", report);
  refresher.request_stop();
  refresher.join();
  if (trace) out.serve = trace->samples();
  if (spans != nullptr) {
    for (size_t r = 0; r < refresh_spans.size(); ++r) {
      spans->Add(n_refresh, 0, r, refresh_spans[r].first,
                 refresh_spans[r].second);
    }
  }
  return out;
}

void ReportIngestPhases(const IngestLoop& loop, Report* report) {
  report->AddPhase(loop.reads.phase);
  report->AddPhase(loop.writes);
  report->AddPhase(loop.reports);
  report->AddPhase(loop.refreshes);
}

/// write_ack_p50_us, write_ack_p99_us and refresh_s.
void ReportIngestWrites(const IngestLoop& loop, Report* report) {
  const std::string writes = "n=" + std::to_string(loop.write_us.size());
  report->Metric("write_ack_p50_us", Quantile(loop.write_us, 0.5), "us",
                 writes);
  report->Metric("write_ack_p99_us", Quantile(loop.write_us, 0.99), "us",
                 writes);
  report->Metric("refresh_s", Quantile(loop.refresh_ms, 0.5) / 1e3, "s",
                 "median of " + std::to_string(loop.refresh_ms.size()) +
                     " refreshes");
}

void ReportIngestEndToEnd(const IngestLoop& loop, Report* report) {
  ReportIngestPhases(loop, report);
  ReportClosedLoopEndToEnd(loop.reads, report);
  ReportIngestWrites(loop, report);
}

void ReportIngestLayers(const IngestLoop& loop, Report* report) {
  const double reads = static_cast<double>(loop.reads.phase.succeeded);
  const double served_p50 = Quantile(loop.reads.qerror, 0.5);
  report->Metric("feedback.report_us_p50", Quantile(loop.report_us, 0.5),
                 "us");
  report->Metric("feedback.corrected_ratio",
                 reads > 0 ? static_cast<double>(loop.corrected) / reads : 0.0,
                 "ratio");
  report->Metric("feedback.neighbors_mean",
                 reads > 0 ? loop.neighbors / reads : 0.0, "count");
  report->Metric("feedback.qerror_gain",
                 served_p50 > 0 ? Quantile(loop.base_qerror, 0.5) / served_p50
                                : 0.0,
                 "ratio", "base over served qerror_p50");
  report->Metric("update.insert_us_p50", Quantile(loop.insert_us, 0.5), "us");
  const std::string refreshes = "n=" + std::to_string(loop.refresh_ms.size());
  report->Metric("update.refresh_ms", Quantile(loop.refresh_ms, 0.5), "ms",
                 refreshes);
  report->Metric("update.segments_refreshed_ratio",
                 Mean(loop.refreshed_ratio), "ratio", refreshes);
  report->Metric("update.journal_bytes_per_delta",
                 Quantile(loop.journal_per_delta, 0.5), "bytes",
                 "*.wal bytes over pending deltas, before each refresh");
  report->Metric("update.epochs_published",
                 static_cast<double>(loop.refresh_ms.size()), "count");
  report->Metric("update.read_p99_during_refresh_us",
                 Quantile(loop.during_refresh_us, 0.99), "us",
                 "n=" + std::to_string(loop.during_refresh_us.size()));
}

/// The bench's mirror of `stack`'s data as it starts: truth from the
/// labels, inserts drawn from `seed`, erases walking down from the last
/// row to the middle one.
bool MakeMirror(const GlStack& stack, uint64_t seed, Mirror* mirror) {
  mirror->queries = &stack.env.workload.test_queries;
  mirror->original = &stack.env.dataset;
  auto inserts = simcard::MakeAnalogUpdates(
      "glove-sim", simcard::Scale::kSmall, kInsertPool, seed + 77);
  if (!inserts.ok()) {
    std::cerr << "inserts: " << inserts.status().ToString() << "\n";
    return false;
  }
  mirror->inserts = std::move(inserts).value();
  mirror->pairs = MakePairs(stack.env.workload);
  mirror->max_rows = static_cast<double>(stack.env.dataset.size());
  mirror->next_erase = static_cast<int64_t>(stack.env.dataset.size()) - 1;
  mirror->erase_floor = mirror->next_erase / 2;
  return true;
}

}  // namespace

bool AttachIngest(GlStack* stack, uint64_t seed,
                  const std::string& journal_dir) {
  std::error_code ec;
  std::filesystem::remove_all(journal_dir, ec);
  simcard::update::UpdateOptions uopts;
  uopts.journal_dir = journal_dir;
  uopts.seed = seed;
  uopts.allow_full_reseg = false;
  const simcard::Dataset& data = stack->env.dataset;
  // The manager relabels and fine-tunes on the training queries; the test
  // queries stay with the bench, which keeps their truth itself.
  simcard::SearchWorkload training = stack->env.workload;
  training.test_queries = simcard::Matrix();
  training.test.clear();
  training.test_profiles.clear();
  // A service already running stops before its manager is replaced.
  stack->service.reset();
  stack->updates = std::make_unique<simcard::update::UpdateManager>(
      simcard::Dataset(data.name(), data.points(), data.metric(),
                       data.tau_max()),
      std::move(training), &stack->registry, uopts);
  simcard::Status st = stack->updates->Start(*stack->model);
  if (!st.ok()) {
    std::cerr << "UpdateManager::Start: " << st.ToString() << "\n";
    return false;
  }
  simcard::serve::ServeOptions opts;
  opts.num_threads = 2;
  opts.max_batch = 1;
  opts.default_deadline_ms = 1000.0;
  opts.feedback.enabled = true;
  return StartServing(stack, opts);
}

bool ProbeIngestLayers(GlStack* stack, const Args& args, double seconds,
                       SpanRecorder* spans, Report* report) {
  const std::string journal_dir = args.out_dir + "/journal";
  if (!AttachIngest(stack, args.seed, journal_dir)) return false;
  Mirror mirror;
  if (!MakeMirror(*stack, args.seed, &mirror)) return false;
  const std::vector<uint32_t> order =
      ShuffledOrder(mirror.pairs.size(), args.seed);
  const IngestLoop probe =
      RunIngestLoop(stack, &mirror, order, journal_dir,
                    kProbeDeltasPerRefresh, seconds, "ingest_probe", spans,
                    report);
  ReportIngestPhases(probe, report);
  ReportIngestWrites(probe, report);
  ReportIngestLayers(probe, report);
  return true;
}

int RunGloveIngest(const Args& args, Report* report) {
  const std::string journal_dir = args.out_dir + "/journal";
  auto stack = TimedSetUp(
      [&] { return BuildIngest(args.seed, journal_dir); }, report);
  if (stack == nullptr) return 1;

  Mirror mirror;
  if (!MakeMirror(*stack, args.seed, &mirror)) return 1;
  const std::vector<uint32_t> order =
      ShuffledOrder(mirror.pairs.size(), args.seed);

  if (!args.trace) {
    ReportIngestEndToEnd(RunIngestLoop(stack.get(), &mirror, order,
                                       journal_dir, kDeltasPerRefresh,
                                       args.seconds, "ingest", nullptr,
                                       report),
                         report);
    return 0;
  }

  // The loops get most of a traced run, so that each sees a refresh.
  const IngestLoop untraced = RunIngestLoop(
      stack.get(), &mirror, order, journal_dir, kDeltasPerRefresh,
      args.seconds * 0.4, "ingest", nullptr, report);
  SpanRecorder spans(kSpanCapacity);
  const IngestLoop traced = RunIngestLoop(
      stack.get(), &mirror, order, journal_dir, kDeltasPerRefresh,
      args.seconds * 0.4, "ingest_traced", &spans, report);
  const auto snapshot = stack->registry.Current();
  MeasureCoreLayers(*snapshot.estimator, *mirror.queries, mirror.pairs, order,
                    args.seconds * 0.1, &spans, report);
  const double allocs = ServeAllocsPerRequest(
      stack->service.get(), *mirror.queries, mirror.pairs, order, 2000);
  ProbeShardLayers(&stack->registry, *mirror.queries, mirror.pairs, order,
                   args.seconds * 0.1, &spans, report);
  ReportIngestEndToEnd(untraced, report);
  ReportIngestPhases(traced, report);
  ReportServeLayers(traced.serve, traced.reads.phase, allocs, report);
  ReportIngestLayers(traced, report);
  FinishTrace(args, spans, Quantile(untraced.reads.latency.ok_us(), 0.5),
              Quantile(traced.reads.latency.ok_us(), 0.5), report);
  return 0;
}

}  // namespace perfbench
