// Shared plumbing for the benchmark of record: run arguments, statistics,
// the process-wide allocation counter, the in-memory span recorder used by
// traced runs, and the per-run report every workload fills in.
//
// The benchmark observes the program from outside: it times calls into
// each layer's public functions and records spans around them. Nothing in
// src/ is instrumented for it.
#ifndef SIMCARD_PERFBENCH_SUPPORT_H_
#define SIMCARD_PERFBENCH_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Latency limit behind slo_attainment and max_qps_at_slo.
constexpr double kSloUs = 1000.0;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double UsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1000.0;
}

/// Waits for `future` by polling it, so a closed-loop client sees the
/// reply as soon as it is set instead of after its own wake-up.
template <typename T>
T AwaitSpinning(std::future<T> future) {
  while (future.wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready) {
  }
  return future.get();
}

/// Reserves `n` samples in `v` and faults them in, so that peak_rss_mb does
/// not depend on how many requests a run completes.
inline void ReserveTouched(std::vector<double>* v, size_t n) {
  v->resize(n);
  v->clear();
}

/// Process-wide count of `operator new` calls since start (every thread).
/// Defined in alloc_counter.cc, which replaces the global allocator.
uint64_t AllocCount();

/// q-quantile by nearest rank over a copy of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// max((e+1)/(t+1), (t+1)/(e+1)).
double QError(double estimate, double truth);

/// VmHWM of this process, in MiB.
double PeakRssMb();

/// Host steal and total CPU ticks so far (/proc/stat), to tell a slow host
/// from a slow program.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// \brief Client-observed latency of every request one phase sent, in
/// consecutive 0.25 s windows of send time, each tagged with the CPU ticks
/// the host stole from the machine during it.
///
/// Pooled figures use every request. Window figures are medians over
/// windows, so a stall of a few milliseconds moves only the window it falls
/// in, while a program stall that recurs in most windows still moves the
/// median. The quiet windows are those the host stole least from; they are
/// chosen by steal alone, never by latency.
class LatencyLog {
 public:
  static constexpr int64_t kWindowNs = 250000000;  // 0.25 s
  /// Steal, in ticks over all CPUs, that still leaves a window quiet: one
  /// 10 ms tick of about 100 per window on 4 CPUs.
  static constexpr uint64_t kQuietSteal = 1;

  /// Reserves room for `n` answers and faults it in, so that peak_rss_mb
  /// does not depend on how many requests a run completes.
  void Reserve(size_t n);
  /// Records one request sent at `sent_ns`: `ok` when it was
  /// answered correctly, in `latency_us`.
  void Add(int64_t sent_ns, bool ok, double latency_us);

  /// Latencies of the correct answers, in send order.
  const std::vector<double>& ok_us() const { return ok_us_; }
  uint64_t sent() const { return sent_; }
  /// Correct answers within kSloUs over requests sent; a failed or wrong
  /// answer counts as a miss.
  double slo() const;

  /// Whole windows: every window but the last, which the phase's end cuts.
  std::vector<size_t> AllWindows() const;
  /// Whole windows with at most kQuietSteal ticks stolen; when fewer than
  /// a quarter of them qualify, the quarter with the least steal.
  std::vector<size_t> QuietWindows() const;
  /// Median of each window's p99 over `windows` (the pooled p99 when
  /// `windows` is empty).
  double WindowP99(const std::vector<size_t>& windows) const;
  /// Median of each window's correct answers per second over `windows` (0
  /// when empty).
  double WindowRate(const std::vector<size_t>& windows) const;

 private:
  std::vector<double> ok_us_;
  std::vector<size_t> window_first_;  ///< ok_us_ index where each starts
  std::vector<uint64_t> window_steal_;  ///< ticks stolen per whole window
  int64_t window_start_ns_ = 0;
  uint64_t steal_at_window_start_ = 0;
  uint64_t sent_ = 0;
  uint64_t within_slo_ = 0;  ///< correct answers within kSloUs
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Request accounting for one measured phase.
struct Phase {
  std::string name;
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t incorrect = 0;  ///< answered, but the answer failed a check
};

/// Spans one traced run can keep (32 bytes each): a 20 s run records about
/// 1.8 million.
constexpr size_t kSpanCapacity = size_t{1} << 21;

/// \brief Spans kept in memory during a traced phase, written once at the
/// end. Single writer: each workload records from one thread at a time.
///
/// Storage is reserved up front, so recording does not allocate; spans past
/// the capacity are counted and dropped.
class SpanRecorder {
 public:
  struct Span {
    uint32_t name = 0;
    uint32_t parent = 0;  ///< 1-based span id of the parent; 0 = root
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit SpanRecorder(size_t capacity);

  /// Interns a span name; call before recording starts.
  uint32_t Name(const std::string& name);

  /// Records a finished span and returns its 1-based id (0 when dropped).
  uint32_t Add(uint32_t name, uint32_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns);

  /// Durations (us) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Self times (us) of every span called `name`: its duration minus the
  /// part of its interval that its children cover.
  std::vector<double> SelfTimes(const std::string& name) const;

  size_t size() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Writes every span as JSON lines to `path`.
  bool Write(const std::string& path) const;

 private:
  size_t capacity_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  uint64_t dropped_ = 0;
};

/// \brief Everything one run measured: metrics by name with their unit,
/// per-phase accounting, and correctness violations.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  void AddPhase(const Phase& phase);
  /// Records a correctness violation; the run then fails.
  void Violation(const std::string& what);
  void Note(const std::string& line);

  bool correct() const { return violations_ == 0; }
  uint64_t attempted() const;
  uint64_t failed() const;

  /// Prints the human-readable lines, then one `RESULT {...}` line.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> metrics_;
  std::vector<Phase> phases_;
  std::vector<std::string> notes_;
  uint64_t violations_ = 0;
};

/// Workload entry points; each fills `report` and returns 0, or non-zero
/// when set-up itself failed.
int RunGloveClosed(const Args& args, Report* report);
int RunShard4Closed(const Args& args, Report* report);
int RunGloveIngest(const Args& args, Report* report);

}  // namespace perfbench

#endif  // SIMCARD_PERFBENCH_SUPPORT_H_
