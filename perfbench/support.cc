#include "support.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double QError(double estimate, double truth) {
  const double e = std::max(estimate, 0.0) + 1.0;
  const double t = std::max(truth, 0.0) + 1.0;
  return std::max(e / t, t / e);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(stat >> v)) break;
    ticks.total += v;
    if (i == 7) ticks.steal = v;
  }
  return ticks;
}

void LatencyLog::Reserve(size_t n) {
  ReserveTouched(&ok_us_, n);
  window_first_.reserve(1024);
  window_steal_.reserve(1024);
}

void LatencyLog::Add(int64_t sent_ns, bool ok, double latency_us) {
  if (window_first_.empty() || sent_ns - window_start_ns_ >= kWindowNs) {
    const uint64_t steal = ReadCpuTicks().steal;
    if (window_first_.empty()) {
      window_start_ns_ = sent_ns;
    } else {
      window_steal_.push_back(steal - steal_at_window_start_);
      window_start_ns_ +=
          (sent_ns - window_start_ns_) / kWindowNs * kWindowNs;
    }
    steal_at_window_start_ = steal;
    window_first_.push_back(ok_us_.size());
  }
  ++sent_;
  if (!ok) return;
  ok_us_.push_back(latency_us);
  if (latency_us <= kSloUs) ++within_slo_;
}

double LatencyLog::slo() const {
  return sent_ == 0 ? 0.0
                    : static_cast<double>(within_slo_) /
                          static_cast<double>(sent_);
}

std::vector<size_t> LatencyLog::AllWindows() const {
  std::vector<size_t> all(window_steal_.size());
  for (size_t w = 0; w < all.size(); ++w) all[w] = w;
  return all;
}

std::vector<size_t> LatencyLog::QuietWindows() const {
  std::vector<uint64_t> sorted = window_steal_;
  std::sort(sorted.begin(), sorted.end());
  const size_t quarter = (sorted.size() + 3) / 4;
  uint64_t cut = kQuietSteal;
  if (quarter > 0 && sorted[quarter - 1] > cut) cut = sorted[quarter - 1];
  std::vector<size_t> quiet;
  for (size_t w = 0; w < window_steal_.size(); ++w) {
    if (window_steal_[w] <= cut) quiet.push_back(w);
  }
  return quiet;
}

double LatencyLog::WindowP99(const std::vector<size_t>& windows) const {
  if (windows.empty()) return Quantile(ok_us_, 0.99);
  std::vector<double> p99s;
  for (size_t w : windows) {
    p99s.push_back(Quantile(
        std::vector<double>(ok_us_.begin() + window_first_[w],
                            ok_us_.begin() + window_first_[w + 1]),
        0.99));
  }
  return Quantile(p99s, 0.5);
}

double LatencyLog::WindowRate(const std::vector<size_t>& windows) const {
  std::vector<double> rates;
  for (size_t w : windows) {
    rates.push_back(
        static_cast<double>(window_first_[w + 1] - window_first_[w]) * 1e9 /
        static_cast<double>(kWindowNs));
  }
  return Quantile(rates, 0.5);
}

SpanRecorder::SpanRecorder(size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

uint32_t SpanRecorder::Name(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t SpanRecorder::Add(uint32_t name, uint32_t parent, uint64_t request,
                           int64_t start_ns, int64_t end_ns) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  spans_.push_back(Span{name, parent, request, start_ns, end_ns});
  return static_cast<uint32_t>(spans_.size());
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  for (size_t id = 0; id < names_.size(); ++id) {
    if (names_[id] != name) continue;
    for (const Span& s : spans_) {
      if (s.name == id) out.push_back(UsBetween(s.start_ns, s.end_ns));
    }
  }
  return out;
}

std::vector<double> SpanRecorder::SelfTimes(const std::string& name) const {
  uint32_t id = 0;
  bool found = false;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      id = static_cast<uint32_t>(i);
      found = true;
    }
  }
  if (!found) return {};
  // Children always follow their parent's request; group child intervals
  // by parent id, then subtract the union of each parent's children.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size() + 1);
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.parent <= spans_.size() &&
        spans_[s.parent - 1].name == id) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != id) continue;
    auto& kids = children[i + 1];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_start = 0;
    int64_t cur_end = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (open && a <= cur_end) {
        cur_end = std::max(cur_end, b);
      } else {
        if (open) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
        open = true;
      }
    }
    if (open) covered += cur_end - cur_start;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) /
                  1000.0);
  }
  return out;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << (i + 1) << ",\"name\":\"" << names_[s.name]
        << "\",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics_.push_back(Entry{name, value, unit, note});
}

void Report::AddPhase(const Phase& phase) { phases_.push_back(phase); }

void Report::Violation(const std::string& what) {
  if (violations_ < 10) std::cerr << "correctness violation: " << what << "\n";
  ++violations_;
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

uint64_t Report::attempted() const {
  uint64_t n = 0;
  for (const Phase& p : phases_) n += p.attempted;
  return n;
}

uint64_t Report::failed() const {
  uint64_t n = 0;
  for (const Phase& p : phases_) n += p.failed + p.incorrect;
  return n;
}

void Report::Print() const {
  for (const std::string& note : notes_) std::cout << note << "\n";
  for (const Phase& p : phases_) {
    std::cout << "phase " << p.name << ": attempted=" << p.attempted
              << " succeeded=" << p.succeeded << " failed=" << p.failed
              << " shed=" << p.shed
              << " deadline_exceeded=" << p.deadline_exceeded
              << " incorrect=" << p.incorrect << "\n";
  }
  char buf[64];
  for (const Entry& e : metrics_) {
    std::snprintf(buf, sizeof(buf), "%.6g", e.value);
    std::cout << "metric " << e.name << " = " << buf << " " << e.unit;
    if (!e.note.empty()) std::cout << "  (" << e.note << ")";
    std::cout << "\n";
  }
  std::cout << "violations " << violations_ << "\n";
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted() << ", \"failed\": " << failed()
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    json << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": " << v
         << ", \"unit\": \"" << e.unit << "\"}";
  }
  json << "}}";
  std::cout << "RESULT " << json.str() << std::endl;
}

}  // namespace perfbench
