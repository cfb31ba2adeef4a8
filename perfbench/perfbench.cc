// Benchmark of record: runs one workload against the simcard stack and
// prints every metric by name and unit, then one `RESULT {...}` line.
//
//   perfbench --workload <glove_closed|shard4_closed|glove_ingest>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 adds the per-layer
// metrics, recorded as spans around direct calls into each layer. Exits 1
// on any correctness violation and 2 on bad arguments or failed set-up.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/logging.h"
#include "support.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--out-dir D]\n";
    return 2;
  }
  simcard::SetLogLevel(simcard::LogLevel::kWarn);
  perfbench::Report report;
  report.Note("workload " + args.workload + " seed " +
              std::to_string(args.seed) + " seconds " +
              std::to_string(args.seconds) + " trace " +
              (args.trace ? "1" : "0"));
  const perfbench::CpuTicks ticks_before = perfbench::ReadCpuTicks();
  int rc = 2;
  if (args.workload == "glove_closed") {
    rc = perfbench::RunGloveClosed(args, &report);
  } else if (args.workload == "shard4_closed") {
    rc = perfbench::RunShard4Closed(args, &report);
  } else if (args.workload == "glove_ingest") {
    rc = perfbench::RunGloveIngest(args, &report);
  } else {
    std::cerr << "unknown workload " << args.workload << "\n";
  }
  if (rc != 0) {
    std::cerr << "set-up of " << args.workload << " failed\n";
    return 2;
  }
  report.Metric("peak_rss_mb", perfbench::PeakRssMb(), "MB", "VmHWM");
  const perfbench::CpuTicks ticks_after = perfbench::ReadCpuTicks();
  if (ticks_after.total > ticks_before.total) {
    char line[96];
    std::snprintf(line, sizeof(line), "host steal %.2f%% of CPU time",
                  100.0 * static_cast<double>(ticks_after.steal -
                                              ticks_before.steal) /
                      static_cast<double>(ticks_after.total -
                                          ticks_before.total));
    report.Note(line);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
