// Copyright 2026 The streambid Authors
// The benchmark binary. perfbench/run.py builds it and calls it once
// per mode; the last line of its output is one JSON object.
//
//   perfbench --workload NAME --seed N --seconds S --mode MODE
//             [--trace-out FILE]
//
// Modes:
//   timed   the open-loop run with tracing off: end-to-end metrics.
//   traced  an untraced and a traced open-loop run of S/2 seconds each
//           plus the serial layer replay: per-layer metrics and the
//           tracing overhead.
//   alloc   the serial layer replay under the counting allocator
//           (perfbench_alloc only): alloc.* metrics.
//
// Thread budget: one generator thread, the period driver on the main
// thread, and an executor pool of (CPUs - 1) workers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/cpu.h"
#include "perfbench/layers.h"
#include "perfbench/open_loop.h"
#include "perfbench/report.h"
#include "perfbench/workload.h"

namespace {

using namespace streambid::perfbench;

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --mode timed|traced|alloc [--trace-out FILE]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, mode, trace_out;
  uint64_t seed = 1;
  double seconds = 0.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage("unknown flag");
    }
  }
  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr) return Usage("unknown workload");
  if (!(seconds > 0.0)) return Usage("--seconds must be positive");

  const int cpus = streambid::AvailableCpuCount();
  OpenLoopOptions options;
  options.workload = workload;
  options.seed = seed;
  options.seconds = seconds;
  options.workers = std::max(1, cpus - 1);

  ModeReport report;
  if (mode == "timed") {
    report = RunOpenLoop(options);
  } else if (mode == "traced") {
    options.seconds = seconds / 2.0;
    ModeReport untraced = RunOpenLoop(options);
    options.traced = true;
    options.trace_path = trace_out;
    report = RunOpenLoop(options);
    if (untraced.correct() && report.correct()) {
      const double plain = untraced.metrics.at("decided_per_s");
      report.metrics["telemetry.overhead"] =
          (plain - report.metrics.at("decided_per_s")) / plain;
      report.Merge(RunLayerReplay(*workload, seed, /*count_allocs=*/false));
    }
    untraced.metrics.clear();
    report.Merge(untraced);
  } else if (mode == "alloc") {
    report = RunLayerReplay(*workload, seed, /*count_allocs=*/true);
  } else {
    return Usage("unknown mode");
  }
  report.metrics["workers"] = options.workers;
  for (const auto& [name, value] : report.metrics) {
    if (!std::isfinite(value)) report.Fail("metric " + name + " is not finite");
  }
  std::printf("%s\n", ToJson(report).c_str());
  return report.correct() ? 0 : 1;
}
