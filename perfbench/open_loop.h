// Copyright 2026 The streambid Authors
// The timed run: one open-loop generator thread offers the seeded
// stream to gate::StreamIngress at a fixed rate, and the period driver
// (the calling thread) closes periods back to back. Every run checks
// its outputs and replays a prefix of its drained batches through a
// fresh cluster at two pool sizes.

#ifndef STREAMBID_PERFBENCH_OPEN_LOOP_H_
#define STREAMBID_PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <string>

#include "perfbench/report.h"
#include "perfbench/workload.h"

namespace streambid::perfbench {

struct OpenLoopOptions {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Executor pool size of the timed cluster.
  int workers = 1;
  /// Attach the program's PeriodTracer and MetricsRegistry and time
  /// every Offer; the report then carries per-layer metrics instead of
  /// end-to-end ones.
  bool traced = false;
  /// Where a traced run writes its Chrome trace (empty: nowhere).
  std::string trace_path;
};

ModeReport RunOpenLoop(const OpenLoopOptions& options);

}  // namespace streambid::perfbench

#endif  // STREAMBID_PERFBENCH_OPEN_LOOP_H_
