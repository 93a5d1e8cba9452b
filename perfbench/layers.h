// Copyright 2026 The streambid Authors
// The deterministic serial layer replay: one shard driven on one
// thread through public calls only (DsmsCenter::Submit,
// PrepareAuction, AdmissionService::Admit, CompletePeriod), with a twin
// stream::Engine repeating each transition and run so that the engine
// layer's transition and execution are timed (and their heap
// allocations counted) apart. Each period's batch is the next
// total_tickets / shards submissions of the seeded offer stream.

#ifndef STREAMBID_PERFBENCH_LAYERS_H_
#define STREAMBID_PERFBENCH_LAYERS_H_

#include <cstdint>

#include "perfbench/report.h"
#include "perfbench/workload.h"

namespace streambid::perfbench {

/// With `count_allocs` the report carries the alloc.* metrics (the
/// binary must link the counting allocator); otherwise the timings and
/// counts of the cloud, auction and stream layers.
ModeReport RunLayerReplay(const Workload& workload, uint64_t seed,
                          bool count_allocs);

}  // namespace streambid::perfbench

#endif  // STREAMBID_PERFBENCH_LAYERS_H_
