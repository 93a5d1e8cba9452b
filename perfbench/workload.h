// Copyright 2026 The streambid Authors
// The benchmark's three workloads and the seeded offer stream they
// share. Every input is a pure function of (workload, seed, offer
// index): the generator, the replay check and the serial layer replay
// all rebuild offer i from its index alone, so a recorded run is just
// a list of indices.

#ifndef STREAMBID_PERFBENCH_WORKLOAD_H_
#define STREAMBID_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_center.h"
#include "common/status.h"
#include "common/zipf.h"
#include "stream/engine.h"
#include "stream/load_estimator.h"

namespace streambid::perfbench {

/// Fixed shape shared by all workloads.
inline constexpr int kShards = 4;
inline constexpr int kTenantClasses = 2;
inline constexpr int kUsers = 200;
inline constexpr double kZipfTheta = 1.1;
inline constexpr double kPeriodLength = 10.0;

struct Workload {
  std::string name;
  std::string mechanism;
  /// Feed rates in tuples per virtual second; no news feed when 0.
  double quote_rate = 0.0;
  double news_rate = 0.0;
  /// The plan pool the offer stream draws from.
  std::vector<stream::QueryPlan> (*plans)() = nullptr;
  int tickets_per_class = 0;
  /// Open-loop offered rate of the single generator, offers per second.
  double offered_per_s = 0.0;
  double total_capacity = 0.0;
  bool rebalance = false;
  /// Synchronously fed periods that end every set-up.
  int warmup_periods = 0;
  /// Leading periods (warm-up included) replayed through a fresh
  /// cluster by the identity check.
  int replay_periods = 0;
  /// Shard-periods driven by the serial layer replay.
  int layer_periods = 0;

  int total_tickets() const { return tickets_per_class * kTenantClasses; }
};

/// The named workload, or null.
const Workload* FindWorkload(const std::string& name);
const std::vector<Workload>& AllWorkloads();

/// Registers the workload's source feeds on one shard engine (the
/// cluster's configurator, and the layer replay's center and twin
/// engines).
Status ConfigureEngine(const Workload& workload, stream::Engine& engine);

/// Cluster options for the workload; telemetry hooks are left null.
cluster::ClusterOptions MakeClusterOptions(const Workload& workload,
                                           uint64_t seed,
                                           int executor_threads);

/// The seeded offer stream: a plan pool built once (part of set-up)
/// plus per-index draws of tenant, bid and plan.
class OfferStream {
 public:
  OfferStream(const Workload& workload, uint64_t seed);

  /// Submission `index` (query id == index).
  stream::QuerySubmission Make(int64_t index) const;
  /// The bid of submission `index`, without building its plan.
  double Bid(int64_t index) const;

 private:
  struct Draw {
    auction::UserId user = 0;
    double bid = 0.0;
    size_t plan = 0;
  };
  Draw DrawFor(int64_t index) const;

  uint64_t seed_;
  ZipfDistribution tenants_;
  std::vector<stream::QueryPlan> plans_;
};

}  // namespace streambid::perfbench

#endif  // STREAMBID_PERFBENCH_WORKLOAD_H_
