// Copyright 2026 The streambid Authors

#include "perfbench/layers.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>
#include <vector>

#include "bench/alloc_probe.h"
#include "cloud/dsms_center.h"
#include "common/timer.h"
#include "service/admission_service.h"

namespace streambid::perfbench {

namespace {

/// Leading shard-periods left out of every mean: the engine starts
/// empty, so the first periods install into a bare network.
constexpr int kSkipPeriods = 5;

/// Wall time and heap allocations of one measured section.
class Section {
 public:
  Section() : allocs_(bench::AllocCount()) {}
  void AddTo(double& ns, double& allocs) const {
    ns += static_cast<double>(timer_.ElapsedNanos());
    allocs += static_cast<double>(bench::AllocCount() - allocs_);
  }

 private:
  int64_t allocs_;
  Timer timer_;
};

int64_t TupleOps(const stream::Engine& engine) {
  int64_t total = 0;
  for (const stream::OperatorLoadInfo& info : engine.OperatorLoads()) {
    total += info.tuples_processed;
  }
  return total;
}

}  // namespace

ModeReport RunLayerReplay(const Workload& w, uint64_t seed,
                          bool count_allocs) {
  ModeReport report;
  if (count_allocs && !bench::AllocProbeAvailable()) {
    report.Fail("the counting allocator is not linked into this binary");
    return report;
  }
  stream::EngineOptions engine_options;
  engine_options.capacity = w.total_capacity / kShards;
  engine_options.tick = 1.0;
  engine_options.sink_history = 4;
  stream::Engine engine(engine_options);
  stream::Engine twin(engine_options);
  if (!ConfigureEngine(w, engine).ok() ||
      !ConfigureEngine(w, twin).ok()) {
    report.Fail("source registration failed");
    return report;
  }
  cloud::DsmsCenterOptions center_options;
  center_options.period_length = kPeriodLength;
  center_options.mechanism = w.mechanism;
  center_options.seed = seed;
  cloud::DsmsCenter center(center_options, &engine);
  service::AdmissionService service;
  const OfferStream offers(w, seed);

  const int batch = w.total_tickets() / kShards;
  int64_t next_index = 0;
  std::vector<int> twin_active;
  // Prepare, admit and complete are timed by the traced run's spans;
  // here only their allocations count.
  double submit_ns = 0, transition_ns = 0, run_ns = 0, span_timed_ns = 0;
  double submit_allocs = 0, prepare_allocs = 0, admit_allocs = 0,
         complete_allocs = 0, transition_allocs = 0, run_allocs = 0;
  double submissions = 0, admitted = 0, auctions = 0, queries = 0,
         operators = 0, tuple_ops = 0, nodes = 0, shared_nodes = 0;
  int counted = 0;
  for (int period = 0; period < w.layer_periods && report.correct();
       ++period) {
    // Sink for the warm-up periods, which no mean includes.
    double discarded = 0.0;
    const bool count = period >= kSkipPeriods;
    auto into = [&](double& sum) -> double& {
      return count ? sum : discarded;
    };

    std::vector<stream::QuerySubmission> subs;
    for (int b = 0; b < batch; ++b) subs.push_back(offers.Make(next_index++));
    {
      const Section section;
      for (stream::QuerySubmission& sub : subs) {
        const Status status = center.Submit(std::move(sub));
        if (!status.ok()) report.Fail("submit: " + status.ToString());
      }
      section.AddTo(into(submit_ns), into(submit_allocs));
    }
    std::optional<Result<cloud::PreparedAuction>> prepared;
    {
      const Section section;
      prepared.emplace(center.PrepareAuction());
      section.AddTo(span_timed_ns, into(prepare_allocs));
    }
    if (!prepared->ok()) {
      report.Fail("prepare: " + prepared->status().ToString());
      break;
    }
    std::optional<service::AdmissionResponse> response;
    if ((*prepared)->has_auction) {
      std::optional<Result<service::AdmissionResponse>> admitted_result;
      {
        const Section section;
        admitted_result.emplace(service.Admit((*prepared)->request));
        section.AddTo(span_timed_ns, into(admit_allocs));
      }
      if (!admitted_result->ok()) {
        report.Fail("admit: " + admitted_result->status().ToString());
        break;
      }
      response = std::move(**admitted_result);
      if (count) {
        ++auctions;
        queries += (*prepared)->build->instance.num_queries();
        operators += (*prepared)->build->instance.num_operators();
      }
    }
    std::optional<Result<cloud::PeriodReport>> completed;
    {
      const Section section;
      completed.emplace(
          center.CompletePeriod(response ? &*response : nullptr));
      section.AddTo(span_timed_ns, into(complete_allocs));
    }
    if (!completed->ok()) {
      report.Fail("complete: " + completed->status().ToString());
      break;
    }
    const cloud::PeriodReport& period_report = **completed;

    // The twin repeats the center's transition and run.
    std::vector<stream::QueryPlan> plans;
    for (const int id : period_report.admitted_ids) {
      plans.push_back(offers.Make(id).plan);
    }
    {
      const Section section;
      twin.BeginTransition();
      for (const int id : twin_active) {
        if (!twin.UninstallQuery(id).ok()) report.Fail("twin uninstall");
      }
      for (size_t i = 0; i < plans.size(); ++i) {
        if (!twin.InstallQuery(period_report.admitted_ids[i], plans[i]).ok()) {
          report.Fail("twin install");
        }
      }
      if (!twin.CommitTransition().ok()) report.Fail("twin commit");
      section.AddTo(into(transition_ns), into(transition_allocs));
    }
    twin_active = period_report.admitted_ids;
    const int64_t ops_before = TupleOps(twin);
    {
      const Section section;
      twin.Run(kPeriodLength);
      section.AddTo(into(run_ns), into(run_allocs));
    }
    if (std::bit_cast<uint64_t>(twin.LastRunCost()) !=
        std::bit_cast<uint64_t>(engine.LastRunCost())) {
      report.Fail("twin engine run cost differs from the center's");
    }
    for (const int id : twin_active) {
      const stream::SinkStats* a = twin.sink(id);
      const stream::SinkStats* b = engine.sink(id);
      if (a == nullptr || b == nullptr || a->tuples != b->tuples) {
        report.Fail("twin engine sink count differs for query " +
                    std::to_string(id));
        break;
      }
    }
    if (count) {
      ++counted;
      submissions += period_report.submissions;
      admitted += period_report.admitted;
      tuple_ops += static_cast<double>(TupleOps(twin) - ops_before);
      nodes += twin.num_runtime_nodes();
      shared_nodes += twin.num_shared_nodes();
    }
  }
  if (!report.correct()) return report;
  if (counted == 0 || submissions == 0 || tuple_ops == 0) {
    report.Fail("the layer replay measured nothing");
    return report;
  }
  auto& m = report.metrics;
  const double n = counted;
  if (count_allocs) {
    m["alloc.submit"] = submit_allocs / n;
    m["alloc.prepare"] = prepare_allocs / n;
    m["alloc.admit"] = admit_allocs / n;
    m["alloc.transition"] = transition_allocs / n;
    m["alloc.run"] = run_allocs / n;
    m["alloc.per_admitted"] =
        (submit_allocs + prepare_allocs + admit_allocs + complete_allocs) /
        std::max(admitted, 1.0);
    return report;
  }
  m["cloud.submit_us"] = submit_ns / submissions / 1e3;
  m["auction.queries"] = auctions > 0 ? queries / auctions : 0.0;
  m["auction.operators"] = auctions > 0 ? operators / auctions : 0.0;
  m["stream.transition_ms"] = transition_ns / n / 1e6;
  m["stream.run_ms"] = run_ns / n / 1e6;
  m["stream.tuple_ops"] = tuple_ops / n;
  m["stream.ns_per_tuple_op"] = run_ns / tuple_ops;
  m["stream.nodes"] = nodes / n;
  m["stream.shared_nodes"] = shared_nodes / n;
  return report;
}

}  // namespace streambid::perfbench
