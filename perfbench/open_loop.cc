// Copyright 2026 The streambid Authors

#include "perfbench/open_loop.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stop_token>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "gate/stream_ingress.h"
#include "service/gate_status.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace streambid::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Periods closed after the generator starts but before the timed
/// window, so the window opens on a full gate buffer.
constexpr double kRampSeconds = 0.25;
/// A run whose generator sent its offers later than this (p99) or
/// slower than this share of the target rate measured the generator,
/// not the program, and fails.
constexpr double kMaxLagMsP99 = 10.0;
constexpr double kMinRateShare = 0.98;
/// Length of the slices whose median rates and verdict times are
/// reported.
constexpr double kSliceSeconds = 1.0;
/// Chrome trace size cap, in periods.
constexpr size_t kTracePeriods = 2000;

int64_t SinceNs(Clock::time_point base) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              base)
      .count();
}

struct PeriodRecord {
  int64_t start_ns = 0;  ///< ClosePeriod call.
  int64_t end_ns = 0;    ///< ClosePeriod return.
  int64_t drained = 0;   ///< gate.admitted + gate.dropped.
  int64_t dropped = 0;
  int submissions = 0;
  int admitted = 0;
  double revenue = 0.0;
  double cluster_ms = 0.0;  ///< ClusterPeriodReport::elapsed_ms.
};

/// One set-up system and what was recorded against it. Members are
/// declared so that the gate dies before the cluster and the cluster
/// before the telemetry sinks it writes to.
struct System {
  std::unique_ptr<telemetry::MetricsRegistry> metrics;
  std::unique_ptr<telemetry::PeriodTracer> tracer;
  int64_t tracer_base_ns = 0;
  std::unique_ptr<OfferStream> offers;
  std::unique_ptr<cluster::ClusterCenter> center;
  std::unique_ptr<gate::StreamIngress> gate;

  /// Granted offers in grant order (== drain order: one producer at a
  /// time, FIFO drain), with their scheduled send times (-1 for the
  /// synchronous warm-up).
  std::vector<int64_t> granted;
  std::vector<int64_t> due_ns;
  std::vector<PeriodRecord> periods;
  int64_t next_index = 0;
  int64_t offered = 0;
  int64_t shed = 0;
  int64_t errors = 0;
};

Status ClosePeriod(System& sys, Clock::time_point base) {
  const int64_t start = SinceNs(base);
  Result<gate::GatedPeriodReport> gated = sys.gate->ClosePeriod();
  const int64_t end = SinceNs(base);
  STREAMBID_RETURN_IF_ERROR(gated.status());
  PeriodRecord record;
  record.start_ns = start;
  record.end_ns = end;
  record.drained = gated->gate.admitted + gated->gate.dropped;
  record.dropped = gated->gate.dropped;
  record.submissions = gated->report.submissions;
  record.admitted = gated->report.admitted;
  record.revenue = gated->report.revenue;
  record.cluster_ms = gated->report.elapsed_ms;
  sys.periods.push_back(record);
  return Status::Ok();
}

cluster::ClusterCenter::EngineConfigurator Configurator(
    const Workload& workload) {
  return [&workload](stream::Engine& engine) {
    return ConfigureEngine(workload, engine);
  };
}

/// Builds the plan pool, the cluster and the gate, then feeds
/// warmup_periods periods synchronously (total_tickets offers each).
std::unique_ptr<System> SetUp(const OpenLoopOptions& options,
                              Clock::time_point base, ModeReport& report) {
  const Workload& w = *options.workload;
  auto sys = std::make_unique<System>();
  if (options.traced) {
    sys->metrics = std::make_unique<telemetry::MetricsRegistry>();
    sys->tracer = std::make_unique<telemetry::PeriodTracer>(true);
    sys->tracer_base_ns = SinceNs(base);
  }
  sys->offers = std::make_unique<OfferStream>(w, options.seed);
  cluster::ClusterOptions cluster_options =
      MakeClusterOptions(w, options.seed, options.workers);
  cluster_options.metrics = sys->metrics.get();
  cluster_options.tracer = sys->tracer.get();
  sys->center = std::make_unique<cluster::ClusterCenter>(
      cluster_options, Configurator(w));
  gate::IngressOptions gate_options;
  gate_options.tenant_classes = kTenantClasses;
  gate_options.tickets_per_class = w.tickets_per_class;
  gate_options.acquire_timeout_ms = 0.0;
  gate_options.metrics = sys->metrics.get();
  gate_options.tracer = sys->tracer.get();
  sys->gate =
      std::make_unique<gate::StreamIngress>(sys->center.get(), gate_options);

  for (int period = 0; period < w.warmup_periods; ++period) {
    for (int t = 0; t < w.total_tickets(); ++t) {
      const int64_t index = sys->next_index++;
      const Status status = sys->gate->Offer(sys->offers->Make(index));
      ++sys->offered;
      if (status.ok()) {
        sys->granted.push_back(index);
        sys->due_ns.push_back(-1);
      } else if (service::IsShed(status)) {
        ++sys->shed;
      } else {
        ++sys->errors;
        report.Fail("warm-up offer failed: " + status.ToString());
      }
    }
    const Status status = ClosePeriod(*sys, base);
    if (!status.ok()) {
      report.Fail("warm-up period failed: " + status.ToString());
      break;
    }
  }
  return sys;
}

/// The open-loop generator's private record; read only after join.
struct Generator {
  std::vector<int64_t> granted;
  std::vector<int64_t> due_ns;
  std::vector<float> lag_us;    ///< Send time minus scheduled time.
  std::vector<float> offer_us;  ///< Offer call duration (traced runs).
  int64_t offered = 0;
  int64_t shed = 0;
  int64_t errors = 0;
  std::string first_error;
  int64_t start_ns = 0;
  int64_t stop_ns = 0;
};

void Generate(std::stop_token stop, const System& sys,
              gate::StreamIngress& gate, double rate, bool time_offers,
              Clock::time_point base, Generator& out) {
  const double ns_per_offer = 1e9 / rate;
  out.start_ns = SinceNs(base);
  int64_t sent = 0;
  while (!stop.stop_requested()) {
    const int64_t elapsed = SinceNs(base) - out.start_ns;
    const int64_t due_count =
        static_cast<int64_t>(static_cast<double>(elapsed) / ns_per_offer) + 1;
    if (sent >= due_count) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    for (; sent < due_count && !stop.stop_requested(); ++sent) {
      const int64_t due =
          out.start_ns +
          static_cast<int64_t>(static_cast<double>(sent) * ns_per_offer);
      const int64_t index = sys.next_index + sent;
      stream::QuerySubmission submission = sys.offers->Make(index);
      const int64_t send_ns = SinceNs(base);
      const Status status = gate.Offer(std::move(submission));
      if (time_offers) {
        out.offer_us.push_back(
            static_cast<float>((SinceNs(base) - send_ns) / 1e3));
      }
      out.lag_us.push_back(static_cast<float>((send_ns - due) / 1e3));
      ++out.offered;
      if (status.ok()) {
        out.granted.push_back(index);
        out.due_ns.push_back(due);
      } else if (service::IsShed(status)) {
        ++out.shed;
      } else {
        if (out.errors == 0) out.first_error = status.ToString();
        ++out.errors;
      }
    }
  }
  out.stop_ns = SinceNs(base);
}

bool SameDouble(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameShardReport(const cloud::PeriodReport& a,
                     const cloud::PeriodReport& b) {
  if (a.payments.size() != b.payments.size()) return false;
  for (const auto& [id, payment] : a.payments) {  // NOLINT(determinism): order-independent lookup
    const auto it = b.payments.find(id);
    if (it == b.payments.end() || !SameDouble(it->second, payment)) {
      return false;
    }
  }
  return a.period == b.period && a.mechanism == b.mechanism &&
         a.submissions == b.submissions && a.admitted == b.admitted &&
         SameDouble(a.revenue, b.revenue) &&
         SameDouble(a.total_payoff, b.total_payoff) &&
         SameDouble(a.auction_utilization, b.auction_utilization) &&
         SameDouble(a.measured_utilization, b.measured_utilization) &&
         SameDouble(a.shed_fraction, b.shed_fraction) &&
         SameDouble(a.provisioned_capacity, b.provisioned_capacity) &&
         SameDouble(a.energy_cost, b.energy_cost) &&
         a.autoscale_decision.has_value() ==
             b.autoscale_decision.has_value() &&
         a.admitted_ids == b.admitted_ids;
}

/// Re-drives the first replay_periods drained batches, rebuilt from
/// their offer indices, through a fresh cluster (SubmitBatch +
/// RunPeriod) at pool size `pool`; every shard report must match the
/// timed run's bit for bit (wall-clock fields aside).
void CheckReplay(const OpenLoopOptions& options, const System& sys, int pool,
                 ModeReport& report) {
  const Workload& w = *options.workload;
  cluster::ClusterCenter fresh(MakeClusterOptions(w, options.seed, pool),
                               Configurator(w));
  const auto& history = sys.center->history();
  const size_t periods =
      std::min(static_cast<size_t>(w.replay_periods), history.size());
  size_t pos = 0;
  for (size_t k = 0; k < periods; ++k) {
    std::vector<stream::QuerySubmission> batch;
    batch.reserve(static_cast<size_t>(sys.periods[k].drained));
    for (int64_t j = 0; j < sys.periods[k].drained; ++j) {
      batch.push_back(sys.offers->Make(sys.granted[pos++]));
    }
    const auto outcome = fresh.SubmitBatch(std::move(batch));
    const auto replayed = fresh.RunPeriod();
    if (!outcome.ok() || !replayed.ok()) {
      report.Fail("replay at pool " + std::to_string(pool) +
                  " failed in period " + std::to_string(k));
      return;
    }
    const auto& original = history[k].shard_reports;
    bool same = replayed->shard_reports.size() == original.size();
    for (size_t s = 0; same && s < original.size(); ++s) {
      same = SameShardReport(replayed->shard_reports[s], original[s]);
    }
    if (!same) {
      report.Fail("replay at pool " + std::to_string(pool) +
                  " differs from the timed run in period " +
                  std::to_string(k));
      return;
    }
  }
}

/// Accounting, payment and bounded-buffer checks over the whole run.
void CheckOutputs(const Workload& w, const System& sys, ModeReport& report) {
  const gate::StreamIngress& gate = *sys.gate;
  if (gate.total_offered() != sys.offered) {
    report.Fail("gate counted a different number of offers");
  }
  int64_t drained = 0;
  int64_t dropped = 0;
  for (const PeriodRecord& p : sys.periods) {
    drained += p.drained;
    dropped += p.dropped;
    if (p.submissions != p.drained - p.dropped) {
      report.Fail("a period decided a different number of submissions "
                  "than it drained");
    }
  }
  if (sys.offered != static_cast<int64_t>(sys.granted.size()) + sys.shed +
                         sys.errors) {
    report.Fail("offered != granted + shed + errors");
  }
  if (gate.total_shed() != sys.shed) {
    report.Fail("gate counted a different number of sheds");
  }
  if (drained != static_cast<int64_t>(sys.granted.size())) {
    report.Fail("drained != granted");
  }
  if (gate.total_admitted() != drained - dropped) {
    report.Fail("drained != decided + dropped");
  }
  if (sys.errors != 0) {
    report.Fail(std::to_string(sys.errors) + " non-shed offer errors");
  }
  if (dropped != 0) {
    report.Fail(std::to_string(dropped) + " granted offers dropped");
  }
  if (gate.buffered_high_water() > w.total_tickets()) {
    report.Fail("gate buffer outgrew the ticket count");
  }
  const auto& history = sys.center->history();
  if (history.size() != sys.periods.size()) {
    report.Fail("cluster history does not match the periods closed");
    return;
  }
  for (const cluster::ClusterPeriodReport& period : history) {
    for (const cloud::PeriodReport& shard : period.shard_reports) {
      if (static_cast<int>(shard.admitted_ids.size()) != shard.admitted ||
          static_cast<int>(shard.payments.size()) != shard.admitted) {
        report.Fail("admitted ids and payments disagree with the count");
        continue;
      }
      double sum = 0.0;
      for (const int id : shard.admitted_ids) {
        const auto it = shard.payments.find(id);
        if (it == shard.payments.end()) {
          report.Fail("admitted query without a payment");
          continue;
        }
        const double payment = it->second;
        if (!(payment >= 0.0) || payment > sys.offers->Bid(id)) {
          report.Fail("payment outside [0, bid] for query " +
                      std::to_string(id));
        }
        sum += payment;
      }
      if (!SameDouble(sum, shard.revenue)) {
        report.Fail("shard revenue != sum of payments in period " +
                    std::to_string(period.period));
      }
    }
  }
}

struct Window {
  size_t first = 0;  ///< First timed period.
  size_t last = 0;   ///< One past the last timed period.
};

void EndToEndMetrics(const System& sys, const Window& window,
                     ModeReport& report) {
  const std::vector<PeriodRecord>& periods = sys.periods;
  // Verdict time of each decided offer: period k decided exactly the
  // next `drained` granted offers.
  size_t pos = 0;
  for (size_t k = 0; k < window.first; ++k) {
    pos += static_cast<size_t>(periods[k].drained);
  }
  // Rates and verdict times are medians over one-second slices of the
  // window, so a short stall of the host moves one slice, not the run.
  std::vector<double> admitted_per_s, decided_per_s, revenue_per_s,
      decision_p50, decision_p99, period_ms;
  size_t slice_first = window.first;
  double admitted = 0.0, decided = 0.0, revenue = 0.0;
  std::vector<double> decision_ms;
  for (size_t k = window.first; k < window.last; ++k) {
    const PeriodRecord& p = periods[k];
    period_ms.push_back((p.end_ns - p.start_ns) / 1e6);
    admitted += p.admitted;
    decided += p.submissions;
    revenue += p.revenue;
    for (int64_t j = 0; j < p.drained; ++j, ++pos) {
      if (sys.due_ns[pos] >= 0) {
        decision_ms.push_back((p.end_ns - sys.due_ns[pos]) / 1e6);
      }
    }
    const double seconds =
        (p.end_ns - periods[slice_first].start_ns) / 1e9;
    const bool remainder_too_short =
        k + 1 < window.last &&
        (periods[window.last - 1].end_ns - p.end_ns) / 1e9 < kSliceSeconds;
    if ((seconds >= kSliceSeconds && !remainder_too_short) ||
        k + 1 == window.last) {
      admitted_per_s.push_back(admitted / seconds);
      decided_per_s.push_back(decided / seconds);
      revenue_per_s.push_back(revenue / seconds);
      decision_p50.push_back(Quantile(decision_ms, 0.50));
      decision_p99.push_back(Quantile(decision_ms, 0.99));
      slice_first = k + 1;
      admitted = decided = revenue = 0.0;
      decision_ms.clear();
    }
  }
  report.metrics["admitted_per_s"] = Median(admitted_per_s);
  report.metrics["decided_per_s"] = Median(decided_per_s);
  report.metrics["revenue_per_s"] = Median(revenue_per_s);
  report.metrics["decision_ms_p50"] = Median(decision_p50);
  report.metrics["decision_ms_p99"] = Median(decision_p99);
  report.metrics["period_ms_p50"] = Quantile(period_ms, 0.50);
  report.metrics["period_ms_p90"] = Quantile(period_ms, 0.90);
  report.metrics["timed_periods"] = static_cast<double>(period_ms.size());
}

void WriteChromeTrace(const System& sys, const Window& window,
                      const std::vector<telemetry::TraceSpan>& spans,
                      const std::string& path, ModeReport& report) {
  const size_t last = std::min(window.last, window.first + kTracePeriods);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char event[256];
  auto add = [&](const char* name, int tid, double start_us, double dur_us,
                 size_t period) {
    std::snprintf(event, sizeof(event),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"period\":%zu}}",
                  first ? "" : ",", name, tid, start_us, dur_us, period);
    out += event;
    first = false;
  };
  for (size_t k = window.first; k < last; ++k) {
    const PeriodRecord& p = sys.periods[k];
    add("close_period", 0, p.start_ns / 1e3, (p.end_ns - p.start_ns) / 1e3,
        k);
  }
  const double offset_us = sys.tracer_base_ns / 1e3;
  for (const telemetry::TraceSpan& span : spans) {
    const size_t period = static_cast<size_t>(span.period);
    if (period < window.first || period >= last) continue;
    add(telemetry::PhaseName(span.phase), span.shard + 2,
        offset_us + span.start_ms * 1e3, span.duration_ms * 1e3, period);
  }
  out +=
      "],\"metadata\":{\"tracks\":\"tid 0 = period driver, 1 = gate and "
      "cluster tail, 2+s = shard s\"}}";
  std::ofstream file(path);
  file << out;
  if (!file) report.Fail("could not write the Chrome trace to " + path);
}

/// Per-layer metrics of a traced run: self time per phase from the
/// program's spans, executor and rebalancer counts, and the bench's own
/// Offer timings.
void LayerMetrics(const System& sys, const Window& window,
                  const Generator& gen,
                  const cluster::TaskExecutorStats& executor,
                  int64_t migrated, const OpenLoopOptions& options,
                  ModeReport& report) {
  const size_t n = window.last - window.first;
  struct Acc {
    double drain = 0.0;
    double rebalance = 0.0;
    double prepare = 0.0;
    double admit = 0.0;
    double complete = 0.0;
    double chain[kShards] = {};
  };
  std::vector<Acc> acc(n);
  const std::vector<telemetry::TraceSpan> spans = sys.tracer->SortedSpans();
  for (const telemetry::TraceSpan& span : spans) {
    const size_t period = static_cast<size_t>(span.period);
    if (period < window.first || period >= window.last) continue;
    Acc& a = acc[period - window.first];
    const double ms = span.duration_ms;
    switch (span.phase) {
      case telemetry::Phase::kGateDrain:
        a.drain += ms;
        break;
      case telemetry::Phase::kRebalance:
        a.rebalance += ms;
        break;
      case telemetry::Phase::kPrepare:
        a.prepare += ms;
        break;
      case telemetry::Phase::kAdmit:
        a.admit += ms;
        break;
      case telemetry::Phase::kComplete:
        a.complete += ms;
        break;
      case telemetry::Phase::kAutoscale:
        break;  // Inside prepare; autoscaling is off in every workload.
    }
    if (span.shard >= 0 && span.shard < kShards &&
        span.phase != telemetry::Phase::kAutoscale) {
      a.chain[span.shard] += ms;
    }
  }
  std::vector<double> drain, rebalance, run_period, chain_max, skew, wait,
      close_self;
  double prepare = 0.0, admit = 0.0, complete = 0.0, batch = 0.0;
  double admitted = 0.0, submissions = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Acc& a = acc[i];
    const PeriodRecord& p = sys.periods[window.first + i];
    double max_chain = 0.0, sum_chain = 0.0;
    for (const double c : a.chain) {
      max_chain = std::max(max_chain, c);
      sum_chain += c;
    }
    drain.push_back(a.drain);
    rebalance.push_back(a.rebalance);
    run_period.push_back(p.cluster_ms + a.rebalance);
    chain_max.push_back(max_chain);
    skew.push_back(sum_chain > 0.0 ? max_chain / (sum_chain / kShards)
                                   : 1.0);
    wait.push_back(p.cluster_ms - max_chain);
    close_self.push_back((p.end_ns - p.start_ns) / 1e6 - a.drain -
                         p.cluster_ms - a.rebalance);
    prepare += a.prepare;
    admit += a.admit;
    complete += a.complete;
    batch += static_cast<double>(p.drained);
    admitted += p.admitted;
    submissions += p.submissions;
  }
  const double shard_periods = static_cast<double>(n) * kShards;
  std::vector<double> offer_us(gen.offer_us.begin(), gen.offer_us.end());
  auto& m = report.metrics;
  m["gate.offer_us_p50"] = Quantile(offer_us, 0.50);
  m["gate.offer_us_p99"] = Quantile(offer_us, 0.99);
  m["gate.batch"] = batch / static_cast<double>(n);
  m["gate.drain_ms"] = Mean(drain);
  m["cluster.run_period_ms"] = Mean(run_period);
  m["cluster.chain_ms_max"] = Mean(chain_max);
  m["cluster.shard_skew"] = Mean(skew);
  m["cluster.executor_wait_ms"] = Mean(wait);
  m["cluster.steal_share"] =
      executor.executed > 0
          ? static_cast<double>(executor.stolen) / executor.executed
          : 0.0;
  m["cluster.rebalance_ms"] = Mean(rebalance);
  m["cluster.migrated_tenants"] =
      static_cast<double>(migrated) / static_cast<double>(n);
  m["cloud.prepare_ms"] = prepare / shard_periods;
  m["cloud.complete_ms"] = complete / shard_periods;
  m["auction.admit_ms"] = admit / shard_periods;
  m["auction.win_share"] = submissions > 0.0 ? admitted / submissions : 0.0;

  const double close_ms = Mean(close_self) + Mean(drain) + Mean(run_period);
  const double chain_sum = prepare + admit + complete;
  std::printf(
      "# %s self time per timed period (ms, %zu periods): close_period "
      "%.4f = bookkeeping %.4f + gate_drain %.4f + run_period %.4f "
      "[executor wait %.4f + rebalance %.4f + slowest chain %.4f]; "
      "summed over shards: prepare %.4f admit %.4f complete %.4f\n",
      options.workload->name.c_str(), n, close_ms, Mean(close_self),
      Mean(drain), Mean(run_period), Mean(wait), Mean(rebalance),
      Mean(chain_max), prepare / n, admit / n, complete / n);
  if (chain_sum > 0.0) {
    std::printf(
        "# %s share of summed chain time: prepare %.3f admit %.3f "
        "complete %.3f; (gate_drain + prepare + admit per shard) / "
        "close_period %.3f\n",
        options.workload->name.c_str(), prepare / chain_sum,
        admit / chain_sum, complete / chain_sum,
        (Mean(drain) + (prepare + admit) / shard_periods) / close_ms);
  }
  if (!options.trace_path.empty()) {
    WriteChromeTrace(sys, window, spans, options.trace_path, report);
  }
}

}  // namespace

ModeReport RunOpenLoop(const OpenLoopOptions& options) {
  ModeReport report;
  const Workload& w = *options.workload;
  const Clock::time_point base = Clock::now();

  std::vector<double> setup_s;
  std::unique_ptr<System> sys;
  for (int k = 0; k < kSetups && report.correct(); ++k) {
    sys.reset();
    Timer timer;
    sys = SetUp(options, base, report);
    setup_s.push_back(timer.ElapsedSeconds());
  }
  if (!report.correct()) return report;
  // Read before the timed window: the cluster keeps every period's
  // report, so RSS after a fixed-time window grows with throughput and
  // would penalise a faster program. Set-up already runs full periods
  // at the timed batch size.
  const double peak_rss_mb = PeakRssMb();

  // The timed window: a ramp, then periods until `seconds` of wall time
  // are covered.
  Generator gen;
  const size_t reserve = static_cast<size_t>(
      w.offered_per_s * (options.seconds + kRampSeconds + 1.0));
  gen.lag_us.reserve(reserve);
  gen.granted.reserve(reserve);
  gen.due_ns.reserve(reserve);
  if (options.traced) gen.offer_us.reserve(reserve);
  std::jthread generator(Generate, std::cref(*sys), std::ref(*sys->gate),
                         w.offered_per_s, options.traced, base,
                         std::ref(gen));
  const int64_t ramp_end = SinceNs(base) + static_cast<int64_t>(
                                                kRampSeconds * 1e9);
  const int64_t window_ns = static_cast<int64_t>(options.seconds * 1e9);
  Window window;
  bool timing = false;
  int64_t migrated_before = 0;
  auto migrated_counter = [&sys]() -> int64_t {
    if (!sys->metrics) return 0;
    const auto snapshot = sys->metrics->Snapshot();
    const auto it = snapshot.counters.find("cluster_migrated_tenants");
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  for (;;) {
    if (!timing && SinceNs(base) >= ramp_end) {
      timing = true;
      window.first = sys->periods.size();
      sys->center->executor().ResetStats();
      migrated_before = migrated_counter();
    }
    const Status status = ClosePeriod(*sys, base);
    if (!status.ok()) {
      report.Fail("period failed: " + status.ToString());
      break;
    }
    if (timing && sys->periods.back().end_ns -
                          sys->periods[window.first].start_ns >=
                      window_ns) {
      window.last = sys->periods.size();
      break;
    }
  }
  const cluster::TaskExecutorStats executor =
      sys->center->executor().tasks().StatsReport();
  const int64_t migrated = migrated_counter() - migrated_before;
  generator.request_stop();
  generator.join();

  // Fold the generator's record behind the warm-up's, then drain what
  // it left buffered so every granted offer is decided.
  sys->granted.insert(sys->granted.end(), gen.granted.begin(),
                      gen.granted.end());
  sys->due_ns.insert(sys->due_ns.end(), gen.due_ns.begin(),
                     gen.due_ns.end());
  sys->next_index += gen.offered;
  sys->offered += gen.offered;
  sys->shed += gen.shed;
  sys->errors += gen.errors;
  if (gen.errors > 0) report.Fail("offer failed: " + gen.first_error);
  while (report.correct() && sys->gate->buffered() > 0) {
    const Status status = ClosePeriod(*sys, base);
    if (!status.ok()) report.Fail("tail period failed: " + status.ToString());
  }
  report.attempted = sys->offered;
  if (!report.correct() || window.last <= window.first) {
    if (report.correct()) report.Fail("no timed period");
    return report;
  }

  CheckOutputs(w, *sys, report);
  int64_t dropped = 0;
  for (const PeriodRecord& p : sys->periods) dropped += p.dropped;
  report.failed = sys->errors + dropped;

  // Generator validity: late or slow offers void the run.
  std::vector<double> lag_us(gen.lag_us.begin(), gen.lag_us.end());
  const double lag_ms_p99 = Quantile(lag_us, 0.99) / 1e3;
  const double offered_per_s =
      static_cast<double>(gen.offered) /
      ((gen.stop_ns - gen.start_ns) / 1e9);
  if (lag_ms_p99 > kMaxLagMsP99) {
    report.Fail("generator fell behind: p99 lag " +
                std::to_string(lag_ms_p99) + " ms");
  }
  if (offered_per_s < kMinRateShare * w.offered_per_s) {
    report.Fail("generator offered only " + std::to_string(offered_per_s) +
                " offers/s");
  }

  EndToEndMetrics(*sys, window, report);
  report.metrics["setup_s"] = Median(setup_s);
  report.metrics["peak_rss_mb"] = peak_rss_mb;
  report.metrics["load.offered_per_s"] = offered_per_s;
  report.metrics["load.lag_ms_p99"] = lag_ms_p99;
  report.metrics["shed_fraction"] =
      static_cast<double>(sys->shed) / static_cast<double>(sys->offered);
  if (options.traced) {
    LayerMetrics(*sys, window, gen, executor, migrated, options, report);
  }

  CheckReplay(options, *sys, 1, report);
  CheckReplay(options, *sys, options.workers, report);
  return report;
}

}  // namespace streambid::perfbench
