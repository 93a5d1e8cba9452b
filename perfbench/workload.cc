// Copyright 2026 The streambid Authors

#include "perfbench/workload.h"

#include <utility>

#include "common/rng.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"

namespace streambid::perfbench {

namespace {

// The market feeds are part of each workload's definition and do not
// vary with the run seed: a price walk that drifts far from the select
// thresholds changes every selectivity and load estimate, which would
// swamp run-to-run comparisons. The seed draws the offer stream.
constexpr uint64_t kQuoteFeedSeed = 0x51;
constexpr uint64_t kNewsFeedSeed = 0x52;

const std::vector<std::string>& Symbols() {
  static const std::vector<std::string> kSymbols = {"IBM", "AAPL", "MSFT",
                                                    "GOOG"};
  return kSymbols;
}

// Quote prices start at 100 and random-walk, so thresholds around 100
// give every selectivity from almost-all to almost-none.
std::vector<stream::QueryPlan> FirehosePlans() {
  std::vector<stream::QueryPlan> plans;
  stream::QueryBuilder b;
  for (int j = 0; j < 16; ++j) {
    const int src = b.Source("quotes");
    const int sel = b.Select(src, "price", stream::CompareOp::kGt,
                             stream::Value(96.0 + 0.5 * j));
    plans.push_back(b.Build(sel));
  }
  return plans;
}

// 24 x 6 x 10 parameter grid: few distinct first selects (shared by
// many queries), more maps, mostly private final selects.
std::vector<stream::QueryPlan> BulkPlans() {
  std::vector<stream::QueryPlan> plans;
  stream::QueryBuilder b;
  for (int i = 0; i < 24; ++i) {
    for (int k = 0; k < 6; ++k) {
      for (int l = 0; l < 10; ++l) {
        const int src = b.Source("quotes");
        const int pre = b.Select(src, "price", stream::CompareOp::kGt,
                                 stream::Value(94.0 + 0.25 * i));
        const int adj = b.Map(pre, "price", stream::MapFn::kMul,
                              0.9 + 0.05 * k, "adjusted");
        const int post = b.Select(adj, "adjusted", stream::CompareOp::kGt,
                                  stream::Value(90.0 + 2.0 * l));
        plans.push_back(b.Build(post));
      }
    }
  }
  return plans;
}

// Stateful, two-input and window-emitting operators behind a shared
// select: joins with the news feed, sliding averages and top-k.
std::vector<stream::QueryPlan> WindowedPlans() {
  std::vector<stream::QueryPlan> plans;
  stream::QueryBuilder b;
  for (int j = 0; j < 8; ++j) {
    const stream::Value threshold(96.0 + 1.0 * j);
    for (int v = 0; v < 2; ++v) {
      {
        const int src = b.Source("quotes");
        const int sel = b.Select(src, "price", stream::CompareOp::kGt,
                                 threshold);
        const int news = b.Source("news");
        const int join =
            b.Join(sel, news, "symbol", "company", 30.0 + 30.0 * v);
        plans.push_back(b.Build(join));
      }
      {
        const int src = b.Source("quotes");
        const int sel = b.Select(src, "price", stream::CompareOp::kGt,
                                 threshold);
        stream::WindowSpec window;
        window.size = 30.0 + 30.0 * v;
        window.slide = 10.0;
        const int agg =
            b.Aggregate(sel, stream::AggFn::kAvg, "price", "symbol", window);
        plans.push_back(b.Build(agg));
      }
      {
        const int src = b.Source("quotes");
        const int sel = b.Select(src, "price", stream::CompareOp::kGt,
                                 threshold);
        const int top = b.TopK(sel, 3 + 2 * v, "price", 10.0);
        plans.push_back(b.Build(top));
      }
    }
  }
  return plans;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;
  {
    Workload w;
    w.name = "firehose";
    w.mechanism = "cat";
    w.quote_rate = 100.0;
    w.plans = FirehosePlans;
    w.tickets_per_class = 32;
    w.offered_per_s = 100000.0;
    w.total_capacity = 20.0;
    w.warmup_periods = 150;
    w.replay_periods = 500;
    w.layer_periods = 600;
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "bulk_auction";
    w.mechanism = "caf+";
    w.quote_rate = 2.0;
    w.plans = BulkPlans;
    w.tickets_per_class = 800;
    w.offered_per_s = 200000.0;
    w.total_capacity = 12.0;
    w.warmup_periods = 12;
    w.replay_periods = 30;
    w.layer_periods = 24;
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "windowed";
    w.mechanism = "cat";
    w.quote_rate = 100.0;
    w.news_rate = 20.0;
    w.plans = WindowedPlans;
    w.tickets_per_class = 64;
    w.offered_per_s = 150000.0;
    w.total_capacity = 24.0;
    w.rebalance = true;
    w.warmup_periods = 60;
    w.replay_periods = 160;
    w.layer_periods = 160;
    all.push_back(w);
  }
  return all;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kAll = MakeWorkloads();
  return kAll;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Status ConfigureEngine(const Workload& workload, stream::Engine& engine) {
  STREAMBID_RETURN_IF_ERROR(engine.RegisterSource(stream::MakeStockQuoteSource(
      "quotes", Symbols(), workload.quote_rate, kQuoteFeedSeed)));
  if (workload.news_rate > 0.0) {
    STREAMBID_RETURN_IF_ERROR(engine.RegisterSource(
        stream::MakeNewsSource("news", Symbols(), /*listed_fraction=*/0.8,
                               workload.news_rate, kNewsFeedSeed)));
  }
  return Status::Ok();
}

cluster::ClusterOptions MakeClusterOptions(const Workload& workload,
                                           uint64_t seed,
                                           int executor_threads) {
  cluster::ClusterOptions options;
  options.num_shards = kShards;
  options.total_capacity = workload.total_capacity;
  options.routing = cluster::RoutingPolicy::kHashUser;
  options.mechanism = workload.mechanism;
  options.period_length = kPeriodLength;
  options.seed = seed;
  options.engine_options.tick = 1.0;
  options.engine_options.sink_history = 4;
  options.executor_threads = executor_threads;
  options.rebalance.enabled = workload.rebalance;
  options.rebalance.seed = seed;
  return options;
}

OfferStream::OfferStream(const Workload& workload, uint64_t seed)
    : seed_(seed), tenants_(kUsers, kZipfTheta), plans_(workload.plans()) {}

OfferStream::Draw OfferStream::DrawFor(int64_t index) const {
  Rng rng(seed_ ^ Mix64(static_cast<uint64_t>(index) + 0x632BE59BD9B4E019));
  Draw draw;
  draw.user = static_cast<auction::UserId>(tenants_.Sample(rng));
  draw.bid = rng.NextRange(10.0, 100.0);
  draw.plan = static_cast<size_t>(rng.NextBounded(plans_.size()));
  return draw;
}

stream::QuerySubmission OfferStream::Make(int64_t index) const {
  const Draw draw = DrawFor(index);
  stream::QuerySubmission sub;
  sub.query_id = static_cast<int>(index);
  sub.user = draw.user;
  sub.bid = draw.bid;
  sub.plan = plans_[draw.plan];
  return sub;
}

double OfferStream::Bid(int64_t index) const { return DrawFor(index).bid; }

}  // namespace streambid::perfbench
