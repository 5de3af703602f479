// Multi-tenant serving tests: token-bucket admission, deficit-weighted-
// fair scheduling (one flooding tenant must not inflate the other tiers'
// p99), the hot-key result cache (deterministic eviction, match-set
// identity against the uncached path), fixed-seed reproducibility of
// the whole tenant loop, and tenancy composed with retries, match
// collection and live ingest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "core/experiment.h"
#include "core/match.h"
#include "core/window_join.h"
#include "mem/address_space.h"
#include "obs/tenant.h"
#include "serve/arrival.h"
#include "serve/cache.h"
#include "serve/ingest.h"
#include "serve/server.h"
#include "serve/tenant.h"
#include "sim/cost_model.h"
#include "sim/gpu.h"
#include "sim/specs.h"
#include "workload/key_column.h"

namespace gpujoin::serve {
namespace {

// Deterministic synthetic backend: service time is linear in tuples and
// the match set is a pure function of the slice, so cache-on and
// cache-off runs must reproduce identical matches. Calls numbered
// [fail_from, fail_to) (from 0) fail after appending a stray partial
// match, which shows up as a duplicate if a retry keeps it.
class FakeBackend final : public WindowBackend {
 public:
  FakeBackend(uint64_t sample, double seconds_per_tuple, int fail_from = 0,
              int fail_to = 0)
      : sample_(sample),
        seconds_per_tuple_(seconds_per_tuple),
        fail_from_(fail_from),
        fail_to_(fail_to) {}

  uint64_t sample_size() const override { return sample_; }

  Result<double> ServiceSlice(uint64_t begin, uint64_t count,
                              uint64_t ordinal) override {
    return ServiceSliceCollect(begin, count, ordinal, nullptr);
  }

  Result<double> ServiceSliceCollect(
      uint64_t begin, uint64_t count, uint64_t /*ordinal*/,
      std::vector<core::JoinMatch>* collect) override {
    const int call = calls_++;
    if (call >= fail_from_ && call < fail_to_) {
      if (collect != nullptr) collect->push_back(core::JoinMatch{begin, 0});
      return Status::Internal("injected backend failure");
    }
    if (collect != nullptr) {
      for (uint64_t i = 0; i < count; i += 8) {
        collect->push_back(core::JoinMatch{begin + i, 2 * (begin + i) + 1});
      }
    }
    return static_cast<double>(count) * seconds_per_tuple_;
  }

 private:
  uint64_t sample_;
  double seconds_per_tuple_;
  int fail_from_;
  int fail_to_;
  int calls_ = 0;
};

TenantConfig TwoTierConfig() {
  TenantConfig tc;
  tc.num_tenants = 8;
  tc.tiers = {TenantTier{"gold", 4.0, 0, 0}, TenantTier{"bronze", 1.0, 0, 0}};
  tc.tenant_zipf = 0;  // uniform: every tenant offers the same load
  tc.seed = 99;
  return tc;
}

ServeConfig TenantServeConfig() {
  ServeConfig sc;
  sc.arrival.model = ArrivalModel::kDeterministic;
  // 3% of the FakeBackend's capacity: the rogue-free cells close most
  // batches on the deadline, so their p99 is pinned near the deadline and
  // the isolation ratio below is not load-sensitive.
  sc.arrival.rate = 5000;
  sc.requests = 20000;
  sc.tuples_per_request = 64;
  sc.batch.batch_tuples = 1024;  // 16 requests per batch
  sc.batch.min_batch_tuples = 1024;
  sc.batch.adaptive = false;
  sc.batch.deadline_seconds = 1e-3;
  sc.max_backlog_tuples = 0;  // shed only at the token buckets
  sc.tenants = TwoTierConfig();
  return sc;
}

TEST(TenantConfig, ValidationNamesTheOffendingField) {
  const struct {
    void (*set)(TenantConfig&);
    const char* names;
  } cases[] = {
      {[](TenantConfig& c) { c.tiers.clear(); }, "tiers"},
      {[](TenantConfig& c) { c.tiers[1].name = "gold"; }, "unique"},
      {[](TenantConfig& c) { c.tiers[0].name = ""; }, "name"},
      {[](TenantConfig& c) { c.tiers[0].weight = 0; }, "weight"},
      {[](TenantConfig& c) { c.tiers[1].rate_tuples_per_sec = -1; },
       "rate_tuples_per_sec"},
      {[](TenantConfig& c) { c.tenant_zipf = -0.5; }, "tenant_zipf"},
      {[](TenantConfig& c) { c.key_zipf = NAN; }, "key_zipf"},
      {[](TenantConfig& c) { c.rogue_extra = -2; }, "rogue_extra"},
      {[](TenantConfig& c) {
         c.rogue_extra = 1;
         c.rogue_tenant = 8;
       },
       "rogue_tenant"},
  };
  for (const auto& c : cases) {
    TenantConfig tc = TwoTierConfig();
    c.set(tc);
    Status st = tc.Validate();
    ASSERT_FALSE(st.ok()) << c.names;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.names;
    EXPECT_NE(st.ToString().find(c.names), std::string::npos)
        << st.ToString();
  }
  // Disabled tenancy validates with every tenancy field at its default,
  // and refuses, by name, a field it would otherwise silently ignore.
  TenantConfig off;
  off.num_tenants = 0;
  EXPECT_TRUE(off.Validate().ok());
  const struct {
    void (*set)(TenantConfig&);
    const char* names;
  } ignored[] = {
      {[](TenantConfig& c) { c.tiers = TwoTierConfig().tiers; }, "tiers"},
      {[](TenantConfig& c) { c.key_universe = 16; }, "key_universe"},
      {[](TenantConfig& c) { c.rogue_extra = 1; }, "rogue_extra"},
      {[](TenantConfig& c) { c.rogue_tenant = 3; }, "rogue_tenant"},
  };
  for (const auto& c : ignored) {
    TenantConfig tc;
    c.set(tc);
    Status st = tc.Validate();
    ASSERT_FALSE(st.ok()) << c.names;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.names;
    EXPECT_NE(st.ToString().find(c.names), std::string::npos)
        << st.ToString();
  }
}

TEST(ResultCacheConfig, ValidationNamesTheOffendingField) {
  ResultCacheConfig cfg;
  cfg.reserved_bytes = 1 << 20;
  cfg.probe_depth_lines = 0;
  Status st = cfg.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("probe_depth_lines"), std::string::npos);

  cfg = ResultCacheConfig{};
  cfg.reserved_bytes = 8;  // smaller than one entry's overhead
  st = cfg.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("reserved_bytes"), std::string::npos);

  // Disabled cache (0 bytes) validates vacuously.
  EXPECT_TRUE(ResultCacheConfig{}.Validate().ok());
}

TEST(TenantRouter, TokenBucketEnforcesTierRate) {
  TenantConfig tc;
  tc.num_tenants = 1;
  tc.tiers = {TenantTier{"only", 1.0, /*rate=*/640, /*burst=*/64}};
  auto router = TenantRouter::Create(tc, /*tuples_per_request=*/64).value();

  TenantRouter::Draw draw;
  draw.tenant = 0;
  draw.tier = 0;
  // The bucket starts full with one request's worth of tuples.
  EXPECT_TRUE(router->Admit(draw, 0.0, 64));
  EXPECT_FALSE(router->Admit(draw, 0.0, 64));
  // Half a refill interval is not enough for a whole request.
  EXPECT_FALSE(router->Admit(draw, 0.05, 64));
  // A full interval (64 tuples / 640 per sec = 0.1 s) is.
  EXPECT_TRUE(router->Admit(draw, 0.1, 64));

  // Unlimited tier (rate 0) never sheds.
  TenantConfig open = tc;
  open.tiers[0].rate_tuples_per_sec = 0;
  auto free_router = TenantRouter::Create(open, 64).value();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(free_router->Admit(draw, 0.0, 64));
  }
}

TEST(TenantRouter, DeficitRoundRobinHonorsTierWeights) {
  // Tenant 0 lands in "gold" (weight 4), tenant 1 in "bronze" (weight 1).
  TenantConfig tc = TwoTierConfig();
  tc.num_tenants = 2;
  const uint64_t tpr = 64;
  auto router = TenantRouter::Create(tc, tpr).value();

  TenantRouter::Draw gold{0, 0, 0, false};
  TenantRouter::Draw bronze{1, 1, 0, false};
  for (uint64_t id = 0; id < 100; ++id) {
    router->Enqueue(id % 2 == 0 ? gold : bronze, id);
  }

  // One DRR pass over 20 requests: gold drains 4 per visit, bronze 1.
  std::vector<uint64_t> popped;
  router->PopBatch(20 * tpr, &popped);
  ASSERT_EQ(popped.size(), 20u);
  const uint64_t gold_popped = static_cast<uint64_t>(
      std::count_if(popped.begin(), popped.end(),
                    [](uint64_t id) { return id % 2 == 0; }));
  EXPECT_EQ(gold_popped, 16u);
  EXPECT_EQ(popped.size() - gold_popped, 4u);

  // The first round serves gold its full quantum before bronze's turn.
  EXPECT_EQ(popped[0] % 2, 0u);
  EXPECT_EQ(popped[3] % 2, 0u);
  EXPECT_EQ(popped[4] % 2, 1u);
}

TEST(RequestServer, TenantModeFixedSeedIsDeterministic) {
  ServeConfig sc = TenantServeConfig();
  sc.requests = 6000;
  sc.tenants.tenant_zipf = 1.75;
  sc.tenants.rogue_extra = 2;
  sc.tenants.rogue_tenant = 3;
  sc.tenants.key_universe = 128;
  sc.collect_matches = true;
  for (TenantTier& tier : sc.tenants.tiers) {
    tier.rate_tuples_per_sec = 64 * 2000;
  }

  auto run_once = [&](ServeReport* out) {
    mem::AddressSpace space;
    sim::Gpu gpu(&space, sim::V100NvLink2());
    ResultCacheConfig cc;
    cc.reserved_bytes = 64 << 10;
    auto cache = ResultCache::Create(cc, gpu).value();
    FakeBackend backend(128 * 64, 1e-7);
    RequestServer server(backend, sc);
    server.AttachCache(cache.get());
    *out = server.Run().value();
  };

  ServeReport a, b;
  run_once(&a);
  run_once(&b);

  // Bit-identical accounting, JSON and match sets across repeats.
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.counters.requests_admitted, b.counters.requests_admitted);
  EXPECT_EQ(a.counters.requests_shed, b.counters.requests_shed);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(obs::TenantsJson(a.tenants), obs::TenantsJson(b.tenants));
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_GT(a.tenants.cache.hits, 0u);
  EXPECT_GT(a.tenants.rogue_requests, 0u);
}

TEST(RequestServer, FairSchedulerIsolatesTiersFromARogueTenant) {
  // Three cells of the misbehaving-tenant experiment. The rogue bronze
  // tenant floods 8x the aggregate rate; the gold tier's p99 must stay
  // within 1.2x of its rogue-free value under weighted-fair scheduling
  // with token buckets, while FIFO without buckets lets the flood wreck
  // it.
  auto gold_p99 = [](const ServeReport& r) {
    for (const obs::TenantTierStats& t : r.tenants.tiers) {
      if (t.tier == "gold") return t.latency.Quantile(0.99);
    }
    return -1.0;
  };
  auto run_cell = [&](TenantScheduler sched, bool buckets,
                      double rogue_extra) {
    ServeConfig sc = TenantServeConfig();
    // A deadline an order of magnitude over one batch's service time:
    // the protected tier's p99 is deadline-dominated in the rogue-free
    // run, so any queueing the flood leaks past the buckets shows up in
    // the ratio instead of hiding in service-time noise.
    sc.batch.deadline_seconds = 2e-3;
    sc.tenants.scheduler = sched;
    sc.tenants.rogue_extra = rogue_extra;
    sc.tenants.rogue_tenant = 1;  // a bronze tenant misbehaves
    if (buckets) {
      for (TenantTier& tier : sc.tenants.tiers) {
        // 2x each tenant's fair share of the offered tuples, with a
        // burst allowance of a few requests: organic clustering passes,
        // a sustained flood is pinned to the refill rate.
        tier.rate_tuples_per_sec =
            2.0 * sc.arrival.rate / 8 * sc.tuples_per_request;
        tier.burst_tuples = 8 * sc.tuples_per_request;
      }
    }
    // 2e6 tuples/s capacity: the base load is ~16% utilization and the
    // 8x rogue flood is ~1.4x capacity, so unmetered FIFO must melt.
    FakeBackend backend(1 << 20, 5e-7);
    RequestServer server(backend, sc);
    return server.Run().value();
  };

  const ServeReport isolated =
      run_cell(TenantScheduler::kDeficitWeightedFair, true, 0);
  const ServeReport fair =
      run_cell(TenantScheduler::kDeficitWeightedFair, true, 8);
  const ServeReport fifo = run_cell(TenantScheduler::kFifo, false, 8);

  const double p99_isolated = gold_p99(isolated);
  const double p99_fair = gold_p99(fair);
  const double p99_fifo = gold_p99(fifo);
  ASSERT_GT(p99_isolated, 0);
  ASSERT_GT(p99_fair, 0);
  ASSERT_GT(p99_fifo, 0);

  // The buckets shed the flood, so the protected tier barely notices...
  EXPECT_LE(p99_fair, 1.2 * p99_isolated);
  EXPECT_GT(fair.tenants.tiers[1].shed_rate_limit, 0u);
  // ...while unmetered FIFO queues everyone behind the rogue's backlog.
  EXPECT_GT(p99_fifo, 5 * p99_fair);
}

TEST(RequestServer, CachedMatchSetsAreIdenticalToUncached) {
  // Real windowed-INLJ backend: the cache must replay bit-identical
  // match sets, not approximations, and save simulated service time on
  // the Zipf-hot keys.
  core::ExperimentConfig ecfg;
  ecfg.r_tuples = uint64_t{1} << 20;
  ecfg.s_tuples = uint64_t{1} << 17;
  ecfg.s_sample = uint64_t{1} << 15;
  ecfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;

  ServeConfig sc;
  sc.arrival.model = ArrivalModel::kDeterministic;
  sc.arrival.rate = 20000;
  sc.requests = 400;
  sc.tuples_per_request = 512;
  sc.batch.batch_tuples = 4 * 512;
  sc.batch.min_batch_tuples = sc.batch.batch_tuples;
  sc.batch.adaptive = false;
  sc.max_backlog_tuples = 0;
  sc.collect_matches = true;
  sc.tenants = TwoTierConfig();
  sc.tenants.key_universe = 64;  // 64 * 512 = the whole probe sample
  sc.tenants.key_zipf = 1.75;

  auto run_cell = [&](uint64_t cache_bytes, obs::CacheStats* cache_stats) {
    auto exp = core::Experiment::Create(ecfg);
    EXPECT_TRUE(exp.ok());
    (*exp)->ResetForRun();
    RequestServer server((*exp)->gpu(), (*exp)->index(), (*exp)->s(),
                         ecfg.inlj, sc);
    std::unique_ptr<ResultCache> cache;
    if (cache_bytes > 0) {
      ResultCacheConfig cc;
      cc.reserved_bytes = cache_bytes;
      cache = ResultCache::Create(cc, (*exp)->gpu()).value();
      server.AttachCache(cache.get());
    }
    ServeReport r = server.Run().value();
    if (cache != nullptr) *cache_stats = cache->FinalStats();
    return r;
  };

  obs::CacheStats cache_stats;
  const ServeReport off = run_cell(0, nullptr);
  const ServeReport on = run_cell(4 << 20, &cache_stats);

  ASSERT_EQ(off.counters.requests_shed, 0u);
  ASSERT_EQ(on.counters.requests_shed, 0u);
  ASSERT_FALSE(off.matches.empty());

  // Same multiset of matches, whatever order the batches served them in.
  std::vector<core::JoinMatch> a = off.matches;
  std::vector<core::JoinMatch> b = on.matches;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);

  // The hot keys hit, and hits are cheaper than re-running the window.
  EXPECT_GT(cache_stats.hits, 0u);
  EXPECT_EQ(cache_stats.hits + cache_stats.misses, cache_stats.lookups);
  EXPECT_LT(on.service_seconds_total, off.service_seconds_total);
  EXPECT_LE(on.sim_seconds, off.sim_seconds);
}

TEST(ResultCache, LruEvictsTheColdestEntryDeterministically) {
  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  ResultCacheConfig cc;
  cc.reserved_bytes = 4 * 64;  // room for 4 overhead-only entries
  cc.entry_overhead_bytes = 64;
  auto cache = ResultCache::Create(cc, gpu).value();

  double charge = 0;
  for (uint64_t k = 0; k < 4; ++k) {
    cache->Insert(k, {}, &charge);
  }
  EXPECT_EQ(cache->entries(), 4u);
  EXPECT_EQ(cache->used_bytes(), cc.reserved_bytes);

  // Touch key 0: key 1 becomes the LRU victim of the next insert.
  EXPECT_TRUE(cache->Lookup(0, nullptr, &charge));
  cache->Insert(4, {}, &charge);
  EXPECT_EQ(cache->entries(), 4u);
  EXPECT_FALSE(cache->Lookup(1, nullptr, &charge));
  EXPECT_TRUE(cache->Lookup(0, nullptr, &charge));
  EXPECT_TRUE(cache->Lookup(4, nullptr, &charge));
  EXPECT_EQ(cache->stats().evictions, 1u);
  EXPECT_GT(charge, 0);

  // An entry larger than the whole reservation is skipped, not wedged.
  std::vector<core::JoinMatch> huge(64);
  cache->Insert(5, huge, &charge);
  EXPECT_FALSE(cache->Lookup(5, nullptr, &charge));
  EXPECT_EQ(cache->stats().skipped_too_large, 1u);
}

TEST(ResultCache, ClockGivesReferencedEntriesASecondChance) {
  mem::AddressSpace space;
  sim::Gpu gpu(&space, sim::V100NvLink2());
  ResultCacheConfig cc;
  cc.reserved_bytes = 3 * 64;
  cc.entry_overhead_bytes = 64;
  cc.eviction = ResultCacheConfig::Eviction::kClock;
  auto cache = ResultCache::Create(cc, gpu).value();

  double charge = 0;
  for (uint64_t k = 0; k < 3; ++k) cache->Insert(k, {}, &charge);
  // Reference key 0; the hand must pass it over and evict key 1.
  EXPECT_TRUE(cache->Lookup(0, nullptr, &charge));
  cache->Insert(3, {}, &charge);
  EXPECT_TRUE(cache->Lookup(0, nullptr, &charge));
  EXPECT_FALSE(cache->Lookup(1, nullptr, &charge));
  EXPECT_TRUE(cache->Lookup(2, nullptr, &charge));
  EXPECT_TRUE(cache->Lookup(3, nullptr, &charge));
  EXPECT_EQ(cache->stats().evictions, 1u);
}

TEST(RequestServer, TenantModeRejectsIncompatibleKnobs) {
  FakeBackend backend(1 << 20, 1e-7);

  {
    // Tenants compose with retries.
    ServeConfig sc = TenantServeConfig();
    sc.retry.retry_cap = 2;
    RequestServer server(backend, sc);
    EXPECT_TRUE(server.Run().ok());
  }
  {
    // Keyed requests must fit inside the probe sample.
    ServeConfig sc = TenantServeConfig();
    sc.tenants.key_universe = (1 << 20) / 64 + 1;
    RequestServer server(backend, sc);
    auto r = server.Run();
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("key_universe"),
              std::string::npos);
  }
  {
    // ...even when key_universe * tuples_per_request wraps around 2^64
    // (here to 4, which would pass a multiplied check).
    ServeConfig sc = TenantServeConfig();
    sc.tuples_per_request = 4;
    sc.tenants.key_universe = (uint64_t{1} << 62) + 1;
    RequestServer server(backend, sc);
    auto r = server.Run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().ToString().find("key_universe"),
              std::string::npos);
  }
  {
    // The cache needs keyed requests...
    mem::AddressSpace space;
    sim::Gpu gpu(&space, sim::V100NvLink2());
    ResultCacheConfig cc;
    cc.reserved_bytes = 1 << 16;
    auto cache = ResultCache::Create(cc, gpu).value();
    ServeConfig sc = TenantServeConfig();
    sc.tenants.key_universe = 0;
    RequestServer server(backend, sc);
    server.AttachCache(cache.get());
    auto r = server.Run();
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("key_universe"),
              std::string::npos);

    // ...and tenant mode at all.
    ServeConfig single = TenantServeConfig();
    single.tenants = TenantConfig{};  // untenanted
    RequestServer plain(backend, single);
    plain.AttachCache(cache.get());
    auto r2 = plain.Run();
    ASSERT_FALSE(r2.ok());
    EXPECT_NE(r2.status().ToString().find("tenant"), std::string::npos);
  }
  {
    // Untenanted serving collects matches too.
    ServeConfig sc = TenantServeConfig();
    sc.tenants = TenantConfig{};  // untenanted
    sc.collect_matches = true;
    RequestServer server(backend, sc);
    EXPECT_TRUE(server.Run().ok());
  }
  {
    // Memoized match sets would outlive an epoch swap, so the cache is
    // refused alongside an active ingest coordinator.
    mem::AddressSpace space;
    sim::Gpu gpu(&space, sim::V100NvLink2());
    ResultCacheConfig cc;
    cc.reserved_bytes = 1 << 16;
    auto cache = ResultCache::Create(cc, gpu).value();
    workload::MaterializedKeyColumn base(
        &space, workload::GenerateSortedUniqueKeys(1024, 3));
    const sim::CostModel cost(sim::V100NvLink2());
    IngestCoordinator::Config ic;
    ic.ops.rate = 1e5;
    auto coord = IngestCoordinator::Create(ic, &space, &base, &cost, 1,
                                           [](workload::Key) { return 0; })
                     .value();
    ServeConfig sc = TenantServeConfig();
    sc.tenants.key_universe = 64;
    RequestServer server(backend, sc);
    server.AttachCache(cache.get()).AttachIngest(coord.get());
    auto r = server.Run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().ToString().find("ingest"), std::string::npos);
  }
}

TEST(RequestServer, TenantMatchSetsSurviveRetries) {
  // Fail-then-succeed: the first request fails three times, appending a
  // stray partial match each time, and succeeds on its last retry. The
  // collected multiset must equal the fault-free run's, for cyclic
  // slicing and for keyed requests through the cache.
  for (const uint64_t key_universe : {uint64_t{0}, uint64_t{64}}) {
    ServeConfig sc = TenantServeConfig();
    sc.requests = 2000;
    sc.collect_matches = true;
    sc.tenants.key_universe = key_universe;
    sc.retry.retry_cap = 3;
    auto run_once = [&](int fail_to) {
      mem::AddressSpace space;
      sim::Gpu gpu(&space, sim::V100NvLink2());
      ResultCacheConfig cc;
      cc.reserved_bytes = 64 << 10;
      auto cache = ResultCache::Create(cc, gpu).value();
      FakeBackend backend(64 * 64, 1e-7, 0, fail_to);
      RequestServer server(backend, sc);
      if (key_universe > 0) server.AttachCache(cache.get());
      return server.Run().value();
    };
    const ServeReport clean = run_once(0);
    const ServeReport flaky = run_once(3);

    EXPECT_EQ(flaky.robustness.retries, 3u) << key_universe;
    EXPECT_EQ(flaky.robustness.shed_retry_exhausted, 0u) << key_universe;
    EXPECT_EQ(flaky.latency.count(), sc.requests) << key_universe;
    std::vector<core::JoinMatch> a = clean.matches;
    std::vector<core::JoinMatch> b = flaky.matches;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_FALSE(a.empty()) << key_universe;
    EXPECT_EQ(a, b) << key_universe;
  }
}

TEST(RequestServer, UntenantedCollectsEveryWindowsMatches) {
  // A sample of 100 requests: batches of 16 straddle the wrap, so the
  // cursor splits windows there.
  ServeConfig sc = TenantServeConfig();
  sc.tenants = TenantConfig{};  // untenanted
  sc.requests = 2000;
  sc.collect_matches = true;
  const uint64_t sample = 100 * sc.tuples_per_request;
  FakeBackend backend(sample, 1e-7);
  ServeReport r = RequestServer(backend, sc).Run().value();
  ASSERT_EQ(r.latency.count(), sc.requests);
  EXPECT_FALSE(r.tenants.any());

  // The windows tile the cyclic cursor from row 0, so the matches are
  // FakeBackend's (every 8th row) over [0, requests * tpr) mod sample.
  std::vector<core::JoinMatch> expected;
  for (uint64_t p = 0; p < sc.requests * sc.tuples_per_request; p += 8) {
    const uint64_t row = p % sample;
    expected.push_back(core::JoinMatch{row, 2 * row + 1});
  }
  EXPECT_EQ(r.matches, expected);
}

TEST(RequestServer, ShedUntenantedBatchLeavesNoMatches) {
  // Batches of 16 requests (1024 rows) over a 2560-row sample: batch 3
  // covers [2048, 2560) and wraps to [0, 512). Its wrapped half fails
  // both attempts (calls 3 and 4), so the whole batch is shed, and the
  // matches its first half collected must go with it.
  ServeConfig sc = TenantServeConfig();
  sc.tenants = TenantConfig{};  // untenanted
  sc.requests = 5 * 16;
  sc.batch.deadline_seconds = 1.0;
  sc.collect_matches = true;
  sc.retry.retry_cap = 1;
  FakeBackend backend(2560, 1e-7, /*fail_from=*/3, /*fail_to=*/5);
  ServeReport r = RequestServer(backend, sc).Run().value();

  EXPECT_EQ(r.robustness.shed_retry_exhausted, 16u);
  EXPECT_EQ(r.latency.count(), 4u * 16);
  // The cursor stays at the failed slice, so batches 4 and 5 cover
  // [0, 2048) again.
  std::vector<core::JoinMatch> expected;
  for (int lap = 0; lap < 2; ++lap) {
    for (uint64_t row = 0; row < 2048; row += 8) {
      expected.push_back(core::JoinMatch{row, 2 * row + 1});
    }
  }
  EXPECT_EQ(r.matches, expected);
}

TEST(RequestServer, UntenantedCollectMatchesOneWholeSampleWindow) {
  // Real windowed INLJ: serving exactly one pass over the probe sample
  // collects the same match multiset as one window over all of it.
  core::ExperimentConfig ecfg;
  ecfg.r_tuples = uint64_t{1} << 20;
  ecfg.s_tuples = uint64_t{1} << 17;
  ecfg.s_sample = uint64_t{1} << 15;
  ecfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;

  ServeConfig sc;
  sc.arrival.model = ArrivalModel::kDeterministic;
  sc.arrival.rate = 20000;
  sc.tuples_per_request = 512;
  sc.requests = ecfg.s_sample / sc.tuples_per_request;
  sc.batch.batch_tuples = 4 * 512;
  sc.batch.min_batch_tuples = sc.batch.batch_tuples;
  sc.batch.adaptive = false;
  sc.max_backlog_tuples = 0;
  sc.collect_matches = true;

  auto exp = core::Experiment::Create(ecfg);
  ASSERT_TRUE(exp.ok());
  (*exp)->ResetForRun();
  RequestServer server((*exp)->gpu(), (*exp)->index(), (*exp)->s(),
                       ecfg.inlj, sc);
  ServeReport r = server.Run().value();
  ASSERT_EQ(r.counters.tuples_served, ecfg.s_sample);

  auto ref_exp = core::Experiment::Create(ecfg);
  ASSERT_TRUE(ref_exp.ok());
  (*ref_exp)->ResetForRun();
  auto joiner = core::WindowJoiner::Create(
                    (*ref_exp)->gpu(), (*ref_exp)->index(), (*ref_exp)->s(),
                    ecfg.inlj, ecfg.s_sample)
                    .value();
  std::vector<core::JoinMatch> expected;
  ASSERT_TRUE(joiner.RunWindow(0, ecfg.s_sample, 0, &expected).ok());

  std::vector<core::JoinMatch> got = r.matches;
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(got, expected);
}

TEST(RequestServer, TenantsComposeWithLiveIngest) {
  // Keyed tenants serving under a live write stream (the setup of
  // htap_test's serving cells): no admitted request is lost across the
  // epoch swaps, and reads equal a replay of the applied-op log.
  core::ExperimentConfig ecfg;
  ecfg.r_tuples = uint64_t{1} << 20;
  ecfg.s_tuples = uint64_t{1} << 17;
  ecfg.s_sample = uint64_t{1} << 15;
  ecfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  auto exp = core::Experiment::Create(ecfg);
  ASSERT_TRUE(exp.ok());
  (*exp)->ResetForRun();

  mem::AddressSpace ingest_space;
  const sim::CostModel cost(sim::V100NvLink2());
  IngestCoordinator::Config ic;
  ic.ops.model = ArrivalModel::kPoisson;
  ic.ops.rate = 5e5;
  ic.ops.seed = 17;
  ic.seed = 23;
  ic.merge_threshold = 256;
  ic.hybrid.delta.tree.node_bytes = 256;
  ic.record_log = true;
  auto coord = IngestCoordinator::Create(ic, &ingest_space, &(*exp)->r(),
                                         &cost, 1,
                                         [](workload::Key) { return 0; })
                   .value();

  ServeConfig sc;
  sc.arrival.model = ArrivalModel::kDeterministic;
  sc.arrival.rate = 1e5;
  sc.requests = 500;
  sc.tuples_per_request = 512;
  sc.batch.batch_tuples = 4 * 512;
  sc.batch.min_batch_tuples = sc.batch.batch_tuples;
  sc.batch.adaptive = false;
  sc.max_backlog_tuples = 0;
  sc.tenants = TwoTierConfig();
  sc.tenants.key_universe = 64;  // 64 * 512 = the whole probe sample
  RequestServer server((*exp)->gpu(), (*exp)->index(), (*exp)->s(),
                       ecfg.inlj, sc);
  server.AttachIngest(coord.get());
  ServeReport r = server.Run().value();

  EXPECT_EQ(r.counters.requests_shed, 0u);
  EXPECT_EQ(r.latency.count(), r.counters.requests_admitted);
  uint64_t tier_served = 0;
  for (const obs::TenantTierStats& t : r.tenants.tiers) {
    tier_served += t.served;
  }
  EXPECT_EQ(tier_served, r.latency.count());
  EXPECT_GT(coord->stats().merges, 0u);
  EXPECT_GT(coord->stats().staleness.count(), 0u);

  // Replay the log in application order over the base (a base key's
  // value is its position).
  const workload::KeyColumn& base = (*exp)->r();
  std::map<workload::Key, uint64_t> oracle;
  std::set<workload::Key> op_keys;
  for (const IngestCoordinator::Op& op : coord->log()) {
    if (op_keys.insert(op.key).second) {
      const uint64_t p = base.LowerBound(op.key);
      if (p < base.size() && base.key_at(p) == op.key) oracle[op.key] = p;
    }
    if (op.kind == IngestCoordinator::Op::Kind::kDelete) {
      oracle.erase(op.key);
    } else {
      oracle[op.key] = op.value;
    }
  }
  ASSERT_FALSE(op_keys.empty());
  for (workload::Key k : op_keys) {
    const auto got = coord->Find(k);
    const auto it = oracle.find(k);
    ASSERT_EQ(got.has_value(), it != oracle.end()) << k;
    if (got.has_value()) { ASSERT_EQ(*got, it->second) << k; }
  }
}

}  // namespace
}  // namespace gpujoin::serve
