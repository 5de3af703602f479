// Unit tests of the benchmark's own tracing pieces: span self-time
// arithmetic, and the timing decorator's transparency to the server.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/experiment.h"
#include "serve/cache.h"
#include "serve/server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Kind = HostTracer::Kind;
namespace core = gpujoin::core;
namespace serve = gpujoin::serve;

const Span* FindSpan(const HostTracer& t, const std::string& name) {
  for (const Span& s : t.spans()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// A synthetic clock the test sets by hand. Every Begin and End reads it
// twice, at the mark and after the tracer's bookkeeping; the second read
// advances it by `bookkeeping`.
struct ManualClock {
  int64_t now = 0;
  int64_t bookkeeping = 0;
  int reads = 0;
  int64_t Read() {
    if (reads++ % 2 == 1) now += bookkeeping;
    return now;
  }
};

// A tracer on `clock`; At(ns) sets the clock and returns the tracer.
class ClockedTracer {
 public:
  explicit ClockedTracer(int64_t bookkeeping)
      : tracer_([this] { return clock_.Read(); }) {
    clock_.bookkeeping = bookkeeping;
  }
  HostTracer& At(int64_t ns) {
    clock_.now = ns;
    return tracer_;
  }
  HostTracer& tracer() { return tracer_; }

 private:
  ManualClock clock_;
  HostTracer tracer_;
};

TEST(HostTracerTest, SelfTimeSubtractsDirectChildren) {
  ClockedTracer c(0);
  c.At(0).Begin("outer", Kind::kStored, "calls");
  c.At(10).Begin("inner", Kind::kStored, "calls");
  c.At(20).Begin("leaf", Kind::kAggregated, "phases");
  EXPECT_EQ(c.At(35).End(), 15);   // leaf
  EXPECT_EQ(c.At(50).End(), 40);   // inner: self 25
  EXPECT_EQ(c.At(100).End(), 100);  // outer: self 60
  const HostTracer& t = c.tracer();
  EXPECT_EQ(t.depth(), 0);
  EXPECT_EQ(t.bookkeeping_ns(), 0);
  EXPECT_EQ(t.TotalsOf("outer").total_ns, 100);
  EXPECT_EQ(t.TotalsOf("outer").self_ns, 60);
  EXPECT_EQ(t.TotalsOf("inner").total_ns, 40);
  EXPECT_EQ(t.TotalsOf("inner").self_ns, 25);
  EXPECT_EQ(t.TotalsOf("leaf").self_ns, 15);
  EXPECT_EQ(t.TotalsOf("missing").count, 0u);

  // Aggregated spans are not stored; stored spans point at their parent
  // and carry their aggregated children's self time by name.
  ASSERT_EQ(t.spans().size(), 2u);
  const Span* outer = FindSpan(t, "outer");
  const Span* inner = FindSpan(t, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  ASSERT_EQ(inner->children_self_ns.size(), 1u);
  EXPECT_EQ(inner->children_self_ns[0].first, "leaf");
  EXPECT_EQ(inner->children_self_ns[0].second, 15);
  EXPECT_TRUE(outer->children_self_ns.empty());
}

TEST(HostTracerTest, WindowsAbsorbTheGlueBeforeThem) {
  ClockedTracer c(0);
  c.At(0).Begin("call", Kind::kStored, "calls");
  // The first window starts where its parent began.
  c.At(5).Begin("window", Kind::kStoredFromPreviousSibling, "windows");
  c.At(6).Begin("probe", Kind::kAggregated, "phases");
  c.At(16).End();  // probe: 10
  c.At(20).End();  // window 1: [0, 20), self 10
  // The flush between windows (20..30) is charged to the next window.
  c.At(30).Begin("window", Kind::kStoredFromPreviousSibling, "windows");
  c.At(32).Begin("probe", Kind::kAggregated, "phases");
  c.At(42).End();  // probe: 10
  c.At(50).End();  // window 2: [20, 50), self 20
  c.At(55).End();  // call: 55, children 50, self 5

  const HostTracer& t = c.tracer();
  const SpanTotals& w = t.TotalsOf("window");
  EXPECT_EQ(w.count, 2u);
  EXPECT_EQ(w.total_ns, 50);
  EXPECT_EQ(w.self_ns, 30);
  EXPECT_EQ(t.TotalsOf("probe").self_ns, 20);
  EXPECT_EQ(t.TotalsOf("call").self_ns, 5);
  // Self times partition the root span exactly.
  EXPECT_EQ(w.self_ns + t.TotalsOf("probe").self_ns +
                t.TotalsOf("call").self_ns,
            t.TotalsOf("call").total_ns);
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[0].start_ns, 0);
  EXPECT_EQ(t.spans()[1].start_ns, 20);
  EXPECT_EQ(t.spans()[1].end_ns, 50);
}

// Every mark costs 2 ns of bookkeeping. Only program time between the
// marks may reach a span's self time; the 2 ns of each mark go to
// bookkeeping_ns() and to the tracer_ns of the span they fall in.
TEST(HostTracerTest, BookkeepingIsKeptOutOfEverySpan) {
  ClockedTracer c(2);
  c.At(0).Begin("call", Kind::kStored, "calls");  // starts at 2
  // Window 1 reaches back to 2, so its own Begin's bookkeeping (5..7)
  // falls inside it.
  c.At(5).Begin("window", Kind::kStoredFromPreviousSibling, "windows");
  c.At(10).Begin("probe", Kind::kAggregated, "phases");  // starts at 12
  EXPECT_EQ(c.At(20).End(), 8);   // probe: 12..20
  EXPECT_EQ(c.At(30).End(), 22);  // window 1: 2..5, 7..10, 22..30
  // Window 2 starts where window 1's End finished its bookkeeping (32).
  c.At(40).Begin("window", Kind::kStoredFromPreviousSibling, "windows");
  EXPECT_EQ(c.At(50).End(), 16);  // window 2: 32..40, 42..50
  EXPECT_EQ(c.At(60).End(), 46);  // call: 46 with self 52..60

  const HostTracer& t = c.tracer();
  EXPECT_EQ(t.bookkeeping_ns(), 8 * 2);
  EXPECT_EQ(t.TotalsOf("probe").self_ns, 8);
  EXPECT_EQ(t.TotalsOf("window").total_ns, 38);
  EXPECT_EQ(t.TotalsOf("window").self_ns, 30);
  EXPECT_EQ(t.TotalsOf("call").total_ns, 46);
  EXPECT_EQ(t.TotalsOf("call").self_ns, 8);
  // Self times plus bookkeeping cover the clock from the first mark to
  // the last.
  EXPECT_EQ(t.TotalsOf("probe").self_ns + t.TotalsOf("window").self_ns +
                t.TotalsOf("call").self_ns + t.bookkeeping_ns(),
            62);

  ASSERT_EQ(t.spans().size(), 3u);
  const Span& w1 = t.spans()[0];
  const Span& w2 = t.spans()[1];
  const Span& call = t.spans()[2];
  EXPECT_EQ(w1.start_ns, 2);
  EXPECT_EQ(w1.end_ns, 30);
  EXPECT_EQ(w1.tracer_ns, 6);  // its Begin, and the probe's Begin and End
  EXPECT_EQ(w1.children_self_ns[0].second, 8);
  EXPECT_EQ(w2.start_ns, 32);
  EXPECT_EQ(w2.tracer_ns, 2);
  EXPECT_EQ(call.start_ns, 2);
  EXPECT_EQ(call.end_ns, 60);
  EXPECT_EQ(call.tracer_ns, 12);  // every mark between its own two
}

TEST(HostTracerTest, PhaseSinkRecordsCounterDeltas) {
  core::ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 22;
  cfg.s_sample = uint64_t{1} << 12;
  auto exp = core::Experiment::Create(cfg);
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  auto untraced = (*exp)->RunInlj();
  ASSERT_TRUE(untraced.ok());

  HostTracer t;
  gpujoin::sim::MemoryModel& memory = (*exp)->gpu().memory();
  gpujoin::Result<gpujoin::sim::RunResult> traced = gpujoin::Status();
  {
    ScopedPhaseSink sink(&t, &memory);
    ScopedSpan call(&t, "core.run_inlj", "calls", &memory);
    traced = (*exp)->RunInlj();
  }
  EXPECT_EQ(memory.phase_sink(), nullptr);
  ASSERT_TRUE(traced.ok());
  // Tracing never changes a simulated number.
  EXPECT_TRUE(traced->counters == untraced->counters);
  EXPECT_EQ(traced->seconds, untraced->seconds);

  const SpanTotals& lookup = t.TotalsOf("probe.lookup");
  const SpanTotals& window = t.TotalsOf("window");
  EXPECT_GT(lookup.count, 0u);
  EXPECT_GT(window.count, 0u);
  EXPECT_GT(lookup.delta.memory_transactions, 0u);
  // Phases nest inside windows, windows inside the call.
  EXPECT_LE(window.delta.memory_transactions,
            t.TotalsOf("core.run_inlj").delta.memory_transactions);
  EXPECT_LE(lookup.delta.memory_transactions,
            window.delta.memory_transactions);
  // With a real clock too, the self times partition the call.
  int64_t self_sum = 0;
  for (const auto& [name, totals] : t.totals()) self_sum += totals.self_ns;
  EXPECT_EQ(self_sum, t.TotalsOf("core.run_inlj").total_ns);
  EXPECT_GT(t.bookkeeping_ns(), 0);
}

// --- TimedBackend transparency ---------------------------------------

core::ExperimentConfig ServeTestConfig() {
  core::ExperimentConfig cfg;
  cfg.r_tuples = uint64_t{1} << 24;
  cfg.s_sample = uint64_t{1} << 14;
  cfg.seed = 7;
  cfg.index_type = gpujoin::index::IndexType::kRadixSpline;
  cfg.inlj.mode = core::InljConfig::PartitionMode::kWindowed;
  return cfg;
}

serve::ServeConfig BaseServe() {
  serve::ServeConfig sc;
  sc.arrival.rate = 50000;
  sc.requests = 600;
  sc.tuples_per_request = 64;
  sc.batch.batch_tuples = 1024;
  sc.batch.min_batch_tuples = 1024;
  sc.batch.max_batch_tuples = 4096;
  sc.batch.deadline_seconds = 1e-4;
  return sc;
}

serve::ServeConfig TenantServe() {
  serve::ServeConfig sc = BaseServe();
  sc.tenants.num_tenants = 50;
  sc.tenants.tiers = {serve::TenantTier{"gold", 4.0, 0, 0},
                      serve::TenantTier{"bronze", 1.0, 0, 0}};
  sc.tenants.key_universe = 64;
  sc.collect_matches = true;
  return sc;
}

// Serves `sc` on a fresh experiment, undecorated (RequestServer's own
// joiner) or through JoinerBackend + TimedBackend, with an optional
// hot-key cache; returns the report's canonical text.
std::string ServeFingerprint(const serve::ServeConfig& sc, bool decorated,
                             bool cached, HostTracer* tracer,
                             uint64_t* decorator_calls) {
  auto exp = core::Experiment::Create(ServeTestConfig());
  EXPECT_TRUE(exp.ok()) << exp.status().ToString();
  (*exp)->ResetForRun();
  std::unique_ptr<serve::ResultCache> cache;
  if (cached) {
    serve::ResultCacheConfig cc;
    cc.reserved_bytes = uint64_t{1} << 20;
    auto built = serve::ResultCache::Create(cc, (*exp)->gpu());
    EXPECT_TRUE(built.ok());
    cache = std::move(*built);
  }
  gpujoin::Result<serve::ServeReport> report = gpujoin::Status();
  if (!decorated) {
    serve::RequestServer server((*exp)->gpu(), (*exp)->index(), (*exp)->s(),
                                ServeTestConfig().inlj, sc);
    server.AttachCache(cache.get());
    report = server.Run();
  } else {
    auto joiner = core::WindowJoiner::Create(
        (*exp)->gpu(), (*exp)->index(), (*exp)->s(), ServeTestConfig().inlj,
        (*exp)->s().sample_size());
    EXPECT_TRUE(joiner.ok());
    JoinerBackend local(*std::move(joiner), (*exp)->s().sample_size());
    TimedBackend timed(local, tracer, &(*exp)->gpu().memory());
    ScopedPhaseSink sink(tracer, &(*exp)->gpu().memory());
    serve::RequestServer server(timed, sc);
    server.AttachCache(cache.get());
    report = server.Run();
    *decorator_calls = timed.calls();
  }
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? ServeReportFingerprint(*report) : "";
}

void ExpectTransparent(const serve::ServeConfig& sc, bool cached) {
  uint64_t calls = 0;
  const std::string plain = ServeFingerprint(sc, false, cached, nullptr, &calls);
  HostTracer tracer;
  const std::string traced = ServeFingerprint(sc, true, cached, &tracer, &calls);
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(plain, traced);
  EXPECT_GT(calls, 0u);
  EXPECT_GT(tracer.TotalsOf("window").count, 0u);
  uint64_t untraced_calls = 0;
  EXPECT_EQ(plain,
            ServeFingerprint(sc, true, cached, nullptr, &untraced_calls));
  EXPECT_EQ(calls, untraced_calls);
}

TEST(TimedBackendTest, SingleTenantReportIsByteIdentical) {
  ExpectTransparent(BaseServe(), /*cached=*/false);
}

TEST(TimedBackendTest, HedgedReportIsByteIdentical) {
  serve::ServeConfig sc = BaseServe();
  sc.retry.hedge_after = 1e-9;  // every slice is hedged
  ExpectTransparent(sc, /*cached=*/false);
}

TEST(TimedBackendTest, TenantCacheReportIsByteIdentical) {
  ExpectTransparent(TenantServe(), /*cached=*/true);
  ExpectTransparent(TenantServe(), /*cached=*/false);
}

}  // namespace
}  // namespace perfbench
