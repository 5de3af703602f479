#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/address_space.h"
#include "sim/cache.h"
#include "sim/cost_model.h"
#include "sim/counters.h"
#include "sim/gpu.h"
#include "sim/memory_model.h"
#include "sim/specs.h"
#include "sim/tlb.h"
#include "sim/trace.h"
#include "util/rng.h"
#include "util/units.h"

namespace gpujoin::sim {
namespace {

// --- Cache ------------------------------------------------------------

TEST(Cache, MissThenHit) {
  Cache cache(1024, 64, 4);
  EXPECT_FALSE(cache.Access(1));
  EXPECT_TRUE(cache.Access(1));
}

TEST(Cache, LruEviction) {
  // 4 lines, 4-way => one set: fully associative with 4 entries.
  Cache cache(256, 64, 4);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_FALSE(cache.Access(i));
  for (uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(cache.Access(i));
  EXPECT_FALSE(cache.Access(100));  // evicts LRU line 0
  EXPECT_FALSE(cache.Access(0));
  EXPECT_TRUE(cache.Access(100));
}

TEST(Cache, SetsIsolateConflicts) {
  // 8 lines, 1-way => 8 direct-mapped sets.
  Cache cache(512, 64, 1);
  EXPECT_FALSE(cache.Access(0));
  EXPECT_FALSE(cache.Access(1));
  EXPECT_TRUE(cache.Access(0));  // different set than 1
  EXPECT_FALSE(cache.Access(8));  // same set as 0 -> conflict
  EXPECT_FALSE(cache.Access(0));
}

TEST(Cache, ContainsDoesNotTouch) {
  Cache cache(256, 64, 4);
  cache.Access(5);
  EXPECT_TRUE(cache.Contains(5));
  EXPECT_FALSE(cache.Contains(6));
}

TEST(Cache, ClearEvictsAll) {
  Cache cache(256, 64, 4);
  cache.Access(1);
  cache.Clear();
  EXPECT_FALSE(cache.Contains(1));
}

TEST(Cache, ClampsAssociativity) {
  Cache cache(128, 64, 16);  // only 2 lines available
  EXPECT_EQ(cache.ways(), 2);
  EXPECT_EQ(cache.num_sets(), 1u);
}

// --- TLB --------------------------------------------------------------

TEST(Tlb, CoverageDerivesEntries) {
  Tlb tlb(32 * kGiB, kGiB, 8);
  EXPECT_EQ(tlb.entries(), 32u);
  EXPECT_EQ(tlb.coverage_bytes(), 32 * kGiB);
}

TEST(Tlb, SmallerPagesMoreEntries) {
  Tlb tlb(32 * kGiB, 2 * kMiB, 8);
  EXPECT_EQ(tlb.entries(), 16384u);
}

TEST(Tlb, HitWithinCoverage) {
  Tlb tlb(4 * kGiB, kGiB, 4);  // 4 entries, fully associative
  for (uint64_t vpn = 0; vpn < 4; ++vpn) EXPECT_FALSE(tlb.Access(vpn));
  for (uint64_t vpn = 0; vpn < 4; ++vpn) EXPECT_TRUE(tlb.Access(vpn));
}

TEST(Tlb, ThrashesBeyondCoverage) {
  Tlb tlb(4 * kGiB, kGiB, 4);
  // Working set of 8 pages in a 4-entry TLB: round robin never hits.
  int hits = 0;
  for (int round = 0; round < 10; ++round) {
    for (uint64_t vpn = 0; vpn < 8; ++vpn) {
      if (tlb.Access(vpn)) ++hits;
    }
  }
  EXPECT_EQ(hits, 0);
}

// --- Counters ---------------------------------------------------------

TEST(Counters, Arithmetic) {
  CounterSet a;
  a.host_random_read_bytes = 100;
  a.translation_requests = 5;
  CounterSet b;
  b.host_random_read_bytes = 50;
  b.warp_steps = 7;
  a += b;
  EXPECT_EQ(a.host_random_read_bytes, 150u);
  EXPECT_EQ(a.warp_steps, 7u);
  CounterSet d = a - b;
  EXPECT_EQ(d.host_random_read_bytes, 100u);
  EXPECT_EQ(d.translation_requests, 5u);
}

TEST(Counters, ScaledKeepsLaunches) {
  CounterSet c;
  c.hbm_read_bytes = 10;
  c.kernel_launches = 3;
  CounterSet s = c.Scaled(4.0);
  EXPECT_EQ(s.hbm_read_bytes, 40u);
  EXPECT_EQ(s.kernel_launches, 3u);
}

// --- MemoryModel ------------------------------------------------------

class MemoryModelTest : public ::testing::Test {
 protected:
  MemoryModelTest()
      : host_(space_.Reserve(uint64_t{64} * kGiB, mem::MemKind::kHost, "h")),
        device_(
            space_.Reserve(uint64_t{8} * kGiB, mem::MemKind::kDevice, "d")),
        model_(&space_, TeslaV100()) {}

  mem::AddressSpace space_;
  mem::Region host_;
  mem::Region device_;
  MemoryModel model_;
};

TEST_F(MemoryModelTest, HostMissMovesOneLine) {
  model_.Access(host_.base, 8, AccessType::kRead);
  EXPECT_EQ(model_.counters().host_random_read_bytes, 128u);
  EXPECT_EQ(model_.counters().l2_misses, 1u);
  EXPECT_EQ(model_.counters().translation_requests, 1u);
}

TEST_F(MemoryModelTest, RepeatAccessHitsCache) {
  model_.Access(host_.base, 8, AccessType::kRead);
  model_.Access(host_.base + 8, 8, AccessType::kRead);  // same line
  EXPECT_EQ(model_.counters().host_random_read_bytes, 128u);
  EXPECT_EQ(model_.counters().l1_hits, 1u);
}

TEST_F(MemoryModelTest, GatherCoalescesLanes) {
  // 32 lanes in the same two lines -> 2 transactions.
  mem::VirtAddr addrs[32];
  for (int lane = 0; lane < 32; ++lane) addrs[lane] = host_.base + lane * 8;
  model_.Gather(addrs, ~0u, 8, AccessType::kRead);
  EXPECT_EQ(model_.counters().memory_transactions, 2u);
  EXPECT_EQ(model_.counters().host_random_read_bytes, 256u);
  EXPECT_EQ(model_.counters().warp_steps, 1u);
}

TEST_F(MemoryModelTest, GatherDivergentLanesTouchManyLines) {
  mem::VirtAddr addrs[32];
  for (int lane = 0; lane < 32; ++lane) {
    addrs[lane] = host_.base + static_cast<uint64_t>(lane) * kMiB;
  }
  model_.Gather(addrs, ~0u, 8, AccessType::kRead);
  EXPECT_EQ(model_.counters().memory_transactions, 32u);
}

TEST_F(MemoryModelTest, LaneAccessCanStraddleLines) {
  mem::VirtAddr addr = host_.base + 120;  // 8 bytes reach into next line
  model_.Gather(&addr, 1u, 16, AccessType::kRead);
  EXPECT_EQ(model_.counters().memory_transactions, 2u);
}

TEST_F(MemoryModelTest, LaneBytesMustFitOneLine) {
  mem::VirtAddr addr = host_.base + 256;
  EXPECT_DEATH(model_.Gather(&addr, 1u, 0, AccessType::kRead),
               "lane access of 0 bytes");
  EXPECT_DEATH(model_.Gather(&addr, 1u, 129, AccessType::kRead),
               "lane access of 129 bytes");
  EXPECT_DEATH(model_.Access(addr, 0, AccessType::kRead),
               "lane access of 0 bytes");
  EXPECT_DEATH(model_.Access(addr, 129, AccessType::kRead),
               "lane access of 129 bytes");
  // A full line is fine and straddles at most once.
  model_.Gather(&addr, 1u, 128, AccessType::kRead);
  model_.Access(addr + 64, 128, AccessType::kRead);
  EXPECT_EQ(model_.counters().memory_transactions, 3u);
}

// Records the line address of every transaction, in order.
class TransactionLog : public AccessObserver {
 public:
  void OnTransaction(mem::VirtAddr addr, ServiceLevel, bool) override {
    addrs.push_back(addr);
  }
  void OnStream(mem::VirtAddr, uint64_t, bool) override {}
  std::vector<mem::VirtAddr> addrs;
};

// Gather must touch exactly the distinct lines of its active lanes, once
// each and in ascending order, whatever the lane order: random masks,
// lanes that straddle lines, duplicate lines, and 1 to 64 distinct lines.
TEST_F(MemoryModelTest, GatherTouchesDistinctLinesInAscendingOrder) {
  TransactionLog log;
  model_.AddObserver(&log);
  Xoshiro256 rng(42);
  std::vector<size_t> distinct_seen(2 * MemoryModel::kWarpWidth + 1, 0);
  for (int iter = 0; iter < 20000; ++iter) {
    SCOPED_TRACE(testing::Message() << "iteration " << iter);
    uint32_t mask = static_cast<uint32_t>(rng.Next());
    if (rng.NextBounded(4) == 0) mask = ~0u;
    if (mask == 0) mask = 1;
    // Every eighth draw has every lane straddle two lines.
    const bool straddle = rng.NextBounded(8) == 0;
    const uint32_t bytes =
        straddle ? 128 : 1 + static_cast<uint32_t>(rng.NextBounded(128));
    // Span sizes from one line (all duplicates) to far apart lines.
    static constexpr uint64_t kSpans[] = {128, 512, 4096, 16384, kMiB};
    const uint64_t span = kSpans[rng.NextBounded(5)];
    const mem::VirtAddr base = host_.base + rng.NextBounded(kGiB);
    const bool ascending = rng.NextBounded(4) == 0;
    mem::VirtAddr addrs[32];
    for (int lane = 0; lane < 32; ++lane) {
      addrs[lane] = ascending ? base + lane * (span / 32)
                              : base + rng.NextBounded(span);
      if (straddle) addrs[lane] = addrs[lane] / 128 * 128 + 64;
    }
    std::vector<uint64_t> want;
    for (int lane = 0; lane < 32; ++lane) {
      if (!(mask & (1u << lane))) continue;
      want.push_back(addrs[lane] / 128);
      want.push_back((addrs[lane] + bytes - 1) / 128);
    }
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    ++distinct_seen[want.size()];

    log.addrs.clear();
    model_.Gather(addrs, mask, bytes, AccessType::kRead);
    ASSERT_EQ(log.addrs.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(log.addrs[i], want[i] * 128) << i;
    }
  }
  model_.RemoveObserver(&log);
  // The draws fill every sorting-network size (8, 16, 32, 64 slots),
  // including a full 64-line network.
  for (size_t n : {1, 8, 9, 16, 17, 32, 33, 64}) {
    EXPECT_GT(distinct_seen[n], 0u) << n;
  }
}

TEST_F(MemoryModelTest, DeviceAccessDoesNotTouchInterconnect) {
  model_.Access(device_.base, 8, AccessType::kRead);
  EXPECT_EQ(model_.counters().host_read_bytes(), 0u);
  EXPECT_EQ(model_.counters().hbm_read_bytes, 128u);
  EXPECT_EQ(model_.counters().translation_requests, 0u);
}

TEST_F(MemoryModelTest, StreamChargesSequentialBytes) {
  model_.Stream(host_.base, kMiB, AccessType::kRead);
  EXPECT_EQ(model_.counters().host_seq_read_bytes, kMiB);
  // One page touched -> one translation.
  EXPECT_EQ(model_.counters().translation_requests, 1u);
}

TEST_F(MemoryModelTest, StreamWriteToDevice) {
  model_.Stream(device_.base, 4096, AccessType::kWrite);
  EXPECT_EQ(model_.counters().hbm_write_bytes, 4096u);
}

TEST_F(MemoryModelTest, TlbThrashOnWideRandomAccess) {
  // Touch one line in each of 60 distinct 1 GiB pages, twice. The V100
  // TLB covers 32 GiB (32 pages): round-robin over 60 pages never hits.
  for (int round = 0; round < 2; ++round) {
    for (uint64_t p = 0; p < 60; ++p) {
      model_.Access(host_.base + p * kGiB + round * 256, 8,
                    AccessType::kRead);
    }
  }
  EXPECT_EQ(model_.counters().translation_requests, 120u);
}

TEST_F(MemoryModelTest, TlbHitsWithinCoverage) {
  for (int round = 0; round < 4; ++round) {
    for (uint64_t p = 0; p < 16; ++p) {
      model_.Access(host_.base + p * kGiB + round * 256, 8,
                    AccessType::kRead);
    }
  }
  // Only the 16 first-touch misses.
  EXPECT_EQ(model_.counters().translation_requests, 16u);
}

TEST_F(MemoryModelTest, SerialChainCharges) {
  model_.SerialChain(device_.base, 10, AccessType::kRead);
  EXPECT_EQ(model_.counters().serial_dependent_loads, 10u);
  EXPECT_EQ(model_.counters().hbm_read_bytes, 10 * 128u);
}

TEST_F(MemoryModelTest, ClearHardwareStateKeepsCounters) {
  model_.Access(host_.base, 8, AccessType::kRead);
  const CounterSet before = model_.counters();
  model_.ClearHardwareState();
  EXPECT_EQ(model_.counters().host_random_read_bytes,
            before.host_random_read_bytes);
  // After clearing, the same access misses again.
  model_.Access(host_.base, 8, AccessType::kRead);
  EXPECT_EQ(model_.counters().l2_misses, 2u);
}

// --- CostModel --------------------------------------------------------

TEST(CostModel, TransferBound) {
  CostModel cm(V100NvLink2());
  CounterSet c;
  c.host_seq_read_bytes = static_cast<uint64_t>(63e9);  // 1 s at seq rate
  TimeBreakdown b = cm.Breakdown(c);
  EXPECT_NEAR(b.transfer, 1.0, 1e-6);
  EXPECT_NEAR(b.total(), 1.0, 1e-6);
}

TEST(CostModel, TranslationBound) {
  CostModel cm(V100NvLink2());
  CounterSet c;
  const InterconnectSpec ic = NvLink2();
  c.translation_requests = static_cast<uint64_t>(ic.translation_throughput());
  TimeBreakdown b = cm.Breakdown(c);
  EXPECT_NEAR(b.translation, 1.0, 1e-6);
}

TEST(CostModel, MaxOfResourcesPlusLaunch) {
  CostModel cm(V100NvLink2());
  CounterSet c;
  c.host_seq_read_bytes = static_cast<uint64_t>(63e9);   // 1 s
  c.hbm_read_bytes = static_cast<uint64_t>(450e9);       // 0.5 s
  c.kernel_launches = 2;
  const double launch = 2 * TeslaV100().kernel_launch_overhead;
  EXPECT_NEAR(cm.Seconds(c), 1.0 + launch, 1e-6);
}

TEST(Specs, Table1Bandwidths) {
  // Table 1 of the paper.
  EXPECT_DOUBLE_EQ(PciE4().peak_bandwidth, 32e9);
  EXPECT_DOUBLE_EQ(PciE5().peak_bandwidth, 64e9);
  EXPECT_DOUBLE_EQ(InfinityFabric3().peak_bandwidth, 72e9);
  EXPECT_DOUBLE_EQ(NvLink2().peak_bandwidth, 75e9);
  EXPECT_DOUBLE_EQ(NvLinkC2C().peak_bandwidth, 450e9);
}

TEST(Specs, V100TlbRange) {
  EXPECT_EQ(TeslaV100().tlb_coverage, 32 * kGiB);
}

// --- Gpu / warp executor ----------------------------------------------

TEST(Gpu, RunKernelVisitsAllItems) {
  mem::AddressSpace space;
  Gpu gpu(&space, V100NvLink2());
  uint64_t visited = 0;
  KernelRun run = gpu.RunKernel("count", 100, [&](Warp& warp) {
    visited += warp.lane_count();
    EXPECT_LE(warp.lane_count(), Warp::kWidth);
  });
  EXPECT_EQ(visited, 100u);
  EXPECT_EQ(run.counters.kernel_launches, 1u);
}

TEST(Gpu, PartialWarpMask) {
  mem::AddressSpace space;
  Gpu gpu(&space, V100NvLink2());
  gpu.RunKernel("mask", 5, [&](Warp& warp) {
    EXPECT_EQ(warp.lane_count(), 5);
    EXPECT_EQ(warp.full_mask(), 0b11111u);
  });
}

TEST(Gpu, KernelRunIsolatesCounters) {
  mem::AddressSpace space;
  mem::Region host = space.Reserve(kGiB, mem::MemKind::kHost, "h");
  Gpu gpu(&space, V100NvLink2());
  KernelRun a = gpu.RunRaw("a", [&](MemoryModel& mm) {
    mm.Stream(host.base, 1024, AccessType::kRead);
  });
  KernelRun b = gpu.RunRaw("b", [&](MemoryModel& mm) {
    mm.Stream(host.base, 2048, AccessType::kRead);
  });
  EXPECT_EQ(a.counters.host_seq_read_bytes, 1024u);
  EXPECT_EQ(b.counters.host_seq_read_bytes, 2048u);
}

TEST(Gpu, TimeOfUsesPlatform) {
  mem::AddressSpace space;
  mem::Region host = space.Reserve(kGiB, mem::MemKind::kHost, "h");
  Gpu nvlink(&space, V100NvLink2());
  KernelRun run = nvlink.RunRaw("scan", [&](MemoryModel& mm) {
    mm.Stream(host.base, kGiB, AccessType::kRead);
  });
  Gpu pcie(&space, A100PciE4());
  // The same traffic takes longer over PCI-e 4.0.
  EXPECT_GT(pcie.TimeOf(run), nvlink.TimeOf(run));
}

}  // namespace
}  // namespace gpujoin::sim
