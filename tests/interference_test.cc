// Tests for the TLB co-resident-warp interference model and the
// frequency-aware cache flush — the two simulator mechanisms that stand
// in for real inter-warp contention (DESIGN.md Sec. 2).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/address_space.h"
#include "sim/cache.h"
#include "sim/gpu.h"
#include "sim/memory_model.h"
#include "sim/run_result.h"
#include "sim/specs.h"
#include "util/rng.h"
#include "util/units.h"

namespace gpujoin::sim {
namespace {

class InterferenceTest : public ::testing::Test {
 protected:
  InterferenceTest()
      : host_(space_.Reserve(uint64_t{128} * kGiB, mem::MemKind::kHost,
                             "h")) {}

  MemoryModel MakeModel(int co_resident_warps) {
    GpuSpec gpu = TeslaV100();
    gpu.tlb_co_resident_warps = co_resident_warps;
    // Shrink the caches so every access reaches the TLB.
    gpu.l1_size = 2 * kKiB;
    gpu.l2_size = 2 * kKiB;
    return MemoryModel(&space_, gpu);
  }

  mem::AddressSpace space_;
  mem::Region host_;
};

TEST_F(InterferenceTest, SmallWorkingSetIsImmune) {
  MemoryModel model = MakeModel(64);
  // 16 pages (< 32 TLB entries): even with interference, repeated access
  // only pays the 16 first-touch translations.
  for (int round = 0; round < 8; ++round) {
    for (uint64_t p = 0; p < 16; ++p) {
      model.Access(host_.base + p * kGiB + round * 1024, 8,
                   AccessType::kRead);
    }
  }
  EXPECT_EQ(model.counters().translation_requests, 16u);
}

TEST_F(InterferenceTest, WideWorkingSetThrashesEvenOnResidentPages) {
  MemoryModel model = MakeModel(64);
  // 48 pages round-robin: > 32 entries. With interference, nearly every
  // access misses (a page cannot survive 47 intervening page touches
  // times 64 co-resident warps).
  const int rounds = 6;
  for (int round = 0; round < rounds; ++round) {
    for (uint64_t p = 0; p < 48; ++p) {
      model.Access(host_.base + p * kGiB + round * 1024, 8,
                   AccessType::kRead);
    }
  }
  EXPECT_EQ(model.counters().translation_requests,
            static_cast<uint64_t>(rounds) * 48);
}

TEST_F(InterferenceTest, ZeroWarpsDisablesInterference) {
  MemoryModel model = MakeModel(0);
  // Without interference, a 20-page working set enjoys plain LRU hits
  // even though other state churns around it.
  for (int round = 0; round < 8; ++round) {
    for (uint64_t p = 0; p < 20; ++p) {
      model.Access(host_.base + p * kGiB + round * 1024, 8,
                   AccessType::kRead);
    }
  }
  EXPECT_EQ(model.counters().translation_requests, 20u);
}

TEST_F(InterferenceTest, InterferenceIsHarshOncePastCoverage) {
  MemoryModel model = MakeModel(64);
  // A wide working set (40 pages + page 0 on every other access): with
  // 64 co-resident warps, even page 0's entry is churned out between its
  // touches (one intervening distinct page times 64 warps exceeds the 32
  // entries). Both streams miss nearly always — translation pressure is
  // all-or-nothing at the coverage boundary, which is exactly the cliff
  // shape of Fig. 3/4.
  const uint64_t before = model.counters().translation_requests;
  for (int i = 0; i < 400; ++i) {
    model.Access(host_.base + i * 1024, 8, AccessType::kRead);  // page 0
    const uint64_t p = 1 + (i % 40);
    model.Access(host_.base + p * kGiB + i * 1024, 8, AccessType::kRead);
  }
  const uint64_t total = model.counters().translation_requests - before;
  EXPECT_GE(total, 700u);
  EXPECT_LE(total, 800u);
}

TEST_F(InterferenceTest, BackToBackTouchesStillHit) {
  MemoryModel model = MakeModel(64);
  // Warm a wide working set so interference is active.
  for (uint64_t p = 0; p < 48; ++p) {
    model.Access(host_.base + p * kGiB, 8, AccessType::kRead);
  }
  const uint64_t before = model.counters().translation_requests;
  // Consecutive touches of one page (as within a single warp instruction
  // or a tight partition) do not advance the distinct-page clock.
  for (int i = 1; i <= 64; ++i) {
    model.Access(host_.base + 5 * kGiB + i * 256, 8, AccessType::kRead);
  }
  // One miss to re-install the page; the rest hit.
  EXPECT_LE(model.counters().translation_requests - before, 1u);
}

TEST(FlushCold, EvictsColdKeepsHot) {
  Cache cache(1024, 64, 4);
  for (int i = 0; i < 4; ++i) cache.Access(100);  // hot line
  cache.Access(200);                              // cold line
  cache.FlushCold(2);
  EXPECT_TRUE(cache.Contains(100));
  EXPECT_FALSE(cache.Contains(200));
}

TEST(FlushCold, ResetsTouchCounts) {
  Cache cache(1024, 64, 4);
  for (int i = 0; i < 4; ++i) cache.Access(100);
  cache.FlushCold(2);
  // After the flush the line must re-earn its hotness.
  cache.FlushCold(2);
  EXPECT_FALSE(cache.Contains(100));
}

TEST(FlushCold, LineSurvivesOneFlushNotTwo) {
  Cache cache(1024, 64, 4);
  for (int i = 0; i < 3; ++i) cache.Access(100);
  cache.FlushCold(2);
  cache.FlushCold(2);
  // The set was not touched between the flushes: the second one saw a
  // touch count of 0.
  EXPECT_FALSE(cache.Contains(100));
  EXPECT_FALSE(cache.Access(100));
}

TEST(FlushCold, RejectsThresholdOutsideOneTo255) {
  Cache cache(1024, 64, 4);
  EXPECT_DEATH(cache.FlushCold(0), "min_touches");
  EXPECT_DEATH(cache.FlushCold(256), "min_touches");
}

// The cache as it was before flushes became lazy: struct-of-arrays
// storage and an eager sweep of every slot per flush. Kept as the oracle
// the lazy Cache must match operation for operation.
class EagerCache {
 public:
  EagerCache(uint64_t size_bytes, uint32_t line_bytes, int ways)
      : ways_(ways) {
    const uint64_t num_lines = size_bytes / line_bytes;
    if (static_cast<uint64_t>(ways_) > num_lines) {
      ways_ = static_cast<int>(num_lines);
    }
    const uint64_t num_sets = uint64_t{1}
                              << bits::Log2Floor(num_lines / ways_);
    ways_ = static_cast<int>(num_lines / num_sets);
    set_mask_ = num_sets - 1;
    tags_.assign(num_sets * ways_, kInvalidTag);
    last_use_.assign(tags_.size(), 0);
    touches_.assign(tags_.size(), 0);
  }

  int ways() const { return ways_; }

  bool Access(uint64_t line_id) {
    const uint64_t base = (line_id & set_mask_) * ways_;
    ++tick_;
    int lru = 0;
    for (int w = 0; w < ways_; ++w) {
      if (tags_[base + w] == line_id) {
        last_use_[base + w] = tick_;
        ++touches_[base + w];
        mru_slot_ = base + w;
        return true;
      }
      if (last_use_[base + w] < last_use_[base + lru]) lru = w;
    }
    mru_slot_ = base + lru;
    tags_[mru_slot_] = line_id;
    last_use_[mru_slot_] = tick_;
    touches_[mru_slot_] = 1;
    return false;
  }

  void TouchMru() {
    last_use_[mru_slot_] = ++tick_;
    ++touches_[mru_slot_];
  }

  bool Contains(uint64_t line_id) const {
    const uint64_t base = (line_id & set_mask_) * ways_;
    for (int w = 0; w < ways_; ++w) {
      if (tags_[base + w] == line_id) return true;
    }
    return false;
  }

  void Clear() {
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(last_use_.begin(), last_use_.end(), 0);
    std::fill(touches_.begin(), touches_.end(), 0);
    tick_ = 0;
    mru_slot_ = 0;
  }

  void FlushCold(uint64_t min_touches) {
    for (size_t slot = 0; slot < tags_.size(); ++slot) {
      if (touches_[slot] < min_touches) {
        tags_[slot] = kInvalidTag;
        last_use_[slot] = 0;
      }
      touches_[slot] = 0;
    }
  }

 private:
  static constexpr uint64_t kInvalidTag = ~uint64_t{0};
  int ways_;
  uint64_t set_mask_;
  uint64_t tick_ = 0;
  uint64_t mru_slot_ = 0;
  std::vector<uint64_t> tags_;
  std::vector<uint64_t> last_use_;
  std::vector<uint64_t> touches_;
};

struct CacheGeometry {
  uint64_t size_bytes;
  uint32_t line_bytes;
  int ways;
};

class LazyFlushDifferential
    : public ::testing::TestWithParam<CacheGeometry> {};

// Seeded random sequences of every Cache operation, run through the lazy
// Cache and the eager oracle side by side. Flush bursts are common, so
// sets are regularly touched again only after two or more flushes.
TEST_P(LazyFlushDifferential, MatchesEagerSweep) {
  const CacheGeometry g = GetParam();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Cache lazy(g.size_bytes, g.line_bytes, g.ways);
    EagerCache eager(g.size_bytes, g.line_bytes, g.ways);
    ASSERT_EQ(lazy.ways(), eager.ways());
    const uint64_t lines = g.size_bytes / g.line_bytes;
    // Lines drawn from 3x the capacity: enough reuse for hits and hot
    // lines, enough spread for conflict evictions.
    const uint64_t universe = 3 * lines;
    Xoshiro256 rng(seed);
    bool mru_valid = false;
    for (int op = 0; op < 20000; ++op) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
      const uint64_t roll = rng.NextBounded(100);
      if (roll < 55) {
        const uint64_t line = rng.NextBounded(universe);
        ASSERT_EQ(lazy.Access(line), eager.Access(line));
        mru_valid = true;
      } else if (roll < 70) {
        if (mru_valid) {
          lazy.TouchMru();
          eager.TouchMru();
        }
      } else if (roll < 85) {
        const uint64_t line = rng.NextBounded(universe);
        ASSERT_EQ(lazy.Contains(line), eager.Contains(line));
      } else if (roll < 99) {
        // Mostly the simulator's threshold, sometimes others.
        const uint64_t pick = rng.NextBounded(8);
        const uint64_t min_touches = pick < 5 ? 2 : pick < 6 ? 1 : pick + 1;
        const uint64_t burst = 1 + rng.NextBounded(3);
        for (uint64_t b = 0; b < burst; ++b) {
          lazy.FlushCold(min_touches);
          eager.FlushCold(min_touches);
        }
        mru_valid = false;
      } else {
        lazy.Clear();
        eager.Clear();
        mru_valid = false;
      }
      if (op % 97 == 0) {
        for (uint64_t line = 0; line < universe; ++line) {
          ASSERT_EQ(lazy.Contains(line), eager.Contains(line)) << line;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LazyFlushDifferential,
    ::testing::Values(CacheGeometry{256, 64, 4},    // one fully assoc. set
                      CacheGeometry{1024, 64, 4},   // 4 sets
                      CacheGeometry{512, 64, 1},    // direct-mapped
                      CacheGeometry{128, 64, 16},   // clamped to 2 ways
                      CacheGeometry{6 * kKiB, 128, 16},  // folded: 24 ways
                      CacheGeometry{16 * kKiB, 128, 8}));

TEST(RunResultHelpers, QpsAndTranslationsPerKey) {
  RunResult res;
  res.seconds = 0.5;
  res.probe_tuples = 1000;
  res.counters.translation_requests = 1500;
  EXPECT_DOUBLE_EQ(res.qps(), 2.0);
  EXPECT_DOUBLE_EQ(res.translations_per_key(), 1.5);
  res.AddStage("a", 0.1);
  res.AddStage("b", 0.4);
  EXPECT_EQ(res.stages.size(), 2u);
}

TEST(KernelRunHelpers, ScaledAndMerge) {
  KernelRun a{"a", {}};
  a.counters.hbm_read_bytes = 100;
  a.counters.kernel_launches = 1;
  KernelRun scaled = a.Scaled(3.0);
  EXPECT_EQ(scaled.counters.hbm_read_bytes, 300u);
  EXPECT_EQ(scaled.counters.kernel_launches, 1u);

  KernelRun b{"b", {}};
  b.counters.hbm_read_bytes = 11;
  a.Merge(b);
  EXPECT_EQ(a.counters.hbm_read_bytes, 111u);
}

TEST(CountersToString, MentionsKeyFields) {
  CounterSet c;
  c.translation_requests = 42;
  const std::string s = c.ToString();
  EXPECT_NE(s.find("translations=42"), std::string::npos);
  EXPECT_NE(s.find("host_rd_random"), std::string::npos);
}

TEST(TimeBreakdown, TotalIsMaxPlusLaunch) {
  TimeBreakdown b;
  b.transfer = 0.5;
  b.translation = 0.2;
  b.hbm = 0.7;
  b.compute = 0.1;
  b.serial = 0.0;
  b.launch = 0.05;
  EXPECT_DOUBLE_EQ(b.total(), 0.75);
  EXPECT_NE(b.ToString().find("total="), std::string::npos);
}

}  // namespace
}  // namespace gpujoin::sim
