#ifndef GPUJOIN_SIM_CACHE_H_
#define GPUJOIN_SIM_CACHE_H_

#include <cstdint>
#include <vector>

#include "util/bit_util.h"
#include "util/check.h"

namespace gpujoin::sim {

// Set-associative cache model with LRU replacement, tracked at cacheline
// granularity. Used for the simulated GPU L1 and L2 caches. The model only
// tracks presence (tags), not contents — functional data lives in the data
// structures themselves.
//
// Storage packs each way's tag and LRU stamp side by side, so the hit
// path scans one contiguous run per set (one or two cache lines of the
// host machine for typical associativities). Touch counts, which only the
// window-boundary flush reads, live in a separate byte array.
//
// FlushCold is lazy: it bumps a flush epoch in O(1), and each set settles
// the flushes it missed on its next Access (see Settle). Contains answers
// as if every set were settled, so the observable behaviour is exactly
// that of an eager sweep over all slots at each flush.
class Cache {
 public:
  // `size_bytes` and `line_bytes` must be powers of two; associativity is
  // clamped so that there is at least one set.
  Cache(uint64_t size_bytes, uint32_t line_bytes, int ways);

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  // Touches the line containing `line_id` (an already line-aligned
  // identifier, e.g. addr / line_bytes; ~0 is reserved as the empty-way
  // tag). Returns true on hit; on miss the line is installed, evicting
  // the set's LRU line.
  //
  // Defined inline: this is the innermost call of the simulator's memory
  // hierarchy (up to three invocations per simulated transaction).
  bool Access(uint64_t line_id) {
    const uint64_t set = line_id & set_mask_;
    if (set_epoch_[set] != epoch_) Settle(set);
    const uint64_t base = set * ways_;
    ++tick_;
    Way* way = &slots_[base];
    // One fused pass: search the tags while tracking the LRU way (first
    // index among the minima; empty ways carry stamp 0). Hits exit early;
    // misses have their victim ready without a second sweep.
    int lru = 0;
    uint64_t lru_use = way[0].last_use;
    for (int w = 0; w < ways_; ++w) {
      if (way[w].tag == line_id) {
        way[w].last_use = tick_;
        mru_slot_ = base + w;
        Touch(mru_slot_);
        return true;
      }
      if (way[w].last_use < lru_use) {
        lru_use = way[w].last_use;
        lru = w;
      }
    }
    way[lru] = Way{line_id, tick_};
    mru_slot_ = base + lru;
    touches_[mru_slot_] = 1;
    return false;
  }

  // Re-touches the entry the previous Access() hit or installed, exactly
  // as a hit of that line would. Callers use this to fast-path repeated
  // touches of one line; they must guarantee no other Access, Clear or
  // FlushCold happened in between (the MemoryModel resets its memo on
  // flush/clear to uphold this).
  void TouchMru() {
    slots_[mru_slot_].last_use = ++tick_;
    Touch(mru_slot_);
  }

  // Probes without installing or updating recency. Pending flushes are
  // applied to the answer, not to the set.
  bool Contains(uint64_t line_id) const {
    const uint64_t set = line_id & set_mask_;
    const uint64_t pending = epoch_ - set_epoch_[set];
    if (pending >= 2) return false;
    const uint64_t base = set * ways_;
    for (int w = 0; w < ways_; ++w) {
      if (slots_[base + w].tag == line_id) {
        return pending == 0 || touches_[base + w] >= flush_min_touches_;
      }
    }
    return false;
  }

  // Drops all cached lines (e.g. between independent experiment runs).
  void Clear();

  // Drops lines touched fewer than `min_touches` (1..255) times since they
  // were installed (or since the last flush); touch counts reset. Models
  // heavy churn that evicts everything except constantly re-touched hot
  // lines. O(1): the sets settle lazily on their next Access.
  void FlushCold(uint64_t min_touches);

  uint64_t size_bytes() const { return size_bytes_; }
  uint32_t line_bytes() const { return line_bytes_; }
  int ways() const { return ways_; }
  uint64_t num_sets() const { return num_sets_; }

 private:
  static constexpr uint64_t kInvalidTag = ~uint64_t{0};
  static constexpr uint8_t kMaxTouches = 255;

  struct Way {
    uint64_t tag = kInvalidTag;
    uint64_t last_use = 0;  // tick of the latest touch; 0 = empty
  };

  // Saturating: counts are only compared against a flush threshold of at
  // most kMaxTouches.
  void Touch(uint64_t slot) {
    touches_[slot] += touches_[slot] != kMaxTouches;
  }

  // Applies the flushes set `set` missed since it last settled. With two
  // or more pending, the later ones saw touch counts of 0 and emptied the
  // set; with exactly one (the latest flush), ways touched fewer than
  // flush_min_touches_ times are emptied. Touch counts reset either way.
  void Settle(uint64_t set);

  uint64_t size_bytes_;
  uint32_t line_bytes_;
  int ways_;
  uint64_t num_sets_;
  uint64_t set_mask_;
  uint64_t tick_ = 0;
  uint64_t mru_slot_ = 0;
  // Flushes so far, and the threshold of the latest one.
  uint64_t epoch_ = 0;
  uint8_t flush_min_touches_ = 1;
  // num_sets_ * ways_ entries each, indexed set * ways + w.
  std::vector<Way> slots_;
  std::vector<uint8_t> touches_;
  // Per set: the epoch it last settled at.
  std::vector<uint64_t> set_epoch_;
};

}  // namespace gpujoin::sim

#endif  // GPUJOIN_SIM_CACHE_H_
