#include "sim/cache.h"

#include <algorithm>

namespace gpujoin::sim {

Cache::Cache(uint64_t size_bytes, uint32_t line_bytes, int ways)
    : size_bytes_(size_bytes), line_bytes_(line_bytes), ways_(ways) {
  GPUJOIN_CHECK(bits::IsPowerOfTwo(line_bytes)) << line_bytes;
  GPUJOIN_CHECK(ways > 0);
  const uint64_t num_lines = size_bytes / line_bytes;
  GPUJOIN_CHECK(num_lines > 0);
  if (static_cast<uint64_t>(ways_) > num_lines) {
    ways_ = static_cast<int>(num_lines);
  }
  // Indexing needs a power-of-two set count; capacities that are not
  // (sets * ways) exact (e.g. the V100's 6 MiB L2) fold the remainder
  // into the associativity so the modeled capacity stays faithful.
  num_sets_ = uint64_t{1} << bits::Log2Floor(num_lines / ways_);
  ways_ = static_cast<int>(num_lines / num_sets_);
  set_mask_ = num_sets_ - 1;
  slots_.resize(num_sets_ * ways_);
  touches_.resize(slots_.size());
  set_epoch_.resize(num_sets_);
}

void Cache::Clear() {
  std::fill(slots_.begin(), slots_.end(), Way{});
  std::fill(touches_.begin(), touches_.end(), 0);
  std::fill(set_epoch_.begin(), set_epoch_.end(), epoch_);
  tick_ = 0;
  mru_slot_ = 0;
}

void Cache::FlushCold(uint64_t min_touches) {
  GPUJOIN_CHECK(min_touches >= 1 && min_touches <= kMaxTouches)
      << min_touches;
  ++epoch_;
  flush_min_touches_ = static_cast<uint8_t>(min_touches);
}

void Cache::Settle(uint64_t set) {
  const uint32_t keep_from =
      epoch_ - set_epoch_[set] == 1 ? flush_min_touches_ : kMaxTouches + 1u;
  set_epoch_[set] = epoch_;
  const uint64_t base = set * ways_;
  for (uint64_t slot = base; slot < base + ways_; ++slot) {
    if (touches_[slot] < keep_from) slots_[slot] = Way{};
    touches_[slot] = 0;
  }
}

}  // namespace gpujoin::sim
