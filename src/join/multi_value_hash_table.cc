#include "join/multi_value_hash_table.h"

#include <algorithm>
#include <array>

#include "util/bit_util.h"
#include "util/check.h"

namespace gpujoin::join {

MultiValueHashTable::MultiValueHashTable(mem::AddressSpace* space,
                                         uint64_t expected_keys,
                                         uint64_t expected_values)
    : MultiValueHashTable(space, expected_keys, expected_values, Options()) {}

MultiValueHashTable::MultiValueHashTable(mem::AddressSpace* space,
                                         uint64_t expected_keys,
                                         uint64_t expected_values,
                                         const Options& options)
    : max_bucket_size_(options.max_bucket_size),
      expected_values_(expected_values) {
  GPUJOIN_CHECK(expected_keys > 0);
  GPUJOIN_CHECK(expected_values >= expected_keys);
  GPUJOIN_CHECK(options.load_factor > 0 && options.load_factor <= 0.9);
  GPUJOIN_CHECK(max_bucket_size_ >= 2);

  capacity_ = bits::NextPowerOfTwo(static_cast<uint64_t>(
      static_cast<double>(expected_keys) / options.load_factor));
  slot_region_ = space->Reserve(capacity_ * kSlotBytes,
                                mem::MemKind::kDevice, "mvht.slots");
  // Geometric bucket growth wastes at most 2x the value bytes, plus one
  // header per bucket; reserve a generous virtual budget and CHECK
  // against it at allocation time.
  const uint64_t pool_bytes =
      expected_values * 8 * 4 + uint64_t{64} * kKiB;
  bucket_region_ =
      space->Reserve(pool_bytes, mem::MemKind::kDevice, "mvht.buckets");
}

MultiValueHashTable::Bucket MultiValueHashTable::AllocateBucket(
    uint32_t capacity) {
  const uint64_t bytes = kBucketHeaderBytes + uint64_t{capacity} * 8;
  GPUJOIN_CHECK(allocated_pool_bytes_ + bytes <= bucket_region_.size)
      << "bucket pool exhausted";
  Bucket bucket{bucket_region_.base + allocated_pool_bytes_, capacity, 0};
  allocated_pool_bytes_ += bytes;
  return bucket;
}

namespace {
uint64_t gpu_line_bytes(sim::Warp& warp) {
  return warp.memory().line_bytes();
}
}  // namespace

void MultiValueHashTable::ReserveKeys(uint64_t keys) {
  slots_.reserve(keys);
  slot_index_.Reserve(keys);
}

MultiValueHashTable::Probe MultiValueHashTable::ProbeSlot(Key key) {
  uint64_t idx = HashSlot(key);
  int steps = 1;
  while (true) {
    const uint32_t* pos = slot_index_.Find(idx);
    if (pos == nullptr) return {idx, steps, nullptr};
    if (slots_[*pos].key == key) return {idx, steps, &slots_[*pos]};
    idx = (idx + 1) & (capacity_ - 1);
    ++steps;
  }
}

void MultiValueHashTable::InsertWarp(sim::Warp& warp, const Key* keys,
                                     const uint64_t* values, uint32_t mask) {
  constexpr int kW = sim::Warp::kWidth;
  // First probe step of all lanes coalesces into one instruction; the
  // (rare) extra linear-probe steps are issued per lane.
  std::array<mem::VirtAddr, kW> addrs{};
  for (int lane = 0; lane < kW; ++lane) {
    if (mask & (1u << lane)) addrs[lane] = SlotAddr(HashSlot(keys[lane]));
  }
  warp.Gather(addrs.data(), mask, kSlotBytes);

  for (int lane = 0; lane < kW; ++lane) {
    if (!(mask & (1u << lane))) continue;
    const Key key = keys[lane];
    Probe probe = ProbeSlot(key);
    for (int s = 1; s < probe.steps; ++s) {
      warp.memory().Access(SlotAddr((HashSlot(key) + s) & (capacity_ - 1)),
                           kSlotBytes, sim::AccessType::kRead);
    }

    if (probe.slot == nullptr) {
      GPUJOIN_CHECK(slots_.size() < ~uint32_t{0});
      slot_index_[probe.idx] = static_cast<uint32_t>(slots_.size());
      probe.slot = &slots_.emplace_back();
    }
    Slot& slot = *probe.slot;
    if (slot.values.empty()) {
      // New key: claim the slot; the first value is stored inline.
      slot.key = key;
      warp.memory().Access(SlotAddr(probe.idx), kSlotBytes,
                           sim::AccessType::kWrite);
    } else {
      // Walk the bucket list to the tail (WarpCore-style append).
      const uint64_t hops = slot.buckets.size();
      if (hops > 0) {
        total_walk_hops_ += hops;
        warp.memory().SerialChain(slot.buckets.front().addr, hops,
                                  sim::AccessType::kRead);
      }
      if (slot.buckets.empty()) {
        // Second value: open the first bucket and spill the inline value.
        Bucket bucket = AllocateBucket(2);
        warp.memory().Access(bucket.addr, kBucketHeaderBytes,
                             sim::AccessType::kWrite);
        warp.memory().Access(bucket.addr + kBucketHeaderBytes, 16,
                             sim::AccessType::kWrite);
        bucket.used = 1;  // the spilled inline value
        slot.buckets.push_back(bucket);
      } else if (slot.buckets.back().used == slot.buckets.back().capacity) {
        const uint32_t next_capacity = std::min(
            max_bucket_size_, slot.buckets.back().capacity * 2);
        Bucket bucket = AllocateBucket(next_capacity);
        warp.memory().Access(bucket.addr, kBucketHeaderBytes,
                             sim::AccessType::kWrite);
        slot.buckets.push_back(bucket);
      }
      Bucket& tail = slot.buckets.back();
      warp.memory().Access(
          tail.addr + kBucketHeaderBytes + uint64_t{tail.used} * 8, 8,
          sim::AccessType::kWrite);
      ++tail.used;
    }
    slot.values.push_back(values[lane]);
    ++num_values_;
    max_duplicates_ = std::max<uint64_t>(max_duplicates_, slot.values.size());
  }
}

uint32_t MultiValueHashTable::RetrieveWarp(
    sim::Warp& warp, const Key* keys, uint32_t mask,
    const std::function<void(int lane, uint64_t value)>& emit) {
  constexpr int kW = sim::Warp::kWidth;
  std::array<mem::VirtAddr, kW> addrs{};
  for (int lane = 0; lane < kW; ++lane) {
    if (mask & (1u << lane)) addrs[lane] = SlotAddr(HashSlot(keys[lane]));
  }
  warp.Gather(addrs.data(), mask, kSlotBytes);

  // WarpCore probes with cooperative groups that read a window of
  // consecutive slots per step; the window spans a second cacheline
  // (wrapping at the end of the slot array).
  for (int lane = 0; lane < kW; ++lane) {
    if (mask & (1u << lane)) {
      const uint64_t offset =
          (addrs[lane] - slot_region_.base + gpu_line_bytes(warp)) %
          slot_region_.size;
      addrs[lane] = slot_region_.base + offset;
    }
  }
  warp.Gather(addrs.data(), mask, kSlotBytes);

  uint32_t found = 0;
  for (int lane = 0; lane < kW; ++lane) {
    if (!(mask & (1u << lane))) continue;
    const Key key = keys[lane];
    const Probe probe = ProbeSlot(key);
    for (int s = 1; s < probe.steps; ++s) {
      warp.memory().Access(SlotAddr((HashSlot(key) + s) & (capacity_ - 1)),
                           kSlotBytes, sim::AccessType::kRead);
    }
    if (probe.slot == nullptr) continue;  // key absent
    const Slot& slot = *probe.slot;
    found |= 1u << lane;

    // The inline value came with the slot read; bucket-list values cost
    // one dependent hop per bucket plus the bucket contents.
    if (!slot.buckets.empty()) {
      warp.memory().SerialChain(slot.buckets.front().addr,
                                slot.buckets.size(), sim::AccessType::kRead);
      for (const Bucket& bucket : slot.buckets) {
        warp.memory().Stream(bucket.addr + kBucketHeaderBytes,
                             uint64_t{bucket.used} * 8,
                             sim::AccessType::kRead);
      }
    }
    for (uint64_t v : slot.values) emit(lane, v);
  }
  return found;
}

}  // namespace gpujoin::join
