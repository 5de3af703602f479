#include "plan/plan_space.h"

#include <algorithm>
#include <string>

namespace gpujoin::plan {

namespace {

using core::InljConfig;

// Dominance rules (documented once, applied in EnumeratePlans):
//
//  1. R well inside the TLB range (r_bytes * 2 <= tlb_coverage): drop
//     kFull/kWindowed. Translation is never the bottleneck there, the
//     probe keys are near-unique so partitioning buys no cache reuse,
//     and the partition pass + per-window sync are pure overhead — the
//     unpartitioned INLJ dominates (Fig. 3: the naive INLJ only
//     collapses *beyond* the TLB range).
//  2. R well past the TLB range (r_bytes > 2 * tlb_coverage): drop
//     kNone. Every index's random probes thrash the TLB and the join
//     goes translation-bound (Fig. 3/4); any partitioned variant
//     dominates.
//  3. Window entries no smaller than the batch collapse onto kFull (one
//     window == partition everything up front), so only the first such
//     entry is kept — and dropped entirely when kFull is already a
//     candidate.
//  4. Hash join scans all of R for every batch. When that scan moves
//     more bytes than the worst INLJ candidate could gather
//     (r_bytes > batch_tuples * 2 KiB, i.e. more than ~16 cachelines
//     per probe tuple), the INLJ dominates on the same link.
bool KeepInlj(const PlanSpaceConfig& config, const PruneContext& ctx,
              InljConfig::PartitionMode mode, uint64_t window_tuples,
              bool* saw_full_window) {
  const bool partitioned = mode != InljConfig::PartitionMode::kNone;
  if (!config.prune) return true;
  if (ctx.r_bytes > 0 && ctx.tlb_coverage > 0) {
    if (partitioned && ctx.r_bytes * 2 <= ctx.tlb_coverage) return false;
    if (!partitioned && ctx.r_bytes > 2 * ctx.tlb_coverage) return false;
  }
  if (mode == InljConfig::PartitionMode::kWindowed &&
      ctx.batch_tuples > 0 && window_tuples >= ctx.batch_tuples) {
    if (*saw_full_window) return false;
    *saw_full_window = true;
    if (config.include_full) return false;  // identical to the kFull entry
  }
  return true;
}

}  // namespace

const char* PlannerModeName(PlannerMode mode) {
  switch (mode) {
    case PlannerMode::kStatic:
      return "static";
    case PlannerMode::kAdaptive:
      return "adaptive";
    case PlannerMode::kOracle:
      return "oracle";
  }
  return "unknown";
}

Result<PlannerMode> ParsePlannerMode(std::string_view name) {
  if (name == "static") return PlannerMode::kStatic;
  if (name == "adaptive") return PlannerMode::kAdaptive;
  if (name == "oracle") return PlannerMode::kOracle;
  return Status::InvalidArgument("unknown planner mode '" +
                                 std::string(name) +
                                 "' (want static|adaptive|oracle)");
}

std::string PlanChoice::Name() const {
  if (kind == Kind::kHashJoin) return "hash_join";
  std::string name = index::IndexTypeName(index_type);
  name += "/";
  name += core::PartitionModeName(mode);
  if (mode == core::InljConfig::PartitionMode::kWindowed) {
    name += "/";
    name += std::to_string(window_tuples);
  }
  return name;
}

bool PlanChoice::operator==(const PlanChoice& o) const {
  if (kind != o.kind) return false;
  if (kind == Kind::kHashJoin) return true;
  if (index_type != o.index_type || mode != o.mode) return false;
  return mode != core::InljConfig::PartitionMode::kWindowed ||
         window_tuples == o.window_tuples;
}

std::vector<PlanChoice> EnumeratePlans(const PlanSpaceConfig& config,
                                       const PruneContext& context) {
  std::vector<PlanChoice> plans;
  for (index::IndexType type : config.indexes) {
    bool saw_full_window = false;
    if (config.include_unpartitioned &&
        KeepInlj(config, context, core::InljConfig::PartitionMode::kNone, 0,
                 &saw_full_window)) {
      plans.push_back({PlanChoice::Kind::kInlj, type,
                       core::InljConfig::PartitionMode::kNone, 0});
    }
    if (config.include_full &&
        KeepInlj(config, context, core::InljConfig::PartitionMode::kFull, 0,
                 &saw_full_window)) {
      plans.push_back({PlanChoice::Kind::kInlj, type,
                       core::InljConfig::PartitionMode::kFull, 0});
    }
    for (uint64_t w : config.window_ladder) {
      if (KeepInlj(config, context, core::InljConfig::PartitionMode::kWindowed,
                   w, &saw_full_window)) {
        plans.push_back({PlanChoice::Kind::kInlj, type,
                         core::InljConfig::PartitionMode::kWindowed, w});
      }
    }
  }
  if (config.include_hash_join) {
    const bool scan_dominated =
        config.prune && context.r_bytes > 0 && context.batch_tuples > 0 &&
        context.r_bytes > context.batch_tuples * 2048;
    if (!scan_dominated) {
      PlanChoice hash;
      hash.kind = PlanChoice::Kind::kHashJoin;
      plans.push_back(hash);
    }
  }
  return plans;
}

Result<PlanChoice> ParsePlanChoice(std::string_view name) {
  if (name == "hash_join") {
    PlanChoice hash;
    hash.kind = PlanChoice::Kind::kHashJoin;
    return hash;
  }
  const size_t slash = name.find('/');
  if (slash == std::string_view::npos) {
    return Status::InvalidArgument(
        "plan '" + std::string(name) +
        "' is not hash_join or <index>/<mode>[/<window_tuples>]");
  }
  const std::string_view index_name = name.substr(0, slash);
  std::string_view rest = name.substr(slash + 1);

  PlanChoice plan;
  plan.kind = PlanChoice::Kind::kInlj;
  bool found = false;
  for (index::IndexType type :
       {index::IndexType::kBinarySearch, index::IndexType::kBTree,
        index::IndexType::kHarmonia, index::IndexType::kRadixSpline}) {
    if (index_name == index::IndexTypeName(type)) {
      plan.index_type = type;
      found = true;
      break;
    }
  }
  if (!found) {
    return Status::InvalidArgument("unknown index '" +
                                   std::string(index_name) + "'");
  }

  std::string_view mode_name = rest;
  std::string_view window;
  const size_t slash2 = rest.find('/');
  if (slash2 != std::string_view::npos) {
    mode_name = rest.substr(0, slash2);
    window = rest.substr(slash2 + 1);
  }
  if (mode_name == "none") {
    plan.mode = core::InljConfig::PartitionMode::kNone;
  } else if (mode_name == "full") {
    plan.mode = core::InljConfig::PartitionMode::kFull;
  } else if (mode_name == "windowed") {
    plan.mode = core::InljConfig::PartitionMode::kWindowed;
  } else {
    return Status::InvalidArgument("unknown partition mode '" +
                                   std::string(mode_name) + "'");
  }
  plan.window_tuples = 0;
  if (plan.mode == core::InljConfig::PartitionMode::kWindowed) {
    if (window.empty()) {
      return Status::InvalidArgument(
          "windowed plan needs a window size: <index>/windowed/<tuples>");
    }
    uint64_t tuples = 0;
    for (char c : window) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("bad window size '" +
                                       std::string(window) + "'");
      }
      tuples = tuples * 10 + static_cast<uint64_t>(c - '0');
    }
    if (tuples == 0) {
      return Status::InvalidArgument("window size must be positive");
    }
    plan.window_tuples = tuples;
  }
  return plan;
}

}  // namespace gpujoin::plan
