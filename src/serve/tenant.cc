#include "serve/tenant.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

namespace gpujoin::serve {

namespace {

// Bucket capacity: the configured burst, defaulting to one second of
// refill, floored at one request so a rate-limited tenant can always
// eventually send something.
double BucketCapacity(const TenantTier& tier, uint64_t tuples_per_request) {
  double cap = static_cast<double>(tier.burst_tuples);
  if (cap <= 0) cap = tier.rate_tuples_per_sec;
  return std::max(cap, static_cast<double>(tuples_per_request));
}

}  // namespace

Status TenantConfig::Validate() const {
  if (!enabled()) {
    // Untenanted serving runs one implicit tenant and reads none of the
    // tenancy fields; a set one would be silently ignored.
    if (!tiers.empty()) {
      return Status::InvalidArgument(
          "tenants.tiers must be empty when tenants.num_tenants == 0");
    }
    if (key_universe > 0) {
      return Status::InvalidArgument(
          "tenants.key_universe must be 0 when tenants.num_tenants == 0");
    }
    if (rogue_extra != 0) {
      return Status::InvalidArgument(
          "tenants.rogue_extra must be 0 when tenants.num_tenants == 0");
    }
    if (rogue_tenant != 0) {
      return Status::InvalidArgument(
          "tenants.rogue_tenant must be 0 when tenants.num_tenants == 0");
    }
    return Status();
  }
  if (num_tenants > (uint64_t{1} << 32)) {
    return Status::InvalidArgument("tenants.num_tenants must fit in 32 bits");
  }
  if (tiers.empty()) {
    return Status::InvalidArgument(
        "tenants.tiers must be non-empty when tenants are enabled");
  }
  std::set<std::string> names;
  for (const TenantTier& tier : tiers) {
    if (tier.name.empty()) {
      return Status::InvalidArgument("tenants.tiers[].name must be non-empty");
    }
    if (!names.insert(tier.name).second) {
      return Status::InvalidArgument("tenants.tiers[].name must be unique: " +
                                     tier.name);
    }
    if (!(tier.weight > 0) || !std::isfinite(tier.weight)) {
      return Status::InvalidArgument(
          "tenants.tiers[].weight must be finite and > 0: " + tier.name);
    }
    if (tier.rate_tuples_per_sec < 0 ||
        !std::isfinite(tier.rate_tuples_per_sec)) {
      return Status::InvalidArgument(
          "tenants.tiers[].rate_tuples_per_sec must be finite and >= 0: " +
          tier.name);
    }
  }
  if (tenant_zipf < 0 || !std::isfinite(tenant_zipf)) {
    return Status::InvalidArgument(
        "tenants.tenant_zipf must be finite and >= 0");
  }
  if (key_zipf < 0 || !std::isfinite(key_zipf)) {
    return Status::InvalidArgument("tenants.key_zipf must be finite and >= 0");
  }
  if (rogue_extra < 0 || !std::isfinite(rogue_extra)) {
    return Status::InvalidArgument(
        "tenants.rogue_extra must be finite and >= 0");
  }
  if (rogue_extra > 0 && rogue_tenant >= num_tenants) {
    return Status::InvalidArgument(
        "tenants.rogue_tenant must be < tenants.num_tenants");
  }
  return Status();
}

Result<std::unique_ptr<TenantRouter>> TenantRouter::Create(
    const TenantConfig& config, uint64_t tuples_per_request) {
  Status st = config.Validate();
  if (!st.ok()) return st;
  if (!config.enabled()) {
    return Status::InvalidArgument(
        "tenants.num_tenants must be positive to create a TenantRouter");
  }
  if (tuples_per_request == 0) {
    return Status::InvalidArgument(
        "serve.tuples_per_request must be positive");
  }
  return std::unique_ptr<TenantRouter>(
      new TenantRouter(config, tuples_per_request));
}

TenantRouter::TenantRouter(const TenantConfig& config,
                           uint64_t tuples_per_request)
    : config_(config),
      tuples_per_request_(tuples_per_request),
      rng_(config.seed),
      tenant_sampler_(config.num_tenants, config.tenant_zipf),
      key_sampler_(std::max<uint64_t>(config.key_universe, 1),
                   config.key_zipf) {
  rogue_probability_ =
      config_.rogue_extra > 0
          ? config_.rogue_extra / (1.0 + config_.rogue_extra)
          : 0.0;
  buckets_.resize(config_.num_tenants);
  for (uint64_t t = 0; t < config_.num_tenants; ++t) {
    // Buckets start full: the first burst is free, like a freshly
    // provisioned quota.
    buckets_[t].level =
        BucketCapacity(config_.tiers[TierOf(t)], tuples_per_request_);
  }
  tenant_seen_.assign(config_.num_tenants, 0);
  queues_.resize(config_.num_tenants);
  tier_stats_.resize(config_.tiers.size());
  for (size_t i = 0; i < config_.tiers.size(); ++i) {
    tier_stats_[i].tier = config_.tiers[i].name;
    tier_stats_[i].weight = config_.tiers[i].weight;
    // Tenants map round-robin onto tiers.
    tier_stats_[i].tenants =
        config_.num_tenants / config_.tiers.size() +
        (i < config_.num_tenants % config_.tiers.size() ? 1 : 0);
  }
}

TenantRouter::Draw TenantRouter::NextArrival() {
  // Fixed draw order (coin, tenant, key) no matter which branch wins, so
  // the attribution stream of tenant N is unchanged when the rogue or
  // key knobs toggle.
  const double coin = rng_.NextDouble();
  const uint64_t rank = tenant_sampler_.Sample(rng_);
  const uint64_t key = key_sampler_.Sample(rng_);
  Draw draw;
  draw.rogue = rogue_probability_ > 0 && coin < rogue_probability_;
  draw.tenant = static_cast<uint32_t>(
      draw.rogue ? config_.rogue_tenant : rank);
  draw.tier = TierOf(draw.tenant);
  draw.key = config_.key_universe > 0 ? key : 0;
  return draw;
}

bool TenantRouter::Admit(const Draw& draw, double now, uint64_t tuples) {
  const TenantTier& tier = config_.tiers[draw.tier];
  if (tier.rate_tuples_per_sec <= 0) return true;
  Bucket& bucket = buckets_[draw.tenant];
  const double cap = BucketCapacity(tier, tuples_per_request_);
  if (now > bucket.last_refill) {
    bucket.level = std::min(
        cap, bucket.level +
                 tier.rate_tuples_per_sec * (now - bucket.last_refill));
    bucket.last_refill = now;
  }
  const double need = static_cast<double>(tuples);
  if (bucket.level + 1e-9 < need) {
    ++tier_stats_[draw.tier].shed_rate_limit;
    return false;
  }
  bucket.level -= need;
  return true;
}

void TenantRouter::Enqueue(const Draw& draw, uint64_t request_id) {
  ++tier_stats_[draw.tier].admitted;
  ++queued_requests_;
  if (config_.scheduler == TenantScheduler::kFifo) {
    fifo_.push_back(request_id);
    return;
  }
  TenantQueue& queue = queues_[draw.tenant];
  queue.requests.push_back(request_id);
  if (!queue.active) {
    queue.active = true;
    active_.push_back(draw.tenant);
  }
}

void TenantRouter::PopBatch(uint64_t budget_tuples,
                            std::vector<uint64_t>* out) {
  uint64_t popped = 0;
  if (config_.scheduler == TenantScheduler::kFifo) {
    while (!fifo_.empty() && (popped < budget_tuples || popped == 0)) {
      out->push_back(fifo_.front());
      fifo_.pop_front();
      popped += tuples_per_request_;
      --queued_requests_;
    }
    return;
  }
  // Deficit round robin over the active tenants: each visit credits the
  // tenant quantum = weight * tuples_per_request, and the tenant drains
  // whole requests while its deficit covers them. A backlogged weight-2
  // tenant therefore sends twice the requests per round of a weight-1
  // one, and an idle tenant accumulates nothing (deficit resets when its
  // queue empties). Always pops at least one request when non-empty.
  while (queued_requests_ > 0 && (popped < budget_tuples || popped == 0)) {
    const uint32_t tenant = active_.front();
    active_.pop_front();
    TenantQueue& queue = queues_[tenant];
    queue.deficit += config_.tiers[TierOf(tenant)].weight *
                     static_cast<double>(tuples_per_request_);
    while (!queue.requests.empty() &&
           queue.deficit + 1e-9 >= static_cast<double>(tuples_per_request_) &&
           (popped < budget_tuples || popped == 0)) {
      out->push_back(queue.requests.front());
      queue.requests.pop_front();
      queue.deficit -= static_cast<double>(tuples_per_request_);
      popped += tuples_per_request_;
      --queued_requests_;
    }
    if (queue.requests.empty()) {
      queue.deficit = 0;
      queue.active = false;
    } else {
      active_.push_back(tenant);
    }
  }
}

void TenantRouter::CountArrival(const Draw& draw) {
  ++tier_stats_[draw.tier].requests;
  ++tenant_seen_[draw.tenant];
  if (draw.rogue) ++rogue_requests_;
}

void TenantRouter::CountBacklogShed(const Draw& draw) {
  ++tier_stats_[draw.tier].shed_backlog;
}

void TenantRouter::CountServed(const Draw& draw, double latency_seconds) {
  ++tier_stats_[draw.tier].served;
  tier_stats_[draw.tier].latency.Record(latency_seconds);
}

void TenantRouter::FillStats(obs::TenantStats* stats) const {
  stats->scheduler = config_.scheduler == TenantScheduler::kFifo
                         ? "fifo"
                         : "fair";
  stats->tenants = config_.num_tenants;
  stats->tenants_seen = static_cast<uint64_t>(
      std::count_if(tenant_seen_.begin(), tenant_seen_.end(),
                    [](uint64_t n) { return n > 0; }));
  stats->rogue_requests = rogue_requests_;
  stats->tiers = tier_stats_;
}

}  // namespace gpujoin::serve
