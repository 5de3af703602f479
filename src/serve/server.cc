#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "serve/cache.h"
#include "serve/ingest.h"
#include "util/rng.h"

namespace gpujoin::serve {

namespace {

// Default backend: one windowed joiner on one simulated GPU, exactly the
// pre-backend serving path (regression: RequestServer runs on it are
// bit-identical to the original inline-joiner loop).
class LocalBackend final : public WindowBackend {
 public:
  LocalBackend(core::WindowJoiner joiner, uint64_t sample)
      : joiner_(std::move(joiner)), sample_(sample) {}

  uint64_t sample_size() const override { return sample_; }

  Result<double> ServiceSlice(uint64_t begin, uint64_t count,
                              uint64_t ordinal) override {
    return ServiceSliceCollect(begin, count, ordinal, nullptr);
  }

  Result<double> ServiceSliceCollect(
      uint64_t begin, uint64_t count, uint64_t ordinal,
      std::vector<core::JoinMatch>* collect) override {
    Result<core::WindowRun> run =
        joiner_.RunWindow(begin, count, ordinal, collect);
    if (!run.ok()) return run.status();
    return run->seconds();
  }

 private:
  core::WindowJoiner joiner_;
  uint64_t sample_;
};

}  // namespace

Status RetryPolicy::Validate() const {
  if (deadline_seconds < 0 || !std::isfinite(deadline_seconds)) {
    return Status::InvalidArgument(
        "retry.deadline_seconds must be finite and >= 0");
  }
  if (retry_cap < 0 || retry_cap > 32) {
    return Status::InvalidArgument("retry.retry_cap must be in [0, 32]");
  }
  if (retry_cap > 0 && !(backoff_base > 0)) {
    return Status::InvalidArgument(
        "retry.backoff_base must be > 0 when retries are enabled");
  }
  if (backoff_jitter < 0 || backoff_jitter > 1) {
    return Status::InvalidArgument(
        "retry.backoff_jitter must be in [0, 1]");
  }
  if (hedge_after < 0 || !std::isfinite(hedge_after)) {
    return Status::InvalidArgument(
        "retry.hedge_after must be finite and >= 0");
  }
  return Status();
}

Result<ServeReport> RequestServer::Run() {
  if (serve_config_.requests == 0) {
    return Status::InvalidArgument("serving run needs at least one request");
  }
  if (serve_config_.tuples_per_request == 0) {
    return Status::InvalidArgument("tuples_per_request must be positive");
  }
  if (Status st = serve_config_.arrival.Validate(); !st.ok()) return st;
  if (Status st = serve_config_.batch.Validate(); !st.ok()) return st;
  if (Status st = serve_config_.tenants.Validate(); !st.ok()) return st;
  const RetryPolicy& retry = serve_config_.retry;
  if (Status st = retry.Validate(); !st.ok()) return st;

  const uint64_t tpr = serve_config_.tuples_per_request;

  std::unique_ptr<LocalBackend> local;
  WindowBackend* backend = backend_;
  if (backend == nullptr) {
    Result<core::WindowJoiner> joiner = core::WindowJoiner::Create(
        *gpu_, *index_, *s_, inlj_config_, s_->sample_size());
    if (!joiner.ok()) return joiner.status();
    local = std::make_unique<LocalBackend>(*std::move(joiner),
                                           s_->sample_size());
    backend = local.get();
  }
  const uint64_t sample = backend->sample_size();

  // Untenanted serving is the one-tenant case: FIFO, one unlimited tier
  // (no token bucket), cyclic slicing. Its batches are exactly those of a
  // plain arrival-order queue (DESIGN.md §10).
  const bool tenanted = serve_config_.tenants.enabled();
  TenantConfig tenants = serve_config_.tenants;
  if (!tenanted) {
    tenants = TenantConfig{};
    tenants.num_tenants = 1;
    tenants.tiers = {TenantTier{"default", 1.0, 0, 0}};
    tenants.scheduler = TenantScheduler::kFifo;
  }
  const bool keyed = tenants.key_universe > 0;
  const bool ingesting = ingest_ != nullptr && ingest_->active();
  if (tenants.key_universe > sample / tpr) {
    return Status::InvalidArgument(
        "tenants.key_universe * tuples_per_request must not exceed the "
        "probe sample size");
  }
  if (cache_ != nullptr && !keyed) {
    return Status::InvalidArgument(
        "result cache requires keyed requests (tenants.key_universe > 0)");
  }
  if (cache_ != nullptr && ingesting) {
    // Memoized match sets would outlive the epoch swaps that change them.
    return Status::InvalidArgument(
        "result cache does not compose with an active ingest coordinator");
  }

  Result<std::unique_ptr<TenantRouter>> router_or =
      TenantRouter::Create(tenants, tpr);
  if (!router_or.ok()) return router_or.status();
  TenantRouter& router = **router_or;

  // The rogue flood rides on top of the configured arrival rate: the
  // generator runs (1 + rogue_extra)x faster and the router's attribution
  // coin assigns the surplus to the rogue tenant, so the well-behaved
  // tenants' offered load matches the rogue-free run.
  ArrivalConfig arrival = serve_config_.arrival;
  arrival.rate *= 1.0 + tenants.rogue_extra;
  ArrivalGenerator gen(arrival);
  MicroBatcher batcher(serve_config_.batch);

  ServeReport report;
  report.offered_rate = serve_config_.arrival.rate;

  // Backoff jitter stream: all draws happen on this (single) event-loop
  // thread in batch order, so a fixed seed reproduces the run at any
  // backend thread count. Never drawn with the default policy.
  Xoshiro256 retry_rng(SplitMix64(retry.seed));
  if (retry.retry_cap > 0) {
    report.robustness.retry_histogram.assign(
        static_cast<size_t>(retry.retry_cap) + 1, 0);
  }

  struct Request {
    double arrival = 0;
    TenantRouter::Draw draw;
    bool dequeued = false;
  };
  // Admitted requests in arrival order (ids are consecutive from
  // first_id). Dequeued ones leave from the front lazily, so the front is
  // the oldest queued arrival for the deadline trigger and memory follows
  // the backlog, not the run length.
  std::deque<Request> requests;
  uint64_t first_id = 0;
  auto oldest_queued = [&]() -> const Request* {
    while (!requests.empty() && requests.front().dequeued) {
      requests.pop_front();
      ++first_id;
    }
    return requests.empty() ? nullptr : &requests.front();
  };

  // Dispatched-but-unfinished batches as (completion time, tuples).
  // backlog = queued + in-flight tuples; it is what admission control
  // bounds and what the adaptive batcher steers by.
  std::deque<std::pair<double, uint64_t>> in_flight;
  uint64_t in_flight_tuples = 0;
  double server_free = 0;
  uint64_t cursor = 0;   // cyclic position in the probe sample
  uint64_t ordinal = 0;  // window ordinal for the phase timeline
  std::vector<uint64_t> batch_ids;
  std::vector<core::JoinMatch> scratch;
  std::vector<core::JoinMatch>* collect =
      serve_config_.collect_matches ? &report.matches : nullptr;

  auto advance = [&](double now) {
    while (!in_flight.empty() && in_flight.front().first <= now) {
      in_flight_tuples -= in_flight.front().second;
      in_flight.pop_front();
    }
  };

  // One backend call with bounded seeded-backoff retry and hedging. Adds
  // the backoff waits and the (possibly hedged) service time to *service
  // and returns true, or false once the retry cap is exhausted (the
  // caller sheds the unit). With the default retry_cap == 0 the first
  // backend error stays fatal, as does Unimplemented (a backend without
  // match collection), which no retry can fix. Matches a failed attempt
  // appended to *out are trimmed before the next one.
  auto service_slice = [&](uint64_t begin, uint64_t count,
                           std::vector<core::JoinMatch>* out,
                           double* service) -> Result<bool> {
    const size_t kept = out != nullptr ? out->size() : 0;
    double slice_time = 0;
    int attempts = 0;
    for (;;) {
      Result<double> slice =
          out != nullptr
              ? backend->ServiceSliceCollect(begin, count, ordinal++, out)
              : backend->ServiceSlice(begin, count, ordinal++);
      if (slice.ok()) {
        slice_time = *slice;
        break;
      }
      if (out != nullptr) out->resize(kept);
      if (retry.retry_cap == 0 ||
          slice.status().code() == StatusCode::kUnimplemented) {
        return slice.status();
      }
      if (attempts >= retry.retry_cap) {
        ++report.robustness.retry_histogram[static_cast<size_t>(attempts)];
        return false;
      }
      double wait = retry.backoff_base * std::ldexp(1.0, attempts);
      if (retry.backoff_jitter > 0) {
        wait *= 1.0 + retry.backoff_jitter *
                          (2.0 * retry_rng.NextDouble() - 1.0);
      }
      *service += wait;
      ++attempts;
      ++report.robustness.retries;
    }

    // Hedged re-issue: a primary attempt running past the trigger is
    // raced against the replica plan; the faster result wins.
    if (retry.hedge_after > 0 && slice_time > retry.hedge_after) {
      ++report.robustness.hedges;
      Result<double> hedge = backend->ServiceHedge(begin, count, ordinal++);
      if (hedge.ok()) {
        const double hedged = retry.hedge_after + *hedge;
        if (hedged < slice_time) {
          slice_time = hedged;
          ++report.robustness.hedge_wins;
        }
      }
    }
    if (!report.robustness.retry_histogram.empty()) {
      ++report.robustness.retry_histogram[static_cast<size_t>(attempts)];
    }
    *service += slice_time;
    return true;
  };

  // Services one unit — `tuples` from the cyclic cursor, or the keyed
  // slice of `key` memoized through the cache when attached — adding its
  // simulated time to *service. Returns false when the unit is shed for
  // retry exhaustion; a shed unit leaves no matches behind.
  auto serve_unit = [&](uint64_t key, uint64_t tuples,
                        double* service) -> Result<bool> {
    const size_t kept = collect != nullptr ? collect->size() : 0;
    Result<bool> served = true;
    if (!keyed) {
      // Cyclic slicing: the tuples come from wherever the cursor points,
      // split at the sample wrap.
      for (uint64_t remaining = tuples; remaining > 0;) {
        const uint64_t take = std::min(remaining, sample - cursor);
        served = service_slice(cursor, take, collect, service);
        if (!served.ok()) return served;
        if (!*served) break;
        cursor += take;
        if (cursor == sample) cursor = 0;
        remaining -= take;
      }
    } else if (cache_ != nullptr) {
      if (cache_->Lookup(key, collect, service)) return true;
      scratch.clear();
      served = service_slice(key * tpr, tpr, &scratch, service);
      if (served.ok() && *served) {
        if (collect != nullptr) {
          collect->insert(collect->end(), scratch.begin(), scratch.end());
        }
        cache_->Insert(key, scratch, service);
      }
    } else {
      served = service_slice(key * tpr, tpr, collect, service);
    }
    if (served.ok() && !*served && collect != nullptr) collect->resize(kept);
    return served;
  };

  // Closes one batch at `close_t`: the router pops up to the current
  // adaptive batch size (FIFO or deficit-weighted fair), requests whose
  // deadline budget already ran out are shed before dispatch, the rest
  // are serviced unit by unit, and each request's sojourn lands in the
  // latency histogram (and its tier's).
  auto close_batch = [&](double close_t, bool by_deadline) -> Status {
    batch_ids.clear();
    router.PopBatch(batcher.batch_tuples(), &batch_ids);
    if (batch_ids.empty()) return Status();
    for (uint64_t id : batch_ids) requests[id - first_id].dequeued = true;
    const double start = std::max(close_t, server_free);

    // Deadline budgets: a request whose budget already ran out by the
    // time its batch would start cannot be served in time, so it is
    // shed before dispatch.
    if (retry.deadline_seconds > 0) {
      const auto doomed = [&](uint64_t id) {
        return requests[id - first_id].arrival + retry.deadline_seconds <
               start;
      };
      const auto kept =
          std::remove_if(batch_ids.begin(), batch_ids.end(), doomed);
      report.robustness.shed_deadline +=
          static_cast<uint64_t>(batch_ids.end() - kept);
      batch_ids.erase(kept, batch_ids.end());
      if (batch_ids.empty()) {
        batcher.ObserveBacklog(router.queued_requests() * tpr +
                               in_flight_tuples);
        return Status();
      }
    }

    double service = 0;
    if (ingesting) {
      // Writes admitted before this batch land in the deltas now (epoch
      // swaps completing in the gap stall the batch), and every probe
      // pays the delta/overlay consult surcharge.
      service += ingest_->AdvanceTo(start);
      ingest_->RecordBatchStaleness(start);
      service += ingest_->LookupSurchargeSeconds(batch_ids.size() * tpr);
    }

    // Service units: an untenanted batch is one cyclic window run, a
    // tenanted request its own window; each window flushes the caches
    // (DESIGN.md §10). Exhausted retries shed only their own unit.
    const size_t unit_requests = tenanted ? 1 : batch_ids.size();
    size_t served = 0;
    for (size_t u = 0; u < batch_ids.size(); u += unit_requests) {
      const uint64_t key = requests[batch_ids[u] - first_id].draw.key;
      Result<bool> ok = serve_unit(key, unit_requests * tpr, &service);
      if (!ok.ok()) return ok.status();
      if (!*ok) {
        report.robustness.shed_retry_exhausted += unit_requests;
        continue;
      }
      for (size_t k = u; k < u + unit_requests; ++k) {
        batch_ids[served++] = batch_ids[k];
      }
    }
    batch_ids.resize(served);

    const double end = start + service;
    server_free = end;
    report.sim_seconds = std::max(report.sim_seconds, end);
    if (!batch_ids.empty()) {
      const uint64_t n_tuples = batch_ids.size() * tpr;
      for (uint64_t id : batch_ids) {
        const Request& req = requests[id - first_id];
        report.latency.Record(end - req.arrival);
        report.queue_seconds_total += start - req.arrival;
        if (retry.deadline_seconds > 0 &&
            end - req.arrival > retry.deadline_seconds) {
          ++report.robustness.deadline_misses;
        }
        router.CountServed(req.draw, end - req.arrival);
      }
      report.service_seconds_total +=
          service * static_cast<double>(batch_ids.size());
      in_flight.emplace_back(end, n_tuples);
      in_flight_tuples += n_tuples;

      ++report.counters.batches;
      ++(by_deadline ? report.counters.deadline_batches
                     : report.counters.size_batches);
      report.counters.tuples_served += n_tuples;
    }

    batcher.ObserveBacklog(router.queued_requests() * tpr +
                           in_flight_tuples);
    return Status();
  };

  // Closes, each at its deadline, the batches whose oldest queued request
  // times out before `until` (kNever drains the queues).
  constexpr double kNever = std::numeric_limits<double>::infinity();
  auto close_expired = [&](double until) -> Status {
    for (const Request* oldest = oldest_queued(); oldest != nullptr;
         oldest = oldest_queued()) {
      const double deadline = batcher.DeadlineFor(oldest->arrival);
      if (deadline >= until) break;
      advance(deadline);
      Status st = close_batch(deadline, /*by_deadline=*/true);
      if (!st.ok()) return st;
    }
    return Status();
  };

  for (uint64_t i = 0; i < serve_config_.requests; ++i) {
    const double t = gen.Next();

    // Deadlines that expire before this arrival close their batch first.
    if (Status st = close_expired(t); !st.ok()) return st;
    advance(t);

    TenantRouter::Draw draw = router.NextArrival();
    router.CountArrival(draw);
    if (!router.Admit(draw, t, tpr)) {
      ++report.counters.requests_shed;
      continue;
    }
    if (serve_config_.max_backlog_tuples > 0 &&
        router.queued_requests() * tpr + in_flight_tuples + tpr >
            serve_config_.max_backlog_tuples) {
      ++report.counters.requests_shed;
      router.CountBacklogShed(draw);
      continue;
    }
    ++report.counters.requests_admitted;
    const uint64_t id = first_id + requests.size();
    requests.push_back(Request{t, draw, false});
    router.Enqueue(draw, id);

    if (batcher.SizeTriggered(router.queued_requests() * tpr)) {
      if (Status st = close_batch(t, /*by_deadline=*/false); !st.ok()) {
        return st;
      }
    }
  }

  // Drain: the stream ended, so the remaining queued requests go out on
  // their deadlines, in scheduling order, one bounded batch at a time.
  if (Status st = close_expired(kNever); !st.ok()) return st;

  if (ingesting) ingest_->Finish(report.sim_seconds);

  report.counters.window_grows = batcher.grows();
  report.counters.window_shrinks = batcher.shrinks();
  report.final_batch_tuples = batcher.batch_tuples();
  if (report.sim_seconds > 0) {
    report.achieved_requests_per_sec =
        static_cast<double>(report.counters.requests_admitted) /
        report.sim_seconds;
    report.achieved_tuples_per_sec =
        static_cast<double>(report.counters.tuples_served) /
        report.sim_seconds;
  }
  if (tenanted) router.FillStats(&report.tenants);
  if (cache_ != nullptr) report.tenants.cache = cache_->FinalStats();
  return report;
}

}  // namespace gpujoin::serve
