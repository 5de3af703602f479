// Host-clock tracing for the benchmark: a span recorder, a sim::PhaseSink
// that feeds it from the simulator's existing phase marks, and a timing
// serve::WindowBackend decorator. Everything here lives outside the
// simulator and reaches it only through public hooks
// (MemoryModel::SetPhaseSink, the WindowBackend interface).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/server.h"
#include "sim/counters.h"
#include "sim/memory_model.h"
#include "sim/phase.h"

namespace perfbench {

// Host time of every span that closed under one name, without the
// tracer's own bookkeeping.
struct SpanTotals {
  int64_t total_ns = 0;  // sum of durations
  int64_t self_ns = 0;   // sum of durations minus child spans
  uint64_t count = 0;
  // Simulated-sample counters accumulated inside the spans (only spans
  // opened with a memory model to snapshot).
  gpujoin::sim::CounterSet delta;
};

// One stored span (call-level and window spans; per-warp phases are
// only aggregated). Times are ns since the tracer was created.
struct Span {
  std::string name;
  std::string track;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t self_ns = 0;
  int64_t tracer_ns = 0;  // tracer bookkeeping inside [start_ns, end_ns)
  int64_t window = -1;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: no parent
  // Self time of aggregated (unstored) descendants, by name.
  std::vector<std::pair<std::string, int64_t>> children_self_ns;
};

// Records nested spans on one thread. A span's self time is its duration
// minus the durations of the spans directly inside it. Stored spans keep
// their start/end for the Chrome trace; aggregated spans (the per-warp
// probe.* phases, opened millions of times) only add to their totals and
// to the nearest stored ancestor's per-name breakdown.
//
// The tracer's own work is kept out of every span. Begin and End read the
// clock at the mark and again after their bookkeeping (frame push or pop,
// CounterSet snapshot and subtraction, totals lookup); the time between
// the two reads is subtracted from the durations and self times of the
// spans it falls in, and summed in bookkeeping_ns(). What remains of the
// tracer inside a span is the hook call and the first clock read of each
// mark.
class HostTracer {
 public:
  // Nanoseconds on a monotonic clock.
  using Clock = std::function<int64_t()>;

  enum class Kind {
    kStored,      // kept as a Span
    kAggregated,  // totals only
    // Stored, and starts where the previous sibling ended (or where the
    // parent began), so the glue between consecutive windows — the cache
    // flush and the loop around RunWindow — is charged to the window.
    kStoredFromPreviousSibling,
  };

  // Steady-clock nanoseconds since construction; tests pass a synthetic
  // clock.
  HostTracer();
  explicit HostTracer(Clock clock) : clock_(std::move(clock)) {}
  HostTracer(const HostTracer&) = delete;
  HostTracer& operator=(const HostTracer&) = delete;

  void Begin(std::string_view name, Kind kind, std::string_view track,
             const gpujoin::sim::MemoryModel* memory = nullptr,
             int64_t window = -1);
  // Closes the innermost span; returns its duration without tracer
  // bookkeeping (0 when no span is open).
  int64_t End();

  int depth() const { return static_cast<int>(stack_.size()); }
  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, SpanTotals, std::less<>>& totals() const {
    return totals_;
  }
  // Totals for `name`, or all-zero totals when no such span closed.
  const SpanTotals& TotalsOf(std::string_view name) const;
  // Host time spent in the tracer's own bookkeeping, over all marks.
  int64_t bookkeeping_ns() const { return bookkeeping_ns_; }

  // Writes the stored spans as Chrome trace-event JSON ("X" events in
  // microseconds; one thread per track), plus `extra_events` (already
  // formatted event objects, e.g. simulated-clock spans).
  bool WriteChromeTrace(const std::string& path,
                        const std::vector<std::string>& extra_events) const;

 private:
  struct Frame {
    // Aggregated spans borrow the caller's name (the kernels' phase
    // literals); stored spans copy it, so callers may pass temporaries.
    std::string_view name;
    std::string stored_name;
    std::string_view track;
    Kind kind;
    int64_t start_ns = 0;
    int64_t child_ns = 0;   // durations of direct children
    int64_t tracer_ns = 0;  // bookkeeping inside [start, end)
    int64_t last_child_end_ns = 0;
    int64_t window;
    uint64_t id;
    const gpujoin::sim::MemoryModel* memory;
    gpujoin::sim::CounterSet begin_counters;
    std::vector<std::pair<std::string, int64_t>> children_self_ns;
  };

  Clock clock_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::map<std::string, SpanTotals, std::less<>> totals_;
  uint64_t next_id_ = 1;
  int64_t bookkeeping_ns_ = 0;
};

// RAII stored span; null-safe so untraced code paths share the call.
class ScopedSpan {
 public:
  ScopedSpan(HostTracer* tracer, std::string_view name,
             std::string_view track = "calls",
             const gpujoin::sim::MemoryModel* memory = nullptr)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(name, HostTracer::Kind::kStored, track, memory);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  HostTracer* tracer_;
};

// Host-clock receiver of the simulator's phase marks. Attach with
// MemoryModel::SetPhaseSink; every partition.* / probe.* / hj.* phase
// becomes an aggregated span and every tumbling window a stored span,
// each with CounterSet snapshots of `memory` at its boundaries.
class HostPhaseSink final : public gpujoin::sim::PhaseSink {
 public:
  HostPhaseSink(HostTracer* tracer, const gpujoin::sim::MemoryModel* memory)
      : tracer_(tracer), memory_(memory) {}

  void BeginPhase(std::string_view name) override {
    tracer_->Begin(name, HostTracer::Kind::kAggregated, "phases", memory_,
                   window_);
  }
  void EndPhase() override { tracer_->End(); }
  void BeginWindow(uint64_t ordinal) override {
    window_ = static_cast<int64_t>(ordinal);
    tracer_->Begin("window", HostTracer::Kind::kStoredFromPreviousSibling,
                   "windows", memory_, window_);
  }
  void EndWindow() override {
    tracer_->End();
    window_ = -1;
  }

 private:
  HostTracer* tracer_;
  const gpujoin::sim::MemoryModel* memory_;
  int64_t window_ = -1;
};

// Attaches a HostPhaseSink to a memory model for one scope.
class ScopedPhaseSink {
 public:
  ScopedPhaseSink(HostTracer* tracer, gpujoin::sim::MemoryModel* memory)
      : memory_(tracer != nullptr ? memory : nullptr), sink_(tracer, memory) {
    if (memory_ != nullptr) memory_->SetPhaseSink(&sink_);
  }
  ~ScopedPhaseSink() {
    if (memory_ != nullptr) memory_->SetPhaseSink(nullptr);
  }
  ScopedPhaseSink(const ScopedPhaseSink&) = delete;
  ScopedPhaseSink& operator=(const ScopedPhaseSink&) = delete;

 private:
  gpujoin::sim::MemoryModel* memory_;
  HostPhaseSink sink_;
};

// Timing decorator around any serving backend: forwards all three
// service methods unchanged (so tenant mode, the result cache and
// hedging see exactly the undecorated backend) and records one stored
// span per call. `memory` (optional) is snapshotted at span boundaries.
class TimedBackend final : public gpujoin::serve::WindowBackend {
 public:
  TimedBackend(gpujoin::serve::WindowBackend& inner, HostTracer* tracer,
               const gpujoin::sim::MemoryModel* memory = nullptr)
      : inner_(&inner), tracer_(tracer), memory_(memory) {}

  uint64_t sample_size() const override { return inner_->sample_size(); }

  gpujoin::Result<double> ServiceSlice(uint64_t begin, uint64_t count,
                                       uint64_t ordinal) override {
    Call call(this, "serve.backend.slice", count);
    return inner_->ServiceSlice(begin, count, ordinal);
  }
  gpujoin::Result<double> ServiceHedge(uint64_t begin, uint64_t count,
                                       uint64_t ordinal) override {
    Call call(this, "serve.backend.hedge", count);
    return inner_->ServiceHedge(begin, count, ordinal);
  }
  gpujoin::Result<double> ServiceSliceCollect(
      uint64_t begin, uint64_t count, uint64_t ordinal,
      std::vector<gpujoin::core::JoinMatch>* collect) override {
    Call call(this, "serve.backend.collect", count);
    return inner_->ServiceSliceCollect(begin, count, ordinal, collect);
  }

  uint64_t calls() const { return calls_; }
  uint64_t tuples() const { return tuples_; }
  int64_t host_ns() const { return host_ns_; }

 private:
  class Call {
   public:
    Call(TimedBackend* owner, std::string_view name, uint64_t count)
        : owner_(owner), start_(std::chrono::steady_clock::now()) {
      ++owner_->calls_;
      owner_->tuples_ += count;
      if (owner_->tracer_ != nullptr) {
        owner_->tracer_->Begin(name, HostTracer::Kind::kStored, "calls",
                               owner_->memory_);
      }
    }
    // Traced, the call's time is the span's, so tracer bookkeeping inside
    // it is not counted as backend time.
    ~Call() {
      owner_->host_ns_ +=
          owner_->tracer_ != nullptr
              ? owner_->tracer_->End()
              : std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    TimedBackend* owner_;
    std::chrono::steady_clock::time_point start_;
  };

  gpujoin::serve::WindowBackend* inner_;
  HostTracer* tracer_;
  const gpujoin::sim::MemoryModel* memory_;
  uint64_t calls_ = 0;
  uint64_t tuples_ = 0;
  int64_t host_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
