// The benchmark's three workloads. Each runs as repeated passes over a
// fixed amount of work; a pass reports its host costs per step, its
// simulated-clock results (which must repeat exactly for a seed), its
// output checks, and — when traced — its per-layer metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "serve/server.h"
#include "trace.h"

namespace perfbench {

struct Options {
  uint64_t seed = 1;
  // Host threads of the scaleout_htap engines: the batch-join engines,
  // and the serving engine (which syncs its threads once per batch).
  int threads = 1;
  int serve_threads = 1;
};

// Host cost of one measured step of one pass.
struct StepTiming {
  std::string name;
  double wall_s = 0;
  double cpu_s = 0;          // user + sys, all threads
  uint64_t sim_tuples = 0;   // sample-scale probe tuples simulated
};

// A reported value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

struct PassResult {
  double setup_s = 0;  // host time inside Create calls
  std::vector<StepTiming> steps;
  // Simulated-clock results, printed by name.
  std::map<std::string, Metric> sim;
  // Every simulated number of the pass (hex floats, exact counts); two
  // passes of one seed must produce the same string.
  std::string fingerprint;
  // Output checks: operations attempted and failed (mismatches against
  // an oracle, shed or dropped requests, shed ingest ops, errors).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  // Traced passes only: per-layer metrics, and simulated-clock spans as
  // Chrome trace events.
  std::map<std::string, Metric> layers;
  std::vector<std::string> sim_trace_events;
};

using WorkloadFn = PassResult (*)(const Options&, HostTracer* tracer);

// paper_batch, serve_open_loop or scaleout_htap; null for any other name.
WorkloadFn FindWorkload(std::string_view name);

// Canonical text of a serving report (hex floats, every counter and
// section); equal strings mean byte-identical reports.
std::string ServeReportFingerprint(const gpujoin::serve::ServeReport& r);

// Adapts one core::WindowJoiner to the serving interface — the same
// path RequestServer builds internally when given a bare GPU — so a
// decorator can sit between the server and the joiner.
class JoinerBackend final : public gpujoin::serve::WindowBackend {
 public:
  JoinerBackend(gpujoin::core::WindowJoiner joiner, uint64_t sample)
      : joiner_(std::move(joiner)), sample_(sample) {}

  uint64_t sample_size() const override { return sample_; }
  gpujoin::Result<double> ServiceSlice(uint64_t begin, uint64_t count,
                                       uint64_t ordinal) override {
    return ServiceSliceCollect(begin, count, ordinal, nullptr);
  }
  gpujoin::Result<double> ServiceSliceCollect(
      uint64_t begin, uint64_t count, uint64_t ordinal,
      std::vector<gpujoin::core::JoinMatch>* collect) override {
    auto run = joiner_.RunWindow(begin, count, ordinal, collect);
    if (!run.ok()) return run.status();
    return run->seconds();
  }

 private:
  gpujoin::core::WindowJoiner joiner_;
  uint64_t sample_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
