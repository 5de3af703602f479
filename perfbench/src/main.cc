// The benchmark command: runs one workload as repeated passes for a
// fixed host-time budget, checks every pass's outputs and determinism,
// and prints the metrics as a table followed by one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced passes and reports the per-layer
// metrics, the tracing overhead, and a Chrome trace under --out.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "bad argument: %s\n", key.c_str());
      return false;
    }
    kv[key.substr(2)] = argv[++i];
  }
  try {
    for (const auto& [k, v] : kv) {
      if (k == "workload") {
        a->workload = v;
      } else if (k == "seed") {
        a->seed = std::stoull(v);
      } else if (k == "seconds") {
        a->seconds = std::stod(v);
      } else if (k == "trace") {
        if (v != "0" && v != "1") return false;
        a->trace = v == "1";
      } else if (k == "out") {
        a->out = v;
      } else {
        std::fprintf(stderr, "unknown flag --%s\n", k.c_str());
        return false;
      }
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "malformed flag value\n");
    return false;
  }
  if (!(a->seconds > 0) || a->seconds > 3600) return false;
  return FindWorkload(a->workload) != nullptr;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host costs of a set of passes: per-step medians, summed.
struct HostSummary {
  double wall_s = 0;
  double cpu_s = 0;
  double setup_s = 0;
  uint64_t sim_tuples = 0;
};

HostSummary Summarize(const std::vector<const PassResult*>& passes) {
  HostSummary h;
  if (passes.empty()) return h;
  std::map<std::string, std::vector<double>> wall;
  std::map<std::string, std::vector<double>> cpu;
  std::vector<double> setup;
  for (const PassResult* p : passes) {
    setup.push_back(p->setup_s);
    for (const StepTiming& s : p->steps) {
      wall[s.name].push_back(s.wall_s);
      cpu[s.name].push_back(s.cpu_s);
    }
  }
  for (const auto& [name, v] : wall) h.wall_s += Median(v);
  for (const auto& [name, v] : cpu) h.cpu_s += Median(v);
  for (const StepTiming& s : passes.front()->steps) h.sim_tuples += s.sim_tuples;
  h.setup_s = Median(setup);
  return h;
}

// The per-layer catalogue: every metric a traced pass can report. A
// workload that bypasses a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& LayerCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> kAll = {
      {"sim.host_ns_per_transaction", "ns/transaction"},
      {"sim.transactions_per_tuple", "1"},
      {"sim.warp_steps_per_tuple", "1"},
      {"sim.translations_per_tuple", "1"},
      {"sim.tlb_hit_ratio", "1"},
      {"sim.l2_hit_ratio", "1"},
      {"sim.host_bytes_per_tuple", "B/tuple"},
      {"index.lookup_host_s", "s"},
      {"index.lookup_host_ns_per_tuple", "ns/tuple"},
      {"index.transactions_per_lookup", "1"},
      {"partition.host_s", "s"},
      {"partition.sim_share", "1"},
      {"partition.spilled_tuples", "tuples"},
      {"core.window_self_host_s", "s"},
      {"core.materialize_host_s", "s"},
      {"core.windows", "count"},
      {"core.unattributed_host_s", "s"},
      {"join.hash_host_s", "s"},
      {"join.hash_host_share", "1"},
      {"join.hash_sim_qps", "Q/s"},
      {"serve.loop_host_s", "s"},
      {"serve.backend_host_s", "s"},
      {"serve.loop_host_share", "1"},
      {"serve.batches", "count"},
      {"serve.mean_batch_tuples", "tuples"},
      {"serve.deadline_close_frac", "1"},
      {"serve.queue_share", "1"},
      {"serve.shed_frac", "1"},
      {"serve.cache_hit_ratio", "1"},
      {"serve.cache_hits", "count"},
      {"serve.cache_evictions", "count"},
      {"ingest.ops_applied", "count"},
      {"ingest.ops_shed", "count"},
      {"ingest.merges", "count"},
      {"ingest.swap_stall_sim_s", "s"},
      {"ingest.swap_stall_share", "1"},
      {"ingest.delta_bytes_peak", "B"},
      {"dist.runjoin_host_s", "s"},
      {"dist.runjoin_host_share", "1"},
      {"dist.host_parallelism", "1"},
      {"dist.steal_events", "count"},
      {"dist.stolen_tuple_frac", "1"},
      {"dist.busy_imbalance", "1"},
      {"dist.link_bytes_per_tuple", "B/tuple"},
      {"dist.merge_sim_s", "s"},
      {"dist.merge_sim_share", "1"},
      {"cluster.runjoin_host_s", "s"},
      {"cluster.runjoin_host_share", "1"},
      {"cluster.host_parallelism", "1"},
      {"cluster.network_bytes_per_tuple", "B/tuple"},
      {"cluster.merge_sim_s", "s"},
      {"cluster.merge_sim_share", "1"},
      {"cluster.node_busy_imbalance", "1"},
      {"trace.bookkeeping_s", "s"},
      {"trace.overhead_s", "s"},
      {"trace.overhead_share", "1"},
  };
  return kAll;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& m) {
  std::string s = "{";
  for (const auto& [name, metric] : m) {
    if (s.size() > 1) s += ", ";
    s += "\"" + name + "\": {\"value\": " + JsonNumber(metric.value) +
         ", \"unit\": \"" + metric.unit + "\"}";
  }
  return s + "}";
}

void PrintTable(const char* title, const std::map<std::string, Metric>& m) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("  %-34s %16.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload {paper_batch|serve_open_loop|"
                 "scaleout_htap} --seed <n> --seconds <s> --trace <0|1> "
                 "[--out <dir>]\n");
    return 2;
  }
  const WorkloadFn run = FindWorkload(args.workload);
  const bool threaded = args.workload == "scaleout_htap";
  const int nproc = static_cast<int>(
      std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  Options opt;
  opt.seed = args.seed;
  // The batch joins run on two engine threads and serving on one: on a
  // shared 4-core host, passes with four threads varied by about 25%,
  // with two by about 10%, and serving (one thread sync per batch) on one
  // thread by about 2%.
  opt.threads = std::min(2, nproc);
  opt.serve_threads = 1;

  // Measured passes until the budget is spent: at least three, or two of
  // each kind when traced.
  std::vector<PassResult> passes;
  std::vector<bool> traced_flags;
  std::unique_ptr<HostTracer> kept_tracer;  // first traced pass, for export
  const int min_each = args.trace ? 2 : 3;
  const double t_start = Now();
  for (int i = 0; i < 200; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    const int done_each = args.trace ? i / 2 : i;
    if (Now() - t_start >= args.seconds && done_each >= min_each) break;
    if (traced) {
      auto tracer = std::make_unique<HostTracer>();
      passes.push_back(run(opt, tracer.get()));
      passes.back().layers["trace.bookkeeping_s"] = {
          static_cast<double>(tracer->bookkeeping_ns()) * 1e-9, "s"};
      if (kept_tracer == nullptr) kept_tracer = std::move(tracer);
    } else {
      passes.push_back(run(opt, nullptr));
    }
    traced_flags.push_back(traced);
  }
  const double measured_s = Now() - t_start;
  // The peak resident set of the measured passes, read before the
  // thread-count checks below, whose extra engine threads can each add a
  // malloc arena.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;

  // Output checks from every pass, plus determinism: every pass (traced
  // or not) must reproduce the first pass's simulated results exactly.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  for (size_t i = 0; i < passes.size(); ++i) {
    attempted += passes[i].attempted;
    failed += passes[i].failed;
    for (const std::string& f : passes[i].failures) {
      failures.push_back("pass " + std::to_string(i) + ": " + f);
    }
    if (i > 0) {
      ++attempted;
      if (passes[i].fingerprint != passes[0].fingerprint) {
        ++failed;
        failures.push_back("pass " + std::to_string(i) +
                           ": simulated results differ from pass 0");
      }
    }
  }
  if (threaded) {
    // The engines must give identical simulated results on one thread and
    // on every host thread.
    for (int threads : {1, nproc}) {
      if (threads == opt.threads && threads == opt.serve_threads) continue;
      Options other = opt;
      other.threads = threads;
      other.serve_threads = threads;
      const PassResult check = run(other, nullptr);
      attempted += 1 + check.attempted;
      failed += check.failed;
      if (check.fingerprint != passes[0].fingerprint) {
        ++failed;
        failures.push_back(std::to_string(threads) +
                           " engine threads: simulated results differ from "
                           "pass 0");
      }
    }
  }

  std::vector<const PassResult*> plain;
  std::vector<const PassResult*> traced;
  for (size_t i = 0; i < passes.size(); ++i) {
    (traced_flags[i] ? traced : plain).push_back(&passes[i]);
  }
  const HostSummary host = Summarize(plain);
  const PassResult& first = passes.front();

  std::map<std::string, Metric> metrics;
  std::printf("workload %s  seed %llu  engine threads %d (serving %d)  "
              "passes %zu (%zu traced) in %.1f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              threaded ? opt.threads : 1, threaded ? opt.serve_threads : 1,
              passes.size(), traced.size(), measured_s);
  std::printf("arrivals run on the simulated clock with no wall-clock "
              "pacing: generator lateness is 0 by construction\n");
  std::printf("pass wall/cpu s (setup excluded):");
  for (size_t i = 0; i < passes.size(); ++i) {
    double w = 0;
    double c = 0;
    for (const StepTiming& st : passes[i].steps) {
      w += st.wall_s;
      c += st.cpu_s;
    }
    std::printf(" %.3f/%.3f%s", w, c, traced_flags[i] ? "t" : "");
  }
  std::printf("\n");
  PrintTable("simulated clock (exact for a seed):", first.sim);
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 0;
  std::printf("  %-34s %16.6g %s\n", "failed_frac", failed_frac, "1");

  if (!args.trace) {
    metrics["wall_s"] = {host.wall_s, "s"};
    metrics["sim_tuples_per_cpu_s"] = {
        host.cpu_s > 0 ? static_cast<double>(host.sim_tuples) / host.cpu_s : 0,
        "tuples/s"};
    metrics["setup_s"] = {host.setup_s, "s"};
    metrics["peak_rss_mib"] = {peak_rss_mib, "MiB"};
    metrics["sim_qps"] = first.sim.count("sim_qps") > 0
                             ? first.sim.at("sim_qps")
                             : Metric{0, "Q/s"};
    PrintTable("end to end (host clock: medians over passes):", metrics);
  } else {
    const HostSummary traced_host = Summarize(traced);
    std::map<std::string, std::vector<double>> values;
    for (const PassResult* p : traced) {
      for (const auto& [name, m] : p->layers) values[name].push_back(m.value);
    }
    for (const auto& [name, unit] : LayerCatalogue()) {
      metrics[name] = {values.count(name) > 0 ? Median(values[name]) : 0.0,
                       unit};
    }
    // Host shares of whole-pass wall time, for layers some workloads
    // bypass (the absolute host seconds are printed alongside).
    const double wall = traced_host.wall_s;
    for (const char* layer : {"join.hash", "dist.runjoin", "cluster.runjoin"}) {
      const std::string base = layer;
      metrics[base + "_host_share"].value =
          wall > 0 ? metrics[base + "_host_s"].value / wall : 0;
    }
    metrics["trace.overhead_s"].value = traced_host.wall_s - host.wall_s;
    metrics["trace.overhead_share"].value =
        host.wall_s > 0 ? (traced_host.wall_s - host.wall_s) / host.wall_s : 0;
    std::printf("host wall: untraced %.4f s, traced %.4f s (medians)\n",
                host.wall_s, traced_host.wall_s);
    // Print what this workload exercised; the JSON line below carries
    // every metric, with 0 for the layers the workload bypasses.
    std::map<std::string, Metric> exercised;
    for (const auto& [name, m] : metrics) {
      const std::string base = name.substr(0, name.find("_host_share"));
      if (values.count(name) > 0 || values.count(base + "_host_s") > 0 ||
          name.rfind("trace.", 0) == 0) {
        exercised[name] = m;
      }
    }
    PrintTable("per layer (traced passes: medians):", exercised);

    std::error_code ec;
    std::filesystem::create_directories(args.out, ec);
    const std::string stem = args.out + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    // The exported trace is the first traced pass, host and simulated.
    if (kept_tracer == nullptr ||
        !kept_tracer->WriteChromeTrace(stem + ".trace.json",
                                       traced.front()->sim_trace_events)) {
      ++failed;
      failures.push_back("could not write " + stem + ".trace.json");
    } else {
      std::printf("trace: %s.trace.json\n", stem.c_str());
    }
    std::ofstream layers(stem + ".layers.json");
    layers << "{\"sim\": " << MetricsJson(first.sim)
           << ", \"per_layer\": " << MetricsJson(metrics) << "}\n";
  }

  for (const std::string& f : failures) {
    std::fprintf(stderr, "FAIL %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
