#include "trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

HostTracer::HostTracer()
    : clock_([origin = std::chrono::steady_clock::now()] {
        return static_cast<int64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - origin)
                .count());
      }) {}

void HostTracer::Begin(std::string_view name, Kind kind,
                       std::string_view track,
                       const gpujoin::sim::MemoryModel* memory,
                       int64_t window) {
  const int64_t mark = clock_();
  Frame f;
  if (kind == Kind::kAggregated) {
    f.name = name;
  } else {
    f.stored_name = std::string(name);
  }
  f.track = track;
  f.kind = kind;
  f.window = window;
  f.id = kind == Kind::kAggregated ? 0 : next_id_++;
  f.memory = memory;
  if (memory != nullptr) f.begin_counters = memory->counters();
  stack_.push_back(std::move(f));
  const int64_t done = clock_();

  const int64_t cost = done - mark;
  bookkeeping_ns_ += cost;
  Frame& opened = stack_.back();
  Frame* parent = stack_.size() > 1 ? &stack_[stack_.size() - 2] : nullptr;
  if (kind == Kind::kStoredFromPreviousSibling && parent != nullptr) {
    // The span reaches back over the glue, so this mark's bookkeeping
    // falls inside it.
    opened.start_ns = parent->last_child_end_ns;
    opened.tracer_ns = cost;
  } else {
    opened.start_ns = done;
    if (parent != nullptr) parent->tracer_ns += cost;
  }
  opened.last_child_end_ns = opened.start_ns;
}

int64_t HostTracer::End() {
  const int64_t mark = clock_();
  if (stack_.empty()) return 0;
  Frame f = std::move(stack_.back());
  stack_.pop_back();
  const std::string_view name =
      f.kind == Kind::kAggregated ? f.name : std::string_view(f.stored_name);
  const int64_t duration = mark - f.start_ns - f.tracer_ns;
  const int64_t self = duration - f.child_ns;

  auto it = totals_.find(name);
  if (it == totals_.end()) it = totals_.emplace(std::string(name), SpanTotals{}).first;
  SpanTotals& t = it->second;
  t.total_ns += duration;
  t.self_ns += self;
  ++t.count;
  if (f.memory != nullptr) t.delta += f.memory->counters() - f.begin_counters;

  if (f.kind == Kind::kAggregated) {
    // Fold into the nearest stored ancestor's per-name breakdown.
    for (auto p = stack_.rbegin(); p != stack_.rend(); ++p) {
      if (p->kind == Kind::kAggregated) continue;
      auto& kids = p->children_self_ns;
      auto k = kids.begin();
      while (k != kids.end() && k->first != name) ++k;
      if (k == kids.end()) {
        kids.emplace_back(std::string(name), self);
      } else {
        k->second += self;
      }
      break;
    }
  } else {
    Span s;
    s.name = std::move(f.stored_name);
    s.track = std::string(f.track);
    s.start_ns = f.start_ns;
    s.end_ns = mark;
    s.self_ns = self;
    s.tracer_ns = f.tracer_ns;
    s.window = f.window;
    s.id = f.id;
    for (auto p = stack_.rbegin(); p != stack_.rend(); ++p) {
      if (p->kind != Kind::kAggregated) {
        s.parent = p->id;
        break;
      }
    }
    s.children_self_ns = std::move(f.children_self_ns);
    spans_.push_back(std::move(s));
  }
  const int64_t done = clock_();

  const int64_t cost = done - mark;
  bookkeeping_ns_ += cost;
  if (!stack_.empty()) {
    Frame& parent = stack_.back();
    parent.child_ns += duration;
    parent.tracer_ns += f.tracer_ns + cost;
    parent.last_child_end_ns = done;
  }
  return duration;
}

const SpanTotals& HostTracer::TotalsOf(std::string_view name) const {
  static const SpanTotals kEmpty;
  auto it = totals_.find(name);
  return it == totals_.end() ? kEmpty : it->second;
}

bool HostTracer::WriteChromeTrace(
    const std::string& path,
    const std::vector<std::string>& extra_events) const {
  std::ofstream out(path);
  if (!out) return false;
  std::map<std::string, int> tids;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"host clock\"}}";
  for (const Span& s : spans_) {
    auto [it, fresh] = tids.emplace(s.track, static_cast<int>(tids.size()) + 1);
    if (fresh) {
      out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
          << it->second << ",\"args\":{\"name\":\"" << JsonEscape(s.track)
          << "\"}}";
    }
    char times[128];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << ",\n{\"name\":\"" << JsonEscape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << it->second << ","
        << times << ",\"args\":{\"id\":" << s.id << ",\"parent\":"
        << s.parent << ",\"self_ns\":" << s.self_ns
        << ",\"tracer_ns\":" << s.tracer_ns;
    if (s.window >= 0) out << ",\"window\":" << s.window;
    for (const auto& [child, ns] : s.children_self_ns) {
      out << ",\"" << JsonEscape(child) << ".self_ns\":" << ns;
    }
    out << "}}";
  }
  for (const std::string& e : extra_events) out << ",\n" << e;
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
