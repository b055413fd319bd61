#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>

namespace perfbench {

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

SpanLog::SpanLog(std::string thread_name, std::size_t keep)
    : thread_name_(std::move(thread_name)), keep_(keep) {
  kept_.reserve(keep_);
}

void SpanLog::record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                     std::int64_t cpu_ns) {
  auto it = std::find_if(totals_.begin(), totals_.end(),
                         [name](const auto& entry) { return entry.first == name; });
  if (it == totals_.end()) {
    totals_.emplace_back(name, SpanTotals{});
    it = totals_.end() - 1;
  }
  ++it->second.count;
  it->second.wall_ns += end_ns - start_ns;
  it->second.cpu_ns += cpu_ns;
  if (kept_.size() < keep_ && start_ns >= keep_from_.load(std::memory_order_relaxed)) {
    kept_.push_back({name, start_ns, end_ns - start_ns, cpu_ns});
  }
}

std::map<std::string, SpanTotals> SpanLog::totals() const {
  std::map<std::string, SpanTotals> out;
  for (const auto& [name, t] : totals_) {
    SpanTotals& dst = out[name];
    dst.count += t.count;
    dst.wall_ns += t.wall_ns;
    dst.cpu_ns += t.cpu_ns;
  }
  return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                        std::int64_t epoch_ns) {
  struct Row {
    std::int64_t ts_ns;
    std::int64_t dur_ns;
    std::int64_t cpu_ns;
    const char* name;
    std::size_t tid;
  };
  std::vector<Row> rows;
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    for (const auto& s : logs[tid]->kept()) {
      rows.push_back({s.start_ns - epoch_ns, s.dur_ns, s.cpu_ns, s.name, tid});
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.ts_ns < b.ts_ns; });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%zu,"
                 "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", tid, logs[tid]->thread_name().c_str());
    first = false;
  }
  for (const Row& r : rows) {
    std::fprintf(f,
                 "%s{\"ph\":\"X\",\"cat\":\"perfbench\",\"name\":\"%s\",\"pid\":1,"
                 "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f",
                 first ? "" : ",\n", r.name, r.tid, static_cast<double>(r.ts_ns) / 1e3,
                 static_cast<double>(r.dur_ns) / 1e3);
    if (r.cpu_ns != 0) {
      std::fprintf(f, ",\"args\":{\"cpu_us\":%.3f}", static_cast<double>(r.cpu_ns) / 1e3);
    }
    std::fprintf(f, "}");
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double calibrate_span_cost_ns(bool with_cpu_clock) {
  constexpr int kSamples = 100'000;
  SpanLog scratch("calibration", kSamples);
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kSamples; ++i) {
    const std::int64_t start = now_ns();
    const std::int64_t cpu0 = with_cpu_clock ? thread_cpu_ns() : 0;
    const std::int64_t cpu1 = with_cpu_clock ? thread_cpu_ns() : 0;
    scratch.record("calibration", start, now_ns(), cpu1 - cpu0);
  }
  return static_cast<double>(now_ns() - t0) / kSamples;
}

}  // namespace perfbench
