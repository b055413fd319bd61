// Bench-side spans for the traced run.
//
// Each thread owns one SpanLog and records a span around every call the
// benchmark makes into a layer (EventLoop::tick, Publisher::publish,
// transport encode/decode, replayed entry points). Spans stay in memory:
// per-name totals for every span, plus the first `keep` spans starting at
// or after keep_from() verbatim for the Chrome trace-event file written at
// exit. Untraced runs construct no SpanLog at all.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread (user + system), nanoseconds.
[[nodiscard]] std::int64_t thread_cpu_ns();

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;  // only for spans recorded with a CPU delta
};

class SpanLog {
 public:
  SpanLog(std::string thread_name, std::size_t keep);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// `name` must be a string literal (spans are keyed by its address).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::int64_t cpu_ns = 0);

  /// Spans starting before `ns` are counted but not kept (callable from
  /// any thread: the measured window opens on the driving thread).
  void keep_from(std::int64_t ns) { keep_from_.store(ns, std::memory_order_relaxed); }

  [[nodiscard]] const std::string& thread_name() const { return thread_name_; }
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::int64_t cpu_ns;
  };
  [[nodiscard]] const std::vector<Span>& kept() const { return kept_; }

 private:
  std::string thread_name_;
  std::size_t keep_;
  std::atomic<std::int64_t> keep_from_{0};
  std::vector<Span> kept_;
  std::vector<std::pair<const char*, SpanTotals>> totals_;  // few names: linear scan
};

/// Writes the kept spans of every log as one Chrome trace-event JSON file
/// (ts-sorted complete events plus thread-name metadata). `epoch_ns` maps
/// to ts 0. Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                        std::int64_t epoch_ns);

/// Cost of one record() call including the clock reads around it, measured
/// by recording `samples` spans into a scratch log (nanoseconds per span).
[[nodiscard]] double calibrate_span_cost_ns(bool with_cpu_clock);

}  // namespace perfbench
