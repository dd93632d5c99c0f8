#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

// The benchmark's own spans: one around each call it makes into a layer's
// public functions during the traced replay. Spans stay in memory and are
// written out when the run ends.
namespace perfbench {

struct Span {
  const char* layer = "";       ///< static string, e.g. "frontend.compile"
  std::uint64_t trace_id = 0;   ///< per-file id (input index + 1)
  std::uint64_t span_id = 0;    ///< 1-based position in the log
  std::uint64_t parent_id = 0;  ///< 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Single-threaded span recorder (the replay runs on one thread).
class SpanLog {
 public:
  std::uint64_t open(const char* layer, std::uint64_t trace_id,
                     std::uint64_t parent_id);
  void close(std::uint64_t span_id);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// One JSON object per span: layer/trace/span/parent/start_ns/dur_ns.
  void write_jsonl(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* layer, std::uint64_t trace_id,
             std::uint64_t parent_id = 0)
      : log_(log), id_(log.open(layer, trace_id, parent_id)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

/// Per-layer reduction of a span log.
struct LayerSummary {
  std::string layer;
  std::size_t count = 0;
  double busy_us = 0.0;  ///< summed span durations
  double self_us = 0.0;  ///< summed durations minus child coverage
  std::optional<double> p50_us;
  std::optional<double> p99_us;  ///< only with >= kMinBeyond samples above
};

std::vector<LayerSummary> summarize(const std::vector<Span>& spans);

}  // namespace perfbench
