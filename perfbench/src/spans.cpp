#include "spans.hpp"

#include <chrono>
#include <map>
#include <ostream>

#include "stats.hpp"

namespace perfbench {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint64_t SpanLog::open(const char* layer, std::uint64_t trace_id,
                            std::uint64_t parent_id) {
  Span span;
  span.layer = layer;
  span.trace_id = trace_id;
  span.span_id = spans_.size() + 1;
  span.parent_id = parent_id;
  span.start_ns = now_ns();
  spans_.push_back(span);
  return span.span_id;
}

void SpanLog::close(std::uint64_t span_id) {
  spans_[span_id - 1].end_ns = now_ns();
}

void SpanLog::write_jsonl(std::ostream& out) const {
  for (const auto& span : spans_) {
    out << "{\"layer\":\"" << span.layer << "\",\"trace\":" << span.trace_id
        << ",\"span\":" << span.span_id << ",\"parent\":" << span.parent_id
        << ",\"start_ns\":" << span.start_ns
        << ",\"dur_ns\":" << (span.end_ns - span.start_ns) << "}\n";
  }
}

std::vector<LayerSummary> summarize(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<Interval>> children;
  for (const auto& span : spans) {
    if (span.parent_id != 0) {
      children[span.parent_id].push_back({span.start_ns, span.end_ns});
    }
  }
  std::map<std::string, LayerSummary> layers;
  std::map<std::string, std::vector<double>> durations_us;
  for (const auto& span : spans) {
    auto& summary = layers[span.layer];
    summary.layer = span.layer;
    ++summary.count;
    const double dur_us =
        static_cast<double>(span.end_ns - span.start_ns) * 1e-3;
    summary.busy_us += dur_us;
    const auto kids = children.find(span.span_id);
    summary.self_us +=
        kids == children.end()
            ? dur_us
            : static_cast<double>(self_time({span.start_ns, span.end_ns},
                                            kids->second)) *
                  1e-3;
    durations_us[span.layer].push_back(dur_us);
  }
  std::vector<LayerSummary> out;
  for (auto& [name, summary] : layers) {
    summary.p50_us = percentile(durations_us[name], 0.5);
    summary.p99_us = percentile(durations_us[name], 0.99);
    out.push_back(std::move(summary));
  }
  return out;
}

}  // namespace perfbench
