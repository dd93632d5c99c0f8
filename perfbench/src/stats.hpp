#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

// Statistics helpers shared by every workload. Kept free of the llm4vv
// library so perfbench_selftest can check them in isolation.
namespace perfbench {

/// Samples that must lie strictly above a reported percentile. A tail
/// percentile resting on fewer samples is mostly noise.
inline constexpr std::size_t kMinBeyond = 10;

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile: the value at rank ceil(q * n) of the sorted
/// samples. Empty unless at least `min_beyond` samples lie above that
/// rank, i.e. unless the sample supports the percentile.
std::optional<double> percentile(std::vector<double> values, double q,
                                 std::size_t min_beyond = kMinBeyond);

/// Half-open time interval [start, end).
struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Length of `parent` covered by the union of `children`, each clipped to
/// the parent. Overlapping children count once.
std::uint64_t covered_length(Interval parent, std::vector<Interval> children);

/// Self time of a span: its duration minus the part its children cover.
inline std::uint64_t self_time(Interval parent,
                               std::vector<Interval> children) {
  return (parent.end - parent.start) -
         covered_length(parent, std::move(children));
}

/// Arrival offsets (microseconds from the phase start, ascending) of a
/// Poisson process at `rate_per_s` over `seconds`. Same seed, same
/// schedule: inter-arrival gaps are -ln(1 - u) / rate with u drawn from a
/// splitmix64 stream, so no library distribution's implementation enters.
std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed,
                                            double rate_per_s,
                                            double seconds);

}  // namespace perfbench
