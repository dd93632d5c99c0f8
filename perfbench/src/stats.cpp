#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

// 1-based nearest rank of quantile q among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::optional<double> percentile(std::vector<double> values, double q,
                                 std::size_t min_beyond) {
  if (values.empty()) return std::nullopt;
  const std::size_t rank = nearest_rank(values.size(), q);
  if (values.size() - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1),
                   values.end());
  return values[rank - 1];
}

std::uint64_t covered_length(Interval parent, std::vector<Interval> children) {
  for (auto& child : children) {
    child.start = std::clamp(child.start, parent.start, parent.end);
    child.end = std::clamp(child.end, parent.start, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::uint64_t covered = 0;
  std::uint64_t reach = parent.start;
  for (const auto& child : children) {
    const std::uint64_t from = std::max(child.start, reach);
    if (child.end > from) {
      covered += child.end - from;
      reach = child.end;
    }
  }
  return covered;
}

std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed,
                                            double rate_per_s,
                                            double seconds) {
  std::vector<std::uint64_t> offsets;
  if (rate_per_s <= 0.0 || seconds <= 0.0) return offsets;
  std::uint64_t state = seed;
  const auto next_unit = [&state] {
    // splitmix64; the top 53 bits give a uniform double in [0, 1).
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  };
  const double horizon_us = seconds * 1e6;
  double t_us = 0.0;
  for (;;) {
    t_us += -std::log(1.0 - next_unit()) / rate_per_s * 1e6;
    if (t_us >= horizon_us) break;
    offsets.push_back(static_cast<std::uint64_t>(t_us));
  }
  return offsets;
}

}  // namespace perfbench
