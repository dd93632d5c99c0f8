// Self-tests of the benchmark's helpers: percentile support, self time
// under overlapping children, Poisson schedule determinism. Exits non-zero
// on the first failed check.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

void percentile_needs_ten_beyond() {
  using perfbench::percentile;
  // 1000 samples: p99 is rank 990, ten samples lie above it.
  const auto p99 = percentile(ramp(1000), 0.99);
  check(p99.has_value() && *p99 == 990.0, "p99 of 1..1000 is 990");
  // 999 samples: rank 990 leaves only nine above.
  check(!percentile(ramp(999), 0.99).has_value(),
        "p99 of 999 samples is not reported");
  check(!percentile(ramp(15), 0.5).has_value(),
        "p50 of 15 samples (7 beyond) is not reported");
  const auto p50 = percentile(ramp(21), 0.5);
  check(p50.has_value() && *p50 == 11.0, "p50 of 1..21 is 11");
  check(!percentile({}, 0.5).has_value(), "no percentile of nothing");
  check(perfbench::median({3.0, 1.0, 2.0, 4.0}) == 2.5, "even median");
}

void self_time_with_overlapping_children() {
  using perfbench::Interval;
  // Parent [0,100); children [10,40) and [30,60) overlap on [30,40), and
  // [90,120) runs past the parent's end: covered = 50 + 10 = 60.
  const Interval parent{0, 100};
  const std::vector<Interval> kids = {{10, 40}, {30, 60}, {90, 120}};
  check(perfbench::covered_length(parent, kids) == 60, "covered length");
  check(perfbench::self_time(parent, kids) == 40, "self time");
  check(perfbench::self_time(parent, {}) == 100, "self time, no children");
  check(perfbench::self_time(parent, {{0, 100}, {20, 30}}) == 0,
        "nested children count once");

  // The same rule applied through a span log.
  perfbench::SpanLog log;
  const auto root = log.open("root", 1, 0);
  const auto child = log.open("child", 1, root);
  log.close(child);
  log.close(root);
  const auto summaries = perfbench::summarize(log.spans());
  check(summaries.size() == 2, "two layers summarized");
  for (const auto& s : summaries) {
    check(s.self_us <= s.busy_us && s.self_us >= 0.0, "self <= busy");
    if (s.layer == "child") check(s.self_us == s.busy_us, "leaf self = busy");
  }
}

void poisson_schedule_is_deterministic() {
  const auto a = perfbench::poisson_schedule(42, 1000.0, 2.0);
  const auto b = perfbench::poisson_schedule(42, 1000.0, 2.0);
  const auto c = perfbench::poisson_schedule(43, 1000.0, 2.0);
  check(a == b, "same seed, same schedule");
  check(a != c, "different seed, different schedule");
  check(std::is_sorted(a.begin(), a.end()), "schedule ascends");
  check(!a.empty() && a.back() < 2'000'000, "schedule within horizon");
  // 2000 expected arrivals; a Poisson count is within 5 sigma of it.
  const double count = static_cast<double>(a.size());
  check(std::abs(count - 2000.0) < 5 * std::sqrt(2000.0),
        "arrival count near rate * seconds");
  check(perfbench::poisson_schedule(42, 0.0, 2.0).empty(), "zero rate");
}

}  // namespace

int main() {
  percentile_needs_ten_beyond();
  self_time_with_overlapping_children();
  poisson_schedule_is_deterministic();
  if (failures == 0) std::cout << "perfbench_selftest: all checks passed\n";
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
