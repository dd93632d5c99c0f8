#include "loadgen.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "support/stopwatch.hpp"

namespace perfbench {

using namespace llm4vv;

namespace {

// A phase gives up on jobs still unanswered this long after the last one
// was due; they then count as failed.
constexpr std::uint64_t kDrainTimeoutUs = 30'000'000;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

PhaseResult run_open_loop(std::vector<serve::Client>& clients,
                          const std::vector<Schedule>& schedules,
                          const PayloadMaker& make_payload,
                          const serve::FairScheduler* depth_probe) {
  const std::size_t n = schedules.size();
  PhaseResult result;
  result.jobs.resize(n);
  std::uint64_t last_due = 0;
  for (std::size_t t = 0; t < n; ++t) {
    result.jobs[t].resize(schedules[t].size());
    if (!schedules[t].empty()) {
      last_due = std::max(last_due, schedules[t].back());
    }
  }
  // Start slightly in the future so every thread is waiting at time 0.
  result.start_us = support::now_us() + 2000;
  const std::uint64_t give_up_us = result.start_us + last_due + kDrainTimeoutUs;
  std::vector<std::vector<double>> lags(n);
  std::vector<std::size_t> peaks(n, 0);
  std::vector<double> sender_cpu(n, 0.0);
  std::vector<double> receiver_cpu(n, 0.0);

  const auto sender = [&](std::size_t t) {
    const double cpu0 = thread_cpu_seconds();
    for (std::size_t j = 0; j < schedules[t].size(); ++j) {
      auto& job = result.jobs[t][j];
      job.due_us = result.start_us + schedules[t][j];
      const auto payload = make_payload(t, j);  // before the job is due
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::microseconds(job.due_us)));
      job.send_us = support::now_us();
      if (!clients[t].send_submit(j, payload)) break;
      lags[t].push_back(static_cast<double>(job.send_us - job.due_us));
      if (depth_probe != nullptr) {
        peaks[t] = std::max(peaks[t], depth_probe->depth());
      }
    }
    sender_cpu[t] = thread_cpu_seconds() - cpu0;
  };
  std::vector<std::uint64_t> last_recv(n, 0);
  const auto receiver = [&](std::size_t t) {
    const double cpu0 = thread_cpu_seconds();
    const std::size_t expected = schedules[t].size();
    std::size_t received = 0;
    while (received < expected && support::now_us() < give_up_us) {
      auto response = clients[t].next_response(100);
      if (!response.has_value()) {
        if (!clients[t].last_error().empty()) break;  // EOF or socket error
        continue;                                      // timeout
      }
      const std::uint64_t now = support::now_us();
      if (!response->terminal() || !response->has_id ||
          response->id >= expected) {
        continue;
      }
      auto& job = result.jobs[t][response->id];
      if (job.response.has_value()) continue;
      job.recv_us = now;
      job.response = std::move(response);
      last_recv[t] = now;
      ++received;
    }
    receiver_cpu[t] = thread_cpu_seconds() - cpu0;
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back(sender, t);
    threads.emplace_back(receiver, t);
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < n; ++t) {
    result.lag_us.insert(result.lag_us.end(), lags[t].begin(), lags[t].end());
    result.depth_peak = std::max(result.depth_peak, peaks[t]);
    result.last_recv_us = std::max(result.last_recv_us, last_recv[t]);
    result.loadgen_cpu_s += sender_cpu[t] + receiver_cpu[t];
  }
  return result;
}

}  // namespace perfbench
