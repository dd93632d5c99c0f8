#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "frontend/source.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"

// The benchmark's open-loop load generator. Each job is timed from the
// moment it was due, not from when it was sent, so a stall in the
// generator or the server delays the clock of every job behind it.
namespace perfbench {

/// One tenant's due offsets: microseconds from the phase start, ascending.
/// A job's id is its position.
using Schedule = std::vector<std::uint64_t>;

/// The payload of job `job` of connection `conn`. Called from the sender
/// threads, one call per job, before the job is due.
using PayloadMaker =
    std::function<llm4vv::frontend::SourceFile(std::size_t conn,
                                               std::size_t job)>;

struct JobOutcome {
  std::uint64_t due_us = 0;   ///< absolute, support::now_us() clock
  std::uint64_t send_us = 0;
  std::uint64_t recv_us = 0;
  std::optional<llm4vv::serve::Response> response;  ///< terminal frame
};

struct PhaseResult {
  std::vector<std::vector<JobOutcome>> jobs;  ///< per tenant, by job id
  std::uint64_t start_us = 0;
  std::uint64_t last_recv_us = 0;
  std::size_t depth_peak = 0;   ///< only with a depth probe
  std::vector<double> lag_us;   ///< send time minus due time, every job
  double loadgen_cpu_s = 0.0;   ///< CPU time of the sender/receiver threads
};

/// Run one open-loop phase: client c sends the jobs of schedules[c], with
/// a sender and a receiver thread per client (the split serve::Client
/// allows). When `depth_probe` is set the senders sample its depth after
/// every send.
PhaseResult run_open_loop(std::vector<llm4vv::serve::Client>& clients,
                          const std::vector<Schedule>& schedules,
                          const PayloadMaker& make_payload,
                          const llm4vv::serve::FairScheduler* depth_probe);

}  // namespace perfbench
