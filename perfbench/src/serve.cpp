// serve_open: an in-process llm4vv server over loopback, fed open-loop on
// a seeded Poisson schedule by the benchmark's own generator (loadgen.hpp).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "loadgen.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace llm4vv;

namespace {

// Offered load: about 40% of this server configuration's closed-loop
// saturation on the reference host, leaving headroom for the host's
// minute-long slowdowns (see README.md, "serve_open rate").
constexpr double kRatePerS = 1000.0;
constexpr double kWarmupSeconds = 1.0;
// setup_s: the median of builds timed every this often while the measured
// phase runs, so the samples span the run. A build and teardown cost 0.3 to
// 0.5 ms of CPU on the reference host, about 1% of the server's CPU time in
// the phase, which cpu_ms_per_file therefore includes.
constexpr auto kSetupInterval = std::chrono::milliseconds(100);
// Two tenants with unequal fair-share weights, each offered half the load.
constexpr const char* kTenants[] = {"gold", "bronze"};
constexpr std::uint32_t kWeights[] = {3, 1};
constexpr std::size_t kTenantCount = 2;

struct ServeRig {
  std::shared_ptr<llm::ModelClient> client;
  std::shared_ptr<const judge::Llmj> judge;
  std::unique_ptr<serve::Server> server;
  std::vector<serve::Client> clients;
};

/// The perf_serve configuration: 2 workers, job batch 2, batcher
/// max_batch 4 with a 300 us window, judge cache on.
ServeRig build_rig(std::shared_ptr<obs::Registry> registry,
                   std::shared_ptr<obs::Tracer> tracer) {
  ServeRig rig;
  llm::BatcherConfig batcher;
  batcher.max_batch = 4;
  batcher.window_us = 300;
  rig.client = core::make_simulated_client(2, batcher);
  rig.client->set_tracer(tracer);
  rig.judge = std::make_shared<const judge::Llmj>(rig.client, kJudgeStyle);
  serve::ServerConfig config;
  config.workers = 2;
  config.job_batch = 2;
  config.judge_seed = kJudgeSeed;
  for (std::size_t t = 0; t < kTenantCount; ++t) {
    config.tenants.emplace_back(kTenants[t],
                                serve::TenantConfig{.weight = kWeights[t]});
  }
  config.registry = std::move(registry);
  config.trace = std::move(tracer);
  rig.server = std::make_unique<serve::Server>(
      toolchain::CompilerDriver(toolchain::nvc_persona()),
      toolchain::Executor(), rig.judge, config);
  rig.server->start();
  return rig;
}

/// Open `count` client connections, tenants in turn.
void connect(ServeRig& rig, std::size_t count = kTenantCount) {
  for (std::size_t c = 0; c < count; ++c) {
    serve::Client client;
    if (!client.connect("127.0.0.1", rig.server->port(),
                        kTenants[c % kTenantCount])) {
      throw std::runtime_error("serve_open: cannot connect to the server: " +
                               client.last_error());
    }
    rig.clients.push_back(std::move(client));
  }
}

/// Tear down in dependency order: connections, then the server (drain),
/// then the judge and its client.
void reset(ServeRig& rig) {
  rig.clients.clear();
  rig.server.reset();
  rig.judge.reset();
  rig.client.reset();
}

/// Seconds to build a fresh rig through start(); torn down untimed.
double time_setup() {
  const double t0 = now_seconds();
  ServeRig rig = build_rig(nullptr, nullptr);
  const double seconds = now_seconds() - t0;
  reset(rig);
  return seconds;
}

/// One open-loop phase: each tenant's Poisson schedule, and the payload
/// number of its first job (job j submits payload first[t] + j).
struct Phase {
  std::vector<Schedule> schedules;
  std::vector<std::size_t> first;
};

/// Schedules for consecutive phases, each tenant at half the rate. Payload
/// numbers run on across phases and tenants; `payloads` gets their count.
std::vector<Phase> plan_phases(std::uint64_t seed,
                               const std::vector<double>& seconds,
                               std::size_t& payloads) {
  std::vector<Phase> phases(seconds.size());
  payloads = 0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    for (std::size_t t = 0; t < kTenantCount; ++t) {
      phases[p].schedules.push_back(
          poisson_schedule(seed * 0x100 + p * kTenantCount + t + 1,
                           kRatePerS / kTenantCount, seconds[p]));
      phases[p].first.push_back(payloads);
      payloads += phases[p].schedules.back().size();
    }
  }
  return phases;
}

/// Run one phase. When set, `server_cpu_s` gets the process CPU time the
/// phase took minus the load generator's threads: the in-process server's
/// and its model client's.
PhaseResult run_phase(ServeRig& rig, const Phase& phase,
                      const std::vector<LabeledFile>& pool,
                      const serve::FairScheduler* depth_probe,
                      double* server_cpu_s = nullptr) {
  const double cpu0 = process_cpu_seconds();
  PhaseResult result = run_open_loop(
      rig.clients, phase.schedules,
      [&](std::size_t t, std::size_t j) {
        return unique_payload(pool, phase.first[t] + j).file;
      },
      depth_probe);
  if (server_cpu_s != nullptr) {
    *server_cpu_s = process_cpu_seconds() - cpu0 - result.loadgen_cpu_s;
  }
  return result;
}

struct PhaseCheck {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t verdicts = 0;
  std::uint64_t accurate = 0;
  double gpu_s = 0.0;
  std::vector<double> latency_ms;  ///< due -> verdict; failed jobs: +inf
  std::vector<double> server_us;   ///< server-reported submit -> response
  std::vector<double> wire_us;     ///< send -> receive minus server_us
};

/// Checks each verdict frame against the oracle; a shed, error or missing
/// terminal fails the job and counts as an infinite latency.
PhaseCheck check_phase(const Phase& phase, const PhaseResult& result,
                       const std::vector<LabeledFile>& pool,
                       const std::vector<OracleVerdict>& oracle) {
  PhaseCheck check;
  for (std::size_t t = 0; t < kTenantCount; ++t) {
    for (std::size_t j = 0; j < result.jobs[t].size(); ++j) {
      const auto& job = result.jobs[t][j];
      const std::size_t index = phase.first[t] + j;
      ++check.attempted;
      if (!job.response.has_value() ||
          job.response->type != serve::ResponseType::kVerdict) {
        ++check.failed;
        check.latency_ms.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      const auto& frame = *job.response;
      const auto& expect = oracle[index];
      if (frame.compiled != expect.compiled ||
          frame.executed != expect.executed ||
          frame.judge_valid != expect.judge_valid) {
        ++check.failed;
      }
      ++check.verdicts;
      const bool final_valid =
          frame.compiled && frame.executed && frame.judge_valid;
      if (final_valid == unique_payload(pool, index).truth_valid) {
        ++check.accurate;
      }
      check.gpu_s += frame.gpu_seconds;
      check.latency_ms.push_back(
          static_cast<double>(job.recv_us - job.due_us) * 1e-3);
      const double server = static_cast<double>(frame.latency_us);
      check.server_us.push_back(server);
      check.wire_us.push_back(
          static_cast<double>(job.recv_us - job.send_us) - server);
    }
  }
  return check;
}

void tally(Outcome& outcome, const PhaseCheck& check) {
  outcome.attempted += check.attempted;
  outcome.failed += check.failed;
}

/// Per-layer values from the traced server's spans, registry and client.
void add_server_layers(const ServeRig& rig, const obs::Registry& registry,
                       const std::vector<obs::TraceEvent>& events,
                       const PhaseResult& traced, const PhaseCheck& check,
                       LayerValues& values) {
  double compiles = 0, rejects = 0, executes = 0, errors = 0;
  double compile_us = 0, execute_us = 0, judge_us = 0;
  for (const auto& event : events) {
    const double dur = static_cast<double>(event.end_us - event.start_us);
    switch (event.kind) {
      case obs::SpanKind::kCompile:
        ++compiles;
        if (event.arg == 0) ++rejects;
        compile_us += dur;
        break;
      case obs::SpanKind::kExecute:
        ++executes;
        execute_us += dur;
        break;
      case obs::SpanKind::kJudge:
        if (event.arg < 0) ++errors;
        judge_us += dur;
        break;
      default:
        break;
    }
  }
  values["frontend.compile_calls"] = compiles;
  values["frontend.compile_busy_s"] = compile_us * 1e-6;
  values["frontend.reject_share"] = compiles == 0 ? 0.0 : rejects / compiles;
  values["vm.execute_calls"] = executes;
  values["vm.execute_busy_s"] = execute_us * 1e-6;
  values["judge.evaluate_busy_s"] = judge_us * 1e-6;
  values["judge.errors"] = errors;
  const auto cache = rig.judge->cache_stats();
  values["cache.judge_hit_rate"] =
      cache.hits + cache.misses == 0
          ? 0.0
          : static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses);
  const auto client = rig.client->stats();
  values["llm.flushes"] = static_cast<double>(client.formed_batches);
  values["llm.batch_occupancy"] =
      client.batches == 0 ? 0.0
                          : static_cast<double>(client.batched_prompts) /
                                static_cast<double>(client.batches);
  values["llm.flush_window_share"] =
      client.formed_batches == 0
          ? 0.0
          : static_cast<double>(client.flush_window) /
                static_cast<double>(client.formed_batches);
  values["llm.queue_depth_peak"] =
      static_cast<double>(client.pending_high_water);
  values["llm.retries"] = static_cast<double>(client.retries);
  values["serve.queue_wait_us_p99"] =
      percentile(span_durations_us(events, obs::SpanKind::kQueueWait), 0.99)
          .value_or(0.0);
  values["serve.job_us_p50"] = median(check.server_us);
  values["serve.wire_us_p50"] = median(check.wire_us);
  values["serve.sched_depth_peak"] = static_cast<double>(traced.depth_peak);
  const auto snapshot = registry.snapshot();
  for (const char* name : {"shed", "protocol_errors"}) {
    const auto* sample =
        obs::find_sample(snapshot, std::string("serve.") + name);
    values[std::string("serve.") + name] =
        sample == nullptr ? 0.0 : sample->value;
  }
}

}  // namespace

Outcome run_serve(const Options& options) {
  const std::vector<double> durations =
      options.trace ? std::vector<double>{kWarmupSeconds, options.seconds / 2,
                                          kWarmupSeconds, options.seconds / 2}
                    : std::vector<double>{kWarmupSeconds, options.seconds};
  const auto pool = payload_pool(options.seed);
  std::size_t payloads = 0;
  const auto phases = plan_phases(options.seed, durations, payloads);
  const auto oracle = replay_oracle(payloads, [&](std::size_t k) {
    return unique_payload(pool, k).file;
  });

  ServeRig rig = build_rig(nullptr, nullptr);
  connect(rig);

  Outcome outcome;
  tally(outcome, check_phase(phases[0],
                             run_phase(rig, phases[0], pool, nullptr), pool,
                             oracle));
  // The measured phase, with setup_s sampled on this thread meanwhile.
  double cpu_s = 0.0;
  PhaseResult measured;
  std::vector<double> setup_s;
  {
    std::atomic<bool> done{false};
    std::thread phase([&] {
      measured = run_phase(rig, phases[1], pool, nullptr, &cpu_s);
      done = true;
    });
    while (!done) {
      setup_s.push_back(time_setup());
      std::this_thread::sleep_for(kSetupInterval);
    }
    phase.join();
  }
  const PhaseCheck check = check_phase(phases[1], measured, pool, oracle);
  tally(outcome, check);
  const double verdicts = static_cast<double>(std::max<std::uint64_t>(
      check.verdicts, 1));
  const double p99_ms = percentile(check.latency_ms, 0.99).value_or(0.0);
  const double lag_p99_us = percentile(measured.lag_us, 0.99).value_or(0.0);
  std::cout << "# serve_open: " << kRatePerS << " jobs/s offered, "
            << check.attempted << " jobs timed, latency p50/p99 "
            << median(check.latency_ms) << "/" << p99_ms
            << " ms, loadgen lag p50/p99 " << median(measured.lag_us) << "/"
            << lag_p99_us << " us\n";

  if (!options.trace) {
    outcome.add("setup_s", median(setup_s), "s");
    outcome.add("files_per_s",
                verdicts / (static_cast<double>(measured.last_recv_us -
                                                measured.start_us) *
                            1e-6),
                "1/s");
    outcome.add("cpu_ms_per_file", cpu_s / verdicts * 1e3, "ms");
    outcome.add("sim_gpu_s_per_file", check.gpu_s / verdicts, "s");
    outcome.add("accuracy", static_cast<double>(check.accurate) / verdicts,
                "share");
    outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
    return outcome;
  }

  reset(rig);
  auto registry = std::make_shared<obs::Registry>();
  auto tracer = std::make_shared<obs::Tracer>();
  LayerValues values;
  std::vector<obs::TraceEvent> events;
  {
    ServeRig traced_rig = build_rig(registry, tracer);
    connect(traced_rig);
    const PhaseResult warmup =
        run_phase(traced_rig, phases[2], pool, nullptr);
    tally(outcome, check_phase(phases[2], warmup, pool, oracle));
    double traced_cpu_s = 0.0;
    const PhaseResult traced =
        run_phase(traced_rig, phases[3], pool,
                  &traced_rig.server->scheduler(), &traced_cpu_s);
    const PhaseCheck traced_check =
        check_phase(phases[3], traced, pool, oracle);
    tally(outcome, traced_check);
    for (const auto& event : tracer->collect()) {
      if (event.start_us >= traced.start_us) events.push_back(event);
    }
    if (tracer->dropped() != 0) outcome.correct = false;
    add_server_layers(traced_rig, *registry, events, traced, traced_check,
                      values);
    // At a fixed offered load tracing costs server CPU per job; latency
    // would mostly show the host's scheduling noise.
    values["obs.trace_overhead"] =
        (traced_cpu_s / static_cast<double>(
                            std::max<std::uint64_t>(traced_check.verdicts, 1))) /
        (cpu_s / verdicts);
  }
  values["loadgen.p50_ms"] = median(check.latency_ms);
  values["loadgen.p99_ms"] = p99_ms;
  values["loadgen.lag_us_p99"] = lag_p99_us;

  std::vector<frontend::SourceFile> replay_files;
  for (std::size_t t = 0; t < kTenantCount; ++t) {
    for (std::size_t j = 0; j < phases[3].schedules[t].size() &&
                            replay_files.size() < kReplayMaxFiles;
         ++j) {
      replay_files.push_back(unique_payload(pool, phases[3].first[t] + j).file);
    }
  }
  SpanLog log;
  replay_layers(replay_files, kReplayMinFiles, kReplayMaxFiles, log, values);
  print_layer_table("replay spans", log.spans());
  write_spans(options, log, events);
  add_layer_metrics(outcome, values);
  return outcome;
}

int calibrate_serve(const Options& options) {
  // Closed loop: one client per connection, each sending its next job
  // only after the previous verdict arrived; nproc connections in all.
  const std::size_t clients =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  const auto pool = payload_pool(options.seed);
  ServeRig rig = build_rig(nullptr, nullptr);
  connect(rig, clients);
  std::vector<std::size_t> done(clients, 0);
  const double start = now_seconds();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t j = 0; now_seconds() - start < options.seconds; ++j) {
        const auto payload = unique_payload(pool, j * clients + c);
        if (!rig.clients[c].submit_and_wait(j, payload.file).has_value()) {
          return;
        }
        ++done[c];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double elapsed = now_seconds() - start;
  double total = 0;
  for (const std::size_t d : done) total += static_cast<double>(d);
  const double rate = total / elapsed;
  std::cout << "closed-loop saturation with " << clients
            << " clients: " << rate << " jobs/s; half: " << rate / 2 << "\n";
  return 0;
}

}  // namespace perfbench
