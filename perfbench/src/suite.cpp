// suite_cold and suite_rerun: a whole suite through ValidationPipeline per
// pass, every pass on freshly built caches (see README.md for why each
// workload exists and what it exercises).
#include <algorithm>
#include <iostream>
#include <memory>

#include "bench.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace llm4vv;

namespace {

constexpr std::size_t kWorkersPerStage = 2;
// setup_s: a fresh rig through its first verdict, so set-up work a change
// moves from construction into the first run() still counts. This many are
// timed before each timed pass, each torn down before the next, so the
// samples span the whole run like the passes do; setup_s is their median.
constexpr std::size_t kSetupsPerPass = 8;
constexpr std::size_t kWarmupPasses = 2;
constexpr std::size_t kMinPasses = 11;
constexpr double kMaxSeconds = 120.0;   // hard stop on a stalled host
// suite_rerun: a unique set that fits both caches, resubmitted 8 times.
constexpr std::size_t kRerunUnique = 1024;
constexpr std::size_t kRerunRepeats = 8;

struct SuiteSpec {
  pipeline::PipelineMode mode;
  std::size_t judge_batch_size;
};

SuiteSpec spec_for(const std::string& workload) {
  if (workload == "suite_cold") {
    // Paper mode: record-all, one judge call per file, batcher window 0.
    return {pipeline::PipelineMode::kRecordAll, 1};
  }
  // Production: filter early, default judge batch size.
  return {pipeline::PipelineMode::kFilterEarly,
          pipeline::PipelineConfig{}.judge_batch_size};
}

/// Everything one pass runs on. Built fresh per pass so every pass starts
/// with empty compile and judge caches.
struct Rig {
  std::shared_ptr<llm::ModelClient> client;
  std::shared_ptr<const judge::Llmj> judge;
  std::unique_ptr<pipeline::ValidationPipeline> pipe;
};

Rig build_rig(const SuiteSpec& spec, std::shared_ptr<obs::Registry> registry,
              std::shared_ptr<obs::Tracer> tracer) {
  Rig rig;
  rig.client = core::make_simulated_client(kWorkersPerStage);
  rig.client->set_tracer(tracer);
  rig.judge = std::make_shared<const judge::Llmj>(rig.client, kJudgeStyle);
  const auto persona = toolchain::nvc_persona();
  auto compile_cache = std::make_shared<cache::CompileCache>(
      cache::CompileCacheConfig{}, toolchain::driver_fingerprint(persona));
  pipeline::PipelineConfig config;
  config.mode = spec.mode;
  config.compile_workers = kWorkersPerStage;
  config.execute_workers = kWorkersPerStage;
  config.judge_workers = kWorkersPerStage;
  config.judge_batch_size = spec.judge_batch_size;
  config.judge_seed = kJudgeSeed;
  config.registry = std::move(registry);
  config.trace = std::move(tracer);
  rig.pipe = std::make_unique<pipeline::ValidationPipeline>(
      toolchain::CompilerDriver(persona, std::move(compile_cache)),
      toolchain::Executor(), rig.judge, config);
  return rig;
}

/// One pass's figures. The records are dropped once checked, so the
/// benchmark's own memory stays flat however many passes a run makes.
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  pipeline::PipelineResult result;
};

void drop_records(Pass& pass) {
  std::vector<pipeline::PipelineRecord>().swap(pass.result.records);
}

Pass run_pass(const Rig& rig, const std::vector<frontend::SourceFile>& files) {
  Pass pass;
  const double cpu0 = process_cpu_seconds();
  const double t0 = now_seconds();
  pass.result = rig.pipe->run(files);
  pass.wall_s = now_seconds() - t0;
  pass.cpu_s = process_cpu_seconds() - cpu0;
  return pass;
}

/// Checks every record of a pass against the oracle and the ground truth.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t accurate = 0;
};

void check_pass(const Pass& pass, const std::vector<LabeledFile>& inputs,
                const std::vector<OracleVerdict>& oracle, Tally& tally) {
  const auto& records = pass.result.records;
  tally.attempted += inputs.size();
  if (records.size() != inputs.size()) {
    tally.failed += inputs.size();
    return;
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& record = records[i];
    const auto& expect = oracle[i];
    bool ok = !record.dropped && !record.judge_error &&
              record.compiled == expect.compiled &&
              record.pipeline_says_valid == expect.final_valid();
    if (ok && record.compiled) ok = record.executed == expect.executed;
    if (ok && record.judged) ok = record.judge_says_valid == expect.judge_valid;
    if (!ok) ++tally.failed;
    if (record.pipeline_says_valid == inputs[i].truth_valid) ++tally.accurate;
  }
}

/// The first request of a fresh rig in setup_s: one fixed, seed-independent
/// file that compiles and runs, so every stage starts, with its oracle
/// verdict.
struct FirstRequest {
  std::vector<frontend::SourceFile> files;
  std::vector<LabeledFile> inputs;
  std::vector<OracleVerdict> oracle;
};

FirstRequest first_request() {
  frontend::SourceFile file;
  file.name = "perfbench_first_request.c";
  file.content =
      "#include <stdio.h>\n"
      "#include <stdlib.h>\n"
      "#include <math.h>\n"
      "#include <openacc.h>\n"
      "#define N 64\n"
      "int main() {\n"
      "  double *x = (double *)malloc(N * sizeof(double));\n"
      "  double *y = (double *)malloc(N * sizeof(double));\n"
      "  int err = 0;\n"
      "  for (int i = 0; i < N; i++) {\n"
      "    x[i] = i + 1.0;\n"
      "    y[i] = 0.0;\n"
      "  }\n"
      "#pragma acc parallel loop copyin(x[0:N]) copyout(y[0:N])\n"
      "  for (int i = 0; i < N; i++) {\n"
      "    y[i] = 2.0 * x[i];\n"
      "  }\n"
      "  for (int i = 0; i < N; i++) {\n"
      "    if (fabs(y[i] - 2.0 * (i + 1.0)) > 1e-9) {\n"
      "      err = err + 1;\n"
      "    }\n"
      "  }\n"
      "  free(x);\n"
      "  free(y);\n"
      "  return err;\n"
      "}\n";
  FirstRequest first;
  first.files = {file};
  first.oracle = replay_oracle(1, [&](std::size_t) { return file; }, 1);
  first.inputs = {{file, first.oracle[0].final_valid()}};
  return first;
}

/// The first verdict of a fresh rig (see first_request()), checked like a
/// pass. Returns the seconds from construction through that verdict.
double time_first_verdict(const SuiteSpec& spec, const FirstRequest& first,
                          Tally& tally) {
  Pass pass;
  const double t0 = now_seconds();
  double seconds = 0.0;
  {
    const Rig rig = build_rig(spec, nullptr, nullptr);
    pass.result = rig.pipe->run(first.files);
    seconds = now_seconds() - t0;
  }
  check_pass(pass, first.inputs, first.oracle, tally);
  return seconds;
}

double sample_value(const obs::MetricsSnapshot& snapshot,
                    const std::string& name) {
  const auto* sample = obs::find_sample(snapshot, name);
  return sample == nullptr ? 0.0 : sample->value;
}

/// Per-layer values of the program's own telemetry over the traced passes:
/// the registry snapshot and PipelineResult counters of each pass, and the
/// tracer's compile / execute / judge / queue.wait spans.
void add_program_layers(const std::vector<Pass>& traced,
                        const std::vector<obs::TraceEvent>& events,
                        LayerValues& values) {
  const double n = static_cast<double>(traced.size());
  double compile_processed = 0, compile_rejected = 0, compile_hits = 0;
  double execute_processed = 0, judge_hits = 0, judge_misses = 0;
  double flushes = 0, flush_window = 0, occupancy = 0, depth_peak = 0;
  double retries = 0, errors = 0, steals = 0;
  double share_compile = 0, share_execute = 0, share_judge = 0;
  for (const auto& pass : traced) {
    const auto& r = pass.result;
    const auto& m = r.metrics;
    compile_processed += sample_value(m, "pipeline.compile.processed");
    compile_rejected += sample_value(m, "pipeline.compile.rejected");
    compile_hits += sample_value(m, "pipeline.compile.cache_hits");
    execute_processed += sample_value(m, "pipeline.execute.processed");
    judge_hits += sample_value(m, "pipeline.judge.cache_hits");
    judge_misses += sample_value(m, "pipeline.judge.cache_misses");
    errors += sample_value(m, "pipeline.judge.errors");
    flushes += static_cast<double>(r.judge_formed_batches);
    flush_window += static_cast<double>(r.judge_flush_window);
    occupancy += r.judge_batch_occupancy;
    depth_peak = std::max(depth_peak,
                          static_cast<double>(r.judge_queue_depth_peak));
    retries += static_cast<double>(r.judge_retries);
    steals += static_cast<double>(r.queue_steals);
    const double capacity = r.wall_seconds * kWorkersPerStage;
    share_compile += r.compile_stage.busy_seconds / capacity;
    share_execute += r.execute_stage.busy_seconds / capacity;
    share_judge += r.judge_stage.busy_seconds / capacity;
  }
  const auto busy_s = [&](obs::SpanKind kind) {
    const auto durations = span_durations_us(events, kind);
    double sum = 0.0;
    for (const double d : durations) sum += d;
    return sum * 1e-6 / n;
  };
  values["frontend.compile_calls"] = (compile_processed - compile_hits) / n;
  values["frontend.compile_busy_s"] = busy_s(obs::SpanKind::kCompile);
  values["frontend.reject_share"] =
      compile_processed == 0 ? 0.0 : compile_rejected / compile_processed;
  values["vm.execute_calls"] = execute_processed / n;
  values["vm.execute_busy_s"] = busy_s(obs::SpanKind::kExecute);
  values["cache.compile_hit_rate"] =
      compile_processed == 0 ? 0.0 : compile_hits / compile_processed;
  values["cache.judge_hit_rate"] =
      judge_hits + judge_misses == 0
          ? 0.0
          : judge_hits / (judge_hits + judge_misses);
  values["judge.evaluate_busy_s"] = busy_s(obs::SpanKind::kJudge);
  values["judge.errors"] = errors;
  values["llm.flushes"] = flushes / n;
  values["llm.batch_occupancy"] = occupancy / n;
  values["llm.flush_window_share"] =
      flushes == 0 ? 0.0 : flush_window / flushes;
  values["llm.queue_depth_peak"] = depth_peak;
  values["llm.retries"] = retries;
  values["pipeline.queue_wait_s"] = busy_s(obs::SpanKind::kQueueWait);
  values["pipeline.queue_wait_us_p99"] =
      percentile(span_durations_us(events, obs::SpanKind::kQueueWait), 0.99)
          .value_or(0.0);
  values["pipeline.busy_share.compile"] = share_compile / n;
  values["pipeline.busy_share.execute"] = share_execute / n;
  values["pipeline.busy_share.judge"] = share_judge / n;
  values["pipeline.queue_steals"] = steals / n;
}

}  // namespace

Outcome run_suite(const Options& options) {
  const bool rerun = options.workload == "suite_rerun";
  const SuiteSpec spec = spec_for(options.workload);
  const auto inputs =
      rerun ? rerun_suite(options.seed, kRerunUnique, kRerunRepeats)
            : part_two_suite(options.seed);
  std::vector<frontend::SourceFile> files;
  for (const auto& input : inputs) files.push_back(input.file);
  const auto oracle =
      replay_oracle(files.size(), [&](std::size_t i) { return files[i]; });
  const double n_files = static_cast<double>(files.size());

  const FirstRequest first = first_request();
  Tally setup_tally;  // counts toward attempted and failed, not accuracy
  if (!first.oracle[0].compiled || !first.oracle[0].executed) {
    ++setup_tally.failed;  // it would not reach every stage
  }
  std::vector<double> setup_s;

  Outcome outcome;
  Tally tally;
  for (std::size_t i = 0; i < kWarmupPasses; ++i) {
    check_pass(run_pass(build_rig(spec, nullptr, nullptr), files), inputs,
               oracle, tally);
  }

  std::vector<Pass> plain;
  std::vector<Pass> traced;
  std::vector<obs::TraceEvent> events;       // every traced pass
  std::vector<obs::TraceEvent> last_events;  // the last one, written out
  const double start = now_seconds();
  while (now_seconds() - start < kMaxSeconds &&
         (now_seconds() - start < options.seconds ||
          plain.size() < kMinPasses)) {
    for (std::size_t i = 0; i < kSetupsPerPass; ++i) {
      setup_s.push_back(time_first_verdict(spec, first, setup_tally));
    }
    plain.push_back(run_pass(build_rig(spec, nullptr, nullptr), files));
    check_pass(plain.back(), inputs, oracle, tally);
    drop_records(plain.back());
    if (options.trace) {
      auto tracer = std::make_shared<obs::Tracer>();
      traced.push_back(run_pass(
          build_rig(spec, std::make_shared<obs::Registry>(), tracer), files));
      check_pass(traced.back(), inputs, oracle, tally);
      drop_records(traced.back());
      if (tracer->dropped() != 0) outcome.correct = false;
      last_events = tracer->collect();
      events.insert(events.end(), last_events.begin(), last_events.end());
    }
  }

  std::vector<double> wall, cpu, gpu;
  for (const auto& pass : plain) {
    wall.push_back(pass.wall_s);
    cpu.push_back(pass.cpu_s);
    gpu.push_back(pass.result.judge_gpu_seconds);
  }
  std::cout << "# " << options.workload << ": " << files.size()
            << " files/pass, " << plain.size() << " timed passes"
            << (options.trace ? " + " + std::to_string(traced.size()) +
                                    " traced"
                              : std::string())
            << "\n";

  outcome.attempted = tally.attempted + setup_tally.attempted;
  outcome.failed = tally.failed + setup_tally.failed;
  if (!options.trace) {
    outcome.add("setup_s", median(setup_s), "s");
    outcome.add("files_per_s", n_files / median(wall), "1/s");
    outcome.add("cpu_ms_per_file", median(cpu) / n_files * 1e3, "ms");
    outcome.add("sim_gpu_s_per_file", median(gpu) / n_files, "s");
    outcome.add("accuracy",
                static_cast<double>(tally.accurate) /
                    static_cast<double>(tally.attempted),
                "share");
    outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
    return outcome;
  }

  LayerValues values;
  add_program_layers(traced, events, values);
  std::vector<double> traced_wall;
  for (const auto& pass : traced) traced_wall.push_back(pass.wall_s);
  values["obs.trace_overhead"] = median(traced_wall) / median(wall);
  SpanLog log;
  replay_layers(files, kReplayMinFiles, kReplayMaxFiles, log, values);
  print_layer_table("replay spans", log.spans());
  write_spans(options, log, last_events);
  add_layer_metrics(outcome, values);
  return outcome;
}

}  // namespace perfbench
