// llm4vv-serve: the persistent validation service (docs/SERVING.md).
//
// Server mode (default): bind a loopback TCP socket, accept line-delimited
// JSON validation jobs from many tenants, run them through the same
// compile -> execute -> judge pipeline the batch CLI uses (misses coalesce
// in the model client's adaptive batcher), and stream verdicts back.
// Admission control sheds work per tenant (token-bucket rate, in-flight
// quota) and the weighted fair scheduler divides service between tenants.
// SIGTERM / SIGINT / a client "shutdown" op starts a graceful drain: stop
// accepting, finish every accepted job, flush, export telemetry, exit 0.
//
//   llm4vv-serve --port 7733 --workers 2
//       --tenants "gold:0:8:0:3,free:50:8:4:1"
//       --metrics-dump --trace-out serve_trace.json      (one command line)
//
//   --host <a> --port <p>    bind address (default 127.0.0.1:0 = ephemeral)
//   --port-file <path>       write the bound port (CI discovers ephemeral
//                            ports through this)
//   --workers <n>            dispatcher workers (default 2)
//   --job-batch <n>          jobs per scheduler pop (default 4)
//   --max-queued <n>         scheduler backlog bound (default 1024)
//   --concurrency <n>        simulated model concurrency cap (default 4)
//   --batch-max <n> --batch-window-us <t>   adaptive batcher knobs
//   --no-judge-cache         disable the judge memo cache (every job pays
//                            a model call; keeps load tests honest)
//   --judge-seed <s>         judge sampling seed
//   --rate/--burst/--quota/--weight        default-tenant admission knobs
//   --tenants "name:rate:burst:quota:weight,..."  per-tenant overrides
//   --trace-out/--trace-jsonl/--metrics-dump      shared obs flags
//
// Load-generator mode (--load-gen): the matching serve::Client driven as a
// closed- or open-loop workload, reporting a flat JSON summary on stdout
// (jobs_per_s, p50/p90/p99 latency, per-tenant completion spread) that CI
// gates with jq.
//
//   llm4vv-serve --load-gen --port-file /tmp/port
//       --gen-tenants "gold,free" --clients 2 --jobs 8 --shutdown
//                                                         (one command line)
//
//   --gen-mode closed|open   closed: submit, wait, repeat (default);
//                            open: paced sender + concurrent reader
//   --gen-tenants "a,b"      one tenant name per comma (default "bench")
//   --clients <n>            connections per tenant (default 1)
//   --jobs <n>               jobs per connection (default 8)
//   --open-rate <r>          open-loop pace per connection, jobs/s
//   --unique                 make every payload distinct (defeats the
//                            server-side judge cache)
//   --timeout-ms <t>         per-response wait bound (default 30000)
//   --shutdown               after the run, send the shutdown op and wait
//                            for the drain; exit 3 unless it closes clean
#include <csignal>
#include <cstdio>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/llm4vv.hpp"
#include "examples/obs_flags.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/cli.hpp"
#include "support/jsonl.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"

namespace {

using namespace llm4vv;

// Self-pipe for SIGTERM/SIGINT: the handler only writes a byte; a watcher
// thread turns it into Server::request_drain() (which takes locks and so
// must not run in the handler itself).
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  (void)!write(g_signal_pipe[1], &byte, 1);
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string piece = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!piece.empty()) out.push_back(piece);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// "name:rate:burst:quota:weight" with trailing fields optional.
bool parse_tenant_spec(const std::string& spec, std::string& name,
                       serve::TenantConfig& config) {
  const auto parts = support::split(spec, ':');
  if (parts.empty() || parts[0].empty()) return false;
  name = parts[0];
  try {
    if (parts.size() > 1 && !parts[1].empty()) {
      config.rate_per_sec = std::stod(parts[1]);
    }
    if (parts.size() > 2 && !parts[2].empty()) {
      config.burst = std::stod(parts[2]);
    }
    if (parts.size() > 3 && !parts[3].empty()) {
      config.max_in_flight = static_cast<std::size_t>(std::stoul(parts[3]));
    }
    if (parts.size() > 4 && !parts[4].empty()) {
      config.weight = static_cast<std::uint32_t>(std::stoul(parts[4]));
    }
  } catch (const std::exception&) {
    return false;
  }
  return parts.size() <= 5;
}

/// A small deterministic pool of valid generated tests to submit as jobs.
std::vector<frontend::SourceFile> make_job_pool(std::size_t count) {
  corpus::GeneratorConfig gen;
  gen.flavor = frontend::Flavor::kOpenACC;
  gen.count = count;
  gen.seed = 91;
  std::vector<frontend::SourceFile> files;
  for (const auto& test_case : corpus::generate_suite(gen).cases) {
    files.push_back(test_case.file);
  }
  return files;
}

std::uint64_t percentile(std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(rank + 0.5)];
}

std::uint16_t resolve_port(const support::CliArgs& args) {
  const std::string port_file = args.get("port-file", "");
  if (!port_file.empty() && !args.has("port")) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0 && port < 65536) {
      return static_cast<std::uint16_t>(port);
    }
    std::fprintf(stderr, "llm4vv-serve: cannot read port from %s\n",
                 port_file.c_str());
    return 0;
  }
  return static_cast<std::uint16_t>(args.get_int("port", 0));
}

// --- load generator ---------------------------------------------------------

struct TenantLoadResult {
  std::string tenant;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< verdict responses
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;     ///< error terminals + transport failures
  std::vector<std::uint64_t> latencies_us;  ///< terminal responses only
};

void merge_into(TenantLoadResult& into, const TenantLoadResult& from) {
  into.submitted += from.submitted;
  into.completed += from.completed;
  into.shed += from.shed;
  into.errors += from.errors;
  into.latencies_us.insert(into.latencies_us.end(), from.latencies_us.begin(),
                           from.latencies_us.end());
}

frontend::SourceFile job_payload(const std::vector<frontend::SourceFile>& pool,
                                 std::uint64_t index, bool unique) {
  frontend::SourceFile file = pool[index % pool.size()];
  if (unique) {
    file.content += "\n// load-gen job " + std::to_string(index) + "\n";
  }
  return file;
}

TenantLoadResult run_closed_loop(const std::string& host, std::uint16_t port,
                                 const std::string& tenant,
                                 const std::vector<frontend::SourceFile>& pool,
                                 std::size_t jobs, bool unique,
                                 std::uint64_t id_base, int timeout_ms) {
  TenantLoadResult result;
  result.tenant = tenant;
  serve::Client client;
  if (!client.connect(host, port, tenant)) {
    std::fprintf(stderr, "load-gen: connect failed: %s\n",
                 client.last_error().c_str());
    result.errors += jobs;
    return result;
  }
  for (std::size_t j = 0; j < jobs; ++j) {
    const std::uint64_t id = id_base + j;
    const auto file = job_payload(pool, id, unique);
    const std::uint64_t sent_us = support::now_us();
    ++result.submitted;
    const auto response = client.submit_and_wait(id, file, timeout_ms);
    if (!response.has_value()) {
      ++result.errors;
      break;  // transport failure or timeout: this connection is done
    }
    result.latencies_us.push_back(support::now_us() - sent_us);
    switch (response->type) {
      case serve::ResponseType::kVerdict: ++result.completed; break;
      case serve::ResponseType::kShed: ++result.shed; break;
      default: ++result.errors; break;
    }
  }
  return result;
}

TenantLoadResult run_open_loop(const std::string& host, std::uint16_t port,
                               const std::string& tenant,
                               const std::vector<frontend::SourceFile>& pool,
                               std::size_t jobs, double rate_per_sec,
                               bool unique, std::uint64_t id_base,
                               int timeout_ms) {
  TenantLoadResult result;
  result.tenant = tenant;
  serve::Client client;
  if (!client.connect(host, port, tenant)) {
    std::fprintf(stderr, "load-gen: connect failed: %s\n",
                 client.last_error().c_str());
    result.errors += jobs;
    return result;
  }
  // One paced sender, one reader — the two-thread split serve::Client
  // supports. Send times are shared through a plain mutex-guarded map.
  std::mutex sent_mutex;
  std::vector<std::uint64_t> sent_us(jobs, 0);
  std::atomic<bool> send_failed{false};
  const std::uint64_t interval_us =
      rate_per_sec > 0.0
          ? static_cast<std::uint64_t>(1'000'000.0 / rate_per_sec)
          : 0;
  std::thread sender([&] {
    const std::uint64_t start_us = support::now_us();
    for (std::size_t j = 0; j < jobs; ++j) {
      const std::uint64_t due_us = start_us + j * interval_us;
      while (support::now_us() < due_us) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const auto file = job_payload(pool, id_base + j, unique);
      {
        std::lock_guard<std::mutex> lock(sent_mutex);
        sent_us[j] = support::now_us();
      }
      if (!client.send_submit(id_base + j, file)) {
        send_failed.store(true);
        return;
      }
    }
  });
  std::size_t terminals = 0;
  while (terminals < jobs && !send_failed.load()) {
    const auto response = client.next_response(timeout_ms);
    if (!response.has_value()) break;  // timeout, EOF, or transport error
    if (!response->terminal() || !response->has_id) continue;
    const std::uint64_t id = response->id;
    if (id < id_base || id >= id_base + jobs) continue;
    ++terminals;
    std::uint64_t send_time;
    {
      std::lock_guard<std::mutex> lock(sent_mutex);
      send_time = sent_us[id - id_base];
    }
    result.latencies_us.push_back(support::now_us() - send_time);
    switch (response->type) {
      case serve::ResponseType::kVerdict: ++result.completed; break;
      case serve::ResponseType::kShed: ++result.shed; break;
      default: ++result.errors; break;
    }
  }
  sender.join();
  result.submitted = jobs;
  // Jobs that never got a terminal response (drain shed on a closed
  // connection, timeout) count as errors from the load-gen's viewpoint.
  result.errors += jobs - terminals;
  return result;
}

int run_load_gen(const support::CliArgs& args) {
  const std::string host = args.get("host", "127.0.0.1");
  const std::uint16_t port = resolve_port(args);
  if (port == 0) {
    std::fprintf(stderr, "load-gen: need --port or --port-file\n");
    return 2;
  }
  const std::string mode = args.get("gen-mode", "closed");
  const auto tenants = split_csv(args.get("gen-tenants", "bench"));
  const std::size_t clients =
      static_cast<std::size_t>(args.get_int("clients", 1));
  const std::size_t jobs = static_cast<std::size_t>(args.get_int("jobs", 8));
  const double open_rate = args.get_double("open-rate", 50.0);
  const bool unique = args.has("unique");
  const int timeout_ms = static_cast<int>(args.get_int("timeout-ms", 30000));
  const auto pool = make_job_pool(16);

  std::vector<TenantLoadResult> tenant_results;
  for (const auto& tenant : tenants) {
    TenantLoadResult merged;
    merged.tenant = tenant;
    tenant_results.push_back(merged);
  }
  std::mutex results_mutex;
  std::vector<std::thread> threads;
  support::Stopwatch wall;
  std::uint64_t id_base = 1;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (std::size_t c = 0; c < clients; ++c) {
      const std::uint64_t base = id_base;
      id_base += jobs;
      threads.emplace_back([&, t, base] {
        const auto result =
            mode == "open"
                ? run_open_loop(host, port, tenants[t], pool, jobs, open_rate,
                                unique, base, timeout_ms)
                : run_closed_loop(host, port, tenants[t], pool, jobs, unique,
                                  base, timeout_ms);
        std::lock_guard<std::mutex> lock(results_mutex);
        merge_into(tenant_results[t], result);
      });
    }
  }
  for (auto& thread : threads) thread.join();
  const double wall_s = wall.seconds();

  TenantLoadResult totals;
  std::uint64_t tenant_min_completed = ~0ULL;
  std::uint64_t tenant_max_completed = 0;
  for (const auto& result : tenant_results) {
    merge_into(totals, result);
    tenant_min_completed = std::min(tenant_min_completed, result.completed);
    tenant_max_completed = std::max(tenant_max_completed, result.completed);
  }
  if (tenant_results.empty()) tenant_min_completed = 0;
  std::sort(totals.latencies_us.begin(), totals.latencies_us.end());

  bool clean_drain = true;
  if (args.has("shutdown")) {
    clean_drain = false;
    serve::Client control;
    if (control.connect(host, port) && control.send_shutdown()) {
      // Expect draining (already consumed as our first frame or not), then
      // bye, then EOF. Clean = we saw the bye or a clean close in time.
      for (;;) {
        const auto response = control.next_response(timeout_ms);
        if (!response.has_value()) {
          clean_drain = control.last_error() == "eof";
          break;
        }
        if (response->type == serve::ResponseType::kBye) {
          clean_drain = true;
          break;
        }
      }
    }
  }

  const std::string summary =
      support::JsonObject()
          .field("mode", mode)
          .field("tenants", static_cast<std::int64_t>(tenants.size()))
          .field("clients", static_cast<std::int64_t>(clients))
          .field("submitted", static_cast<std::int64_t>(totals.submitted))
          .field("completed", static_cast<std::int64_t>(totals.completed))
          .field("shed", static_cast<std::int64_t>(totals.shed))
          .field("errors", static_cast<std::int64_t>(totals.errors))
          .field("wall_s", wall_s)
          .field("jobs_per_s",
                 wall_s > 0.0
                     ? static_cast<double>(totals.completed + totals.shed) /
                           wall_s
                     : 0.0)
          .field("p50_us", static_cast<std::int64_t>(
                               percentile(totals.latencies_us, 0.50)))
          .field("p90_us", static_cast<std::int64_t>(
                               percentile(totals.latencies_us, 0.90)))
          .field("p99_us", static_cast<std::int64_t>(
                               percentile(totals.latencies_us, 0.99)))
          .field("tenant_min_completed",
                 static_cast<std::int64_t>(tenant_min_completed))
          .field("tenant_max_completed",
                 static_cast<std::int64_t>(tenant_max_completed))
          .field("clean_drain", clean_drain)
          .str();
  std::printf("%s\n", summary.c_str());
  return clean_drain ? 0 : 3;
}

// --- server -----------------------------------------------------------------

int run_server(const support::CliArgs& args,
               const examples::ObsFlags& obs_flags) {
  serve::ServerConfig config;
  config.host = args.get("host", "127.0.0.1");
  config.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  config.workers = static_cast<std::size_t>(args.get_int("workers", 2));
  config.job_batch = static_cast<std::size_t>(args.get_int("job-batch", 4));
  config.max_queued =
      static_cast<std::size_t>(args.get_int("max-queued", 1024));
  config.judge_seed =
      static_cast<std::uint64_t>(args.get_int("judge-seed", 0));
  config.default_tenant.rate_per_sec = args.get_double("rate", 0.0);
  config.default_tenant.burst = args.get_double("burst", 8.0);
  config.default_tenant.max_in_flight =
      static_cast<std::size_t>(args.get_int("quota", 0));
  config.default_tenant.weight =
      static_cast<std::uint32_t>(args.get_int("weight", 1));
  for (const auto& spec : split_csv(args.get("tenants", ""))) {
    std::string name;
    serve::TenantConfig tenant = config.default_tenant;
    if (!parse_tenant_spec(spec, name, tenant)) {
      std::fprintf(stderr, "llm4vv-serve: bad --tenants entry '%s'\n",
                   spec.c_str());
      return 2;
    }
    config.tenants.emplace_back(name, tenant);
  }
  auto registry = std::make_shared<obs::Registry>();
  config.registry = registry;
  config.trace = obs_flags.tracer();

  llm::BatcherConfig batcher;
  batcher.max_batch = static_cast<std::size_t>(args.get_int("batch-max", 4));
  batcher.window_us =
      static_cast<std::uint64_t>(args.get_int("batch-window-us", 0));
  auto client = core::make_simulated_client(
      static_cast<std::size_t>(args.get_int("concurrency", 4)), batcher);
  if (obs_flags.wants_trace()) client->set_tracer(obs_flags.tracer());
  client->register_metrics(*registry, "serve.llm.client");
  judge::JudgeCacheConfig judge_cache;
  judge_cache.enabled = !args.has("no-judge-cache");
  auto judge = std::make_shared<const judge::Llmj>(
      client, llm::PromptStyle::kAgentDirect, judge_cache);

  serve::Server server(toolchain::CompilerDriver(toolchain::nvc_persona()),
                       toolchain::Executor(), judge, config);
  server.start();
  std::fprintf(stderr, "llm4vv-serve: listening on %s:%u (%zu workers)\n",
               config.host.c_str(), server.port(), config.workers);
  const std::string port_file = args.get("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << server.port() << "\n";
  }

  // Signal watcher: turn SIGTERM/SIGINT bytes into a graceful drain.
  std::atomic<bool> watcher_exit{false};
  std::thread watcher([&] {
    char buf[16];
    while (read(g_signal_pipe[0], buf, sizeof buf) > 0) {
      if (watcher_exit.load()) return;
      std::fprintf(stderr, "llm4vv-serve: signal received, draining\n");
      server.request_drain();
    }
  });

  server.wait();  // blocks until a drain (signal or shutdown op) completes
  watcher_exit.store(true);
  on_signal(0);  // wake the watcher so it can exit
  watcher.join();

  const auto stats = server.stats();
  const auto totals = server.tenants().totals();
  std::fprintf(stderr,
               "llm4vv-serve: drained. %llu connections, %llu lines in, "
               "%llu responses out; jobs: %llu submitted, %llu accepted, "
               "%llu shed, %llu ok, %llu failed, %llu in flight\n",
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.lines_in),
               static_cast<unsigned long long>(stats.responses_out),
               static_cast<unsigned long long>(totals.submitted),
               static_cast<unsigned long long>(totals.accepted),
               static_cast<unsigned long long>(totals.shed_total()),
               static_cast<unsigned long long>(totals.completed_ok),
               static_cast<unsigned long long>(totals.completed_error),
               static_cast<unsigned long long>(totals.in_flight));
  if (!obs_flags.finish(registry.get())) return 1;
  return totals.in_flight == 0 ? 0 : 4;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  const support::CliArgs args(argc, argv);
  if (args.has("load-gen")) return run_load_gen(args);

  if (pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "llm4vv-serve: pipe() failed\n");
    return 1;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  const auto obs_flags = examples::ObsFlags::parse(args);
  try {
    return run_server(args, obs_flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "llm4vv-serve: fatal: %s\n", e.what());
    return 1;
  }
}
