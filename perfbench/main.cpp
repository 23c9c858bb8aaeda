// One benchmark run of one workload: set up, train to completion, print one
// JSON object on stdout. run.py starts a fresh process per run and
// aggregates them; see README.md for the metrics.
//
//   osp_perfbench --workload resnet50_osp --threads N [--seed N]
//                 [--trace-dir DIR]
//
// --threads sizes the thread pool. Without --trace-dir the run is untraced:
// the setup is timed kSetups times (the last one is kept and run) and the
// run reports host wall, host CPU and the virtual metrics. With --trace-dir the model layers, the train set and
// the sync model are wrapped in timing decorators (probes.hpp), the engine
// records its trace and telemetry, and the per-layer metrics are added to
// the output and written, with both Chrome traces, under DIR.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "probes.hpp"
#include "runtime/telemetry.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace osp;
using perfbench::Probe;
using perfbench::Probes;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSetups = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  std::size_t threads = 0;
  std::string trace_dir;  // empty: untraced
};

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    throw std::invalid_argument(flag + " expects a non-negative integer");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value);
    } else if (flag == "--threads") {
      a.threads = parse_u64(flag, value);
    } else if (flag == "--trace-dir") {
      a.trace_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.threads == 0 || a.threads > 1024) {
    throw std::invalid_argument(
        "--workload and --threads (1 to 1024) are required");
  }
  return a;
}

/// Everything one run needs, destroyed engine-first.
struct Setup {
  perfbench::Workload workload;
  std::unique_ptr<runtime::SyncModel> sync;
  std::unique_ptr<runtime::Engine> engine;
};

std::unique_ptr<Setup> set_up(const Args& args, Probes* probes) {
  auto s = std::make_unique<Setup>(
      Setup{perfbench::make_workload(args.workload, args.seed), nullptr,
            nullptr});
  runtime::WorkloadSpec& spec = s->workload.spec;
  s->sync = s->workload.make_sync();
  if (probes != nullptr) {
    spec.build_model = [build = spec.build_model, probes](std::uint64_t seed) {
      return perfbench::instrument_model(build(seed), *probes);
    };
    spec.train = std::make_shared<perfbench::TimedDataset>(spec.train, *probes);
    s->sync = std::make_unique<perfbench::TimedSync>(std::move(s->sync),
                                                     *probes);
    s->workload.config.record_trace = true;
    s->workload.config.record_telemetry = true;
  }
  s->engine =
      std::make_unique<runtime::Engine>(spec, s->workload.config, *s->sync);
  return s;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string fnv1a_hex(std::span<const float> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-layer values the telemetry and RunResult give (virtual clock).
void add_virtual_layers(const runtime::RunResult& r, util::JsonObject& out) {
  double wire = 0.0, important = 0.0, unimportant = 0.0, l2 = 0.0, lag = 0.0;
  for (const runtime::SyncTelemetry& rec : r.rounds) {
    wire += rec.wire_bytes;
    important += rec.important_bytes;
    unimportant += rec.unimportant_bytes;
    l2 += rec.lgp_correction_l2();
    lag += static_cast<double>(rec.replica_lag);
  }
  const double rounds = static_cast<double>(r.rounds.size());
  const double per_round = rounds > 0.0 ? 1.0 / rounds : 0.0;
  const double moved = important + unimportant;
  out.set("sync.rounds", r.rounds.size())
      .set("sync.wire_mb_per_round", wire * 1e-6 * per_round)
      .set("core.important_byte_share", moved > 0.0 ? important / moved : 0.0)
      .set("core.ics_budget_mb_final",
           r.rounds.empty() ? 0.0 : r.rounds.back().ics_budget_bytes * 1e-6)
      .set("core.lgp_correction_l2_mean", l2 * per_round)
      .set("runtime.bct_mean_s", r.mean_bct_s)
      .set("kv.ps_promotions", r.faults.ps_promotions)
      .set("kv.catch_up_mb", r.faults.replica_catchup_bytes * 1e-6)
      .set("kv.replica_lag_mean", lag * per_round);
}

void add_host_layers(const Probes& probes, double wall_s,
                     util::JsonObject& out) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Probe::kCount); ++i) {
    const auto p = static_cast<Probe>(i);
    const std::string stem = perfbench::probe_name(p);
    // Event-loop hooks carry "_s"; thread-summed layer time carries
    // ".busy_s" (the README's naming).
    const bool loop_hook =
        p == Probe::kGradientReady || p == Probe::kFaultHooks;
    out.set(stem + (loop_hook ? "_s" : ".busy_s"), probes.busy_s(p))
        .set(stem + ".calls", static_cast<std::size_t>(probes.calls(p)));
  }
  out.set("runtime.loop_self_s", wall_s - probes.loop_thread_probed_s());
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc);
  f << text << '\n';
  return static_cast<bool>(f);
}

int run(const Args& args) {
  util::ThreadPool pool(args.threads);
  util::ThreadPool::ScopedGlobal use_pool(pool);
  const bool traced = !args.trace_dir.empty();
  std::unique_ptr<Probes> probes;
  if (traced) probes = std::make_unique<Probes>();

  // Set-up is timed several times and the median reported; the last setup
  // is the one that runs.
  std::vector<double> setup_times;
  std::unique_ptr<Setup> setup;
  const std::size_t setups = traced ? 1 : kSetups;
  for (std::size_t k = 0; k < setups; ++k) {
    setup.reset();
    const auto t0 = Clock::now();
    setup = set_up(args, probes.get());
    setup_times.push_back(seconds_since(t0));
  }

  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const runtime::RunResult r = setup->engine->run();
  const double wall_s = seconds_since(t0);
  const double cpu_s = cpu_seconds() - cpu0;

  runtime::Engine& engine = *setup->engine;
  const auto& cfg = setup->workload.config;
  const auto& net = engine.cluster().network();
  util::JsonObject out;
  out.set("workload", args.workload)
      .set("seed", static_cast<std::size_t>(args.seed))
      .set("traced", traced)
      .set("threads", args.threads)
      .set("setup_s", median(setup_times))
      .set("host_wall_s", wall_s)
      .set("host_cpu_s", cpu_s)
      .set("samples", r.total_samples)
      .set("epochs_completed", r.epoch_losses.size())
      .set("max_epochs", cfg.max_epochs)
      .set("target_metric", setup->workload.spec.target_metric)
      .set("target_reached", r.time_to_target_s.has_value())
      .set("param_hash", fnv1a_hex(engine.global_params()))
      .set("virt_time_to_target_s", r.time_to_target_s.value_or(0.0))
      .set("virt_total_time_s", r.total_time_s)
      .set("virt_throughput_sps", r.throughput)
      .set("virt_steady_throughput_sps", r.steady_throughput)
      .set("virt_bst_mean_s", r.mean_bst_s)
      .set("virt_bst_p99_s", r.p99_bst_s)
      .set("best_metric", r.best_metric)
      .set("final_loss", r.final_loss)
      .set("sim.events", static_cast<std::size_t>(engine.sim().events_processed()))
      .set("net.solves", static_cast<std::size_t>(net.solve_stats().solves))
      .set("net.full_solves",
           static_cast<std::size_t>(net.solve_stats().full_solves))
      .set("net.flow_visits",
           static_cast<std::size_t>(net.solve_stats().flow_visits))
      .set("net.bytes_delivered_mb", net.bytes_delivered() * 1e-6)
      .set("runtime.math_replicas", engine.math_replicas());

  const std::string stem = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  bool files_ok = true;
  if (traced) {
    add_virtual_layers(r, out);
    engine.trace().write_chrome_json(stem + ".virtual_trace.json");
    files_ok = runtime::write_telemetry_jsonl(stem + ".telemetry.jsonl",
                                              r.rounds);
  }
  // Tear the engine down (joining any abandoned math) before the probe
  // totals are read.
  setup.reset();
  if (traced) {
    add_host_layers(*probes, wall_s, out);
    files_ok = files_ok &&
               probes->write_chrome_trace(stem + ".host_trace.json") &&
               write_text(stem + ".layers.json", out.str());
  }
  if (!files_ok) {
    std::cerr << "cannot write trace files under " << args.trace_dir << "\n";
    return 1;
  }
  out.set("peak_rss_mb", peak_rss_mb());
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "osp_perfbench: " << e.what() << "\n";
    return 2;
  }
}
