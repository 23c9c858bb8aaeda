// Micro-benchmarks (google-benchmark): the discrete-event core and the
// max-min fair-share network model — event throughput, rate recomputation
// under churn, and push/pull round-trip traffic at cluster scale.
//
// Besides the console table, the run writes
// bench_out/BENCH_micro_network.json (override with OSP_BENCH_JSON): one
// record per benchmark with ns/op, events/sec, and the rate solver's
// flow-visit counters measured twice — once with the from-scratch
// reference solver ("before") and once with the incremental
// connected-component solver ("after") — so successive PRs can diff
// simulator performance mechanically.
//
// On topology and the visit ratio: a single shared PS couples every
// concurrent flow through the PS ingress/egress link into one connected
// component, so each solve legitimately spans everything (that coupling
// *is* the incast effect) and the reference/incremental visit ratio stays
// near 1. The incremental solver's reduction appears when traffic has
// component structure: in sharded/multi-PS deployments with racks (each
// rack with its own PS — the configuration the paper's §6 multi-PS
// experiments and bench_ext_scaling §6.1b sweep model) each rack's push
// set and pull set is an independent component, and the solver skips the
// rest of the cluster.
//
// A shared PS still leaves work to save, in the number of solves: the
// network solves rates once per event callback, not once per flow change.
// FanOutRound models the mlp256_osp_psfail traffic — every worker crosses
// every PS shard, and each shard answers all workers from one callback —
// and reports solves next to the flows started: N answers cost one solve.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/gib.hpp"
#include "core/pgp.hpp"
#include "sim/cluster.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace osp;

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule(static_cast<double>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
  state.counters["events_per_s"] = benchmark::Counter(
      10000.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_NetworkFlowChurn(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Network net(sim);
    const sim::LinkId l = net.add_link(1e9);
    for (std::size_t f = 0; f < flows; ++f) {
      net.start_flow({l}, 1e6 * static_cast<double>(f + 1), nullptr);
    }
    events = sim.run();
    benchmark::DoNotOptimize(net.bytes_delivered());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows));
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_NetworkFlowChurn)->Arg(8)->Arg(64)->Arg(256);

// ---- push/pull round-trip churn at cluster scale ------------------------

/// A rack-structured parameter-server workload driven straight against the
/// Network: `racks` independent PSes, `workers_per_rack` workers each doing
/// `rounds` push→pull round trips with deterministic per-worker stagger
/// (modeling compute jitter). Every worker and PS gets its own up/down
/// link, as in sim::Cluster's topology.
class RoundTripHarness {
 public:
  RoundTripHarness(std::size_t racks, std::size_t workers_per_rack,
                   std::size_t rounds, bool reference_solver)
      : net_(sim_) {
    net_.set_use_reference_solver(reference_solver);
    const double bw = sim::gbps_to_bytes_per_sec(10.0);
    constexpr double kLatency = 50e-6;
    constexpr double kAlpha = 0.03;
    std::vector<std::pair<sim::LinkId, sim::LinkId>> ps;  // up, down
    ps.reserve(racks);
    for (std::size_t r = 0; r < racks; ++r) {
      const sim::LinkId up = net_.add_link(bw, kLatency, 0.0, kAlpha);
      const sim::LinkId down = net_.add_link(bw, kLatency, 0.0, kAlpha);
      ps.emplace_back(up, down);
    }
    workers_.reserve(racks * workers_per_rack);
    for (std::size_t r = 0; r < racks; ++r) {
      for (std::size_t w = 0; w < workers_per_rack; ++w) {
        const sim::LinkId up = net_.add_link(bw, kLatency);
        const sim::LinkId down = net_.add_link(bw, kLatency);
        Worker& wk = workers_.emplace_back();
        wk.push_route = {up, ps[r].second};
        wk.pull_route = {ps[r].first, down};
        wk.rounds_left = rounds;
      }
    }
    // Shard the model across the rack's workers: each pushes its slice.
    bytes_per_transfer_ = 80e6 / static_cast<double>(workers_per_rack);
  }

  void run() {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      sim_.schedule(static_cast<double>(w) * 13e-6,
                    [this, w] { start_push(w); });
    }
    sim_.run();
  }

  [[nodiscard]] const sim::Network::SolveStats& stats() const {
    return net_.solve_stats();
  }
  [[nodiscard]] std::uint64_t events() const {
    return sim_.events_processed();
  }
  [[nodiscard]] double makespan() const { return sim_.now(); }

 private:
  struct Worker {
    std::vector<sim::LinkId> push_route;
    std::vector<sim::LinkId> pull_route;
    std::size_t rounds_left = 0;
  };

  void start_push(std::size_t w) {
    net_.start_flow(workers_[w].push_route, bytes_per_transfer_,
                    [this, w] { start_pull(w); });
  }

  void start_pull(std::size_t w) {
    net_.start_flow(workers_[w].pull_route, bytes_per_transfer_,
                    [this, w] { round_done(w); });
  }

  void round_done(std::size_t w) {
    if (--workers_[w].rounds_left == 0) return;
    // Deterministic pseudo-jitter: compute time varies per worker/round.
    const std::uint64_t h =
        w * 2654435761ULL + workers_[w].rounds_left * 40503ULL;
    sim_.schedule(200e-6 + static_cast<double>(h % 97) * 7e-6,
                  [this, w] { start_push(w); });
  }

  sim::Simulator sim_;
  sim::Network net_;
  std::vector<Worker> workers_;
  double bytes_per_transfer_ = 0.0;
};

struct ChurnRun {
  std::uint64_t flow_visits = 0;
  std::uint64_t solves = 0;
  std::uint64_t full_solves = 0;
  std::uint64_t events = 0;
  double makespan = 0.0;
};

ChurnRun run_round_trips(std::size_t racks, std::size_t workers_per_rack,
                         std::size_t rounds, bool reference_solver) {
  // Heap-allocate: the harness self-references through event captures.
  auto h = std::make_unique<RoundTripHarness>(racks, workers_per_rack, rounds,
                                              reference_solver);
  h->run();
  return {h->stats().flow_visits, h->stats().solves, h->stats().full_solves,
          h->events(), h->makespan()};
}

/// Args: {racks, workers_per_rack}. The timed body runs the shipped
/// (incremental) solver; the before/after flow-visit counters come from
/// one untimed run of each solver on the identical workload.
void BM_RoundTripChurn(benchmark::State& state) {
  const auto racks = static_cast<std::size_t>(state.range(0));
  const auto wpr = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kRounds = 4;
  const ChurnRun after = run_round_trips(racks, wpr, kRounds, false);
  const ChurnRun before = run_round_trips(racks, wpr, kRounds, true);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const ChurnRun r = run_round_trips(racks, wpr, kRounds, false);
    events = r.events;
    benchmark::DoNotOptimize(r.makespan);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["workers"] = benchmark::Counter(
      static_cast<double>(racks * wpr));
  state.counters["solves"] =
      benchmark::Counter(static_cast<double>(after.solves));
  state.counters["visits_reference"] =
      benchmark::Counter(static_cast<double>(before.flow_visits));
  state.counters["visits_incremental"] =
      benchmark::Counter(static_cast<double>(after.flow_visits));
  state.counters["visit_ratio"] = benchmark::Counter(
      static_cast<double>(before.flow_visits) /
      static_cast<double>(after.flow_visits));
}
BENCHMARK(BM_RoundTripChurn)
    ->Args({1, 8})    // the paper's 8-worker testbed, one PS
    ->Args({1, 32})   // 32 workers on one PS: fully coupled, ratio ~1
    ->Args({4, 8})    // 32 workers sharded across 4 PSes
    ->Args({16, 8})   // 128 workers
    ->Args({32, 8});  // 256 workers

// ---- same-callback fan-out at 256 workers -------------------------------

/// The mlp256_osp_psfail traffic pattern driven straight against the
/// Network: `workers` workers each push one slice to each of `shards` PS
/// shards from one callback; a shard that holds every worker's slice
/// answers all workers from one callback; a worker with every answer
/// computes (deterministic jitter) and pushes again, for `rounds` rounds.
/// Every flow crosses a PS link, so every solve spans all flows in flight.
class FanOutHarness {
 public:
  FanOutHarness(std::size_t workers, std::size_t shards, std::size_t rounds,
                bool reference_solver)
      : net_(sim_), rounds_(rounds) {
    net_.set_use_reference_solver(reference_solver);
    const double bw = sim::gbps_to_bytes_per_sec(10.0);
    constexpr double kLatency = 50e-6;
    constexpr double kAlpha = 0.03;
    for (std::size_t p = 0; p < shards; ++p) {
      Shard& sh = shards_.emplace_back();
      sh.up = net_.add_link(bw, kLatency, 0.0, kAlpha);
      sh.down = net_.add_link(bw, kLatency, 0.0, kAlpha);
    }
    for (std::size_t w = 0; w < workers; ++w) {
      Worker& wk = workers_.emplace_back();
      wk.up = net_.add_link(bw, kLatency);
      wk.down = net_.add_link(bw, kLatency);
    }
    // A 4 MB model (tiny_mlp's real_param_bytes) split across the shards.
    slice_bytes_ = 4e6 / static_cast<double>(shards);
  }

  void run() {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      sim_.schedule(jitter(w, 0), [this, w] { push(w); });
    }
    sim_.run();
  }

  [[nodiscard]] const sim::Network::SolveStats& stats() const {
    return net_.solve_stats();
  }
  [[nodiscard]] std::uint64_t events() const {
    return sim_.events_processed();
  }
  [[nodiscard]] std::uint64_t flows() const { return flows_; }
  [[nodiscard]] double makespan() const { return sim_.now(); }

 private:
  struct Worker {
    sim::LinkId up = 0;
    sim::LinkId down = 0;
    std::size_t answers = 0;
    std::size_t round = 0;
  };
  struct Shard {
    sim::LinkId up = 0;
    sim::LinkId down = 0;
    std::size_t pushes = 0;
  };

  [[nodiscard]] static double jitter(std::size_t w, std::size_t round) {
    const std::uint64_t h = w * 2654435761ULL + round * 40503ULL;
    return 1e-3 + static_cast<double>(h % 97) * 20e-6;
  }

  void push(std::size_t w) {
    for (std::size_t p = 0; p < shards_.size(); ++p) {
      ++flows_;
      net_.start_flow({workers_[w].up, shards_[p].down}, slice_bytes_,
                      [this, p] { pushed(p); });
    }
  }

  void pushed(std::size_t p) {
    if (++shards_[p].pushes < workers_.size()) return;
    shards_[p].pushes = 0;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      ++flows_;
      net_.start_flow({shards_[p].up, workers_[w].down}, slice_bytes_,
                      [this, w] { answered(w); });
    }
  }

  void answered(std::size_t w) {
    Worker& wk = workers_[w];
    if (++wk.answers < shards_.size()) return;
    wk.answers = 0;
    if (++wk.round == rounds_) return;
    sim_.schedule(jitter(w, wk.round), [this, w] { push(w); });
  }

  sim::Simulator sim_;
  sim::Network net_;
  std::vector<Worker> workers_;
  std::vector<Shard> shards_;
  std::size_t rounds_ = 0;
  double slice_bytes_ = 0.0;
  std::uint64_t flows_ = 0;
};

/// Args: {workers, shards}. Timed body and counters as in RoundTripChurn.
/// `flows` is the number of flows started: solving at every flow change
/// would take 2·flows solves (one per start, one per completion); `solves`
/// shows what one solve per event callback takes.
void BM_FanOutRound(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kRounds = 2;
  auto run = [&](bool reference) {
    auto h = std::make_unique<FanOutHarness>(workers, shards, kRounds,
                                             reference);
    h->run();
    return h;
  };
  const auto after = run(false);
  const auto before = run(true);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto h = run(false);
    events = h->events();
    benchmark::DoNotOptimize(h->makespan());
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["workers"] = benchmark::Counter(static_cast<double>(workers));
  state.counters["flows"] =
      benchmark::Counter(static_cast<double>(after->flows()));
  state.counters["solves"] =
      benchmark::Counter(static_cast<double>(after->stats().solves));
  state.counters["visits_reference"] = benchmark::Counter(
      static_cast<double>(before->stats().flow_visits));
  state.counters["visits_incremental"] = benchmark::Counter(
      static_cast<double>(after->stats().flow_visits));
  state.counters["visit_ratio"] = benchmark::Counter(
      static_cast<double>(before->stats().flow_visits) /
      static_cast<double>(after->stats().flow_visits));
}
BENCHMARK(BM_FanOutRound)
    ->Args({256, 4});  // mlp256_osp_psfail: 256 workers on 4 PS shards

void BM_IncastRound(benchmark::State& state) {
  // One BSP-style round: 8 pushes into the PS + 8 responses.
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::ClusterConfig cfg;
    cfg.num_workers = 8;
    sim::Cluster cluster(sim, cfg);
    int arrived = 0;
    for (std::size_t w = 0; w < 8; ++w) {
      cluster.network().start_flow(cluster.route_to_ps(w), 100e6,
                                   [&arrived] { ++arrived; });
    }
    sim.run();
    for (std::size_t w = 0; w < 8; ++w) {
      cluster.network().start_flow(cluster.route_from_ps(w), 100e6,
                                   [&arrived] { ++arrived; });
    }
    sim.run();
    events = sim.events_processed();
    benchmark::DoNotOptimize(arrived);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_IncastRound);

void BM_PgpRanking(benchmark::State& state) {
  // PGP importance + sort over a model-sized flat vector.
  const auto params_count = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<float> params(params_count), grads(params_count);
  for (float& v : params) v = static_cast<float>(rng.normal());
  for (float& v : grads) v = static_cast<float>(rng.normal());
  std::vector<nn::LayerBlockInfo> blocks;
  const std::size_t block_size = params_count / 16;
  for (std::size_t b = 0; b < 16; ++b) {
    blocks.push_back({"b" + std::to_string(b), b * block_size, block_size});
  }
  std::vector<double> bytes(16, static_cast<double>(block_size) * 4.0);
  for (auto _ : state) {
    auto imp = core::density_normalize(
        core::pgp_importance(params, grads, blocks), blocks);
    auto gib = core::Gib::from_ranking(core::rank_ascending(imp), bytes,
                                       static_cast<double>(params_count) * 2.0);
    benchmark::DoNotOptimize(gib.count_important());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(params_count));
}
BENCHMARK(BM_PgpRanking)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace

int main(int argc, char** argv) {
  // Every record names the pool size it ran with (OSP_NUM_THREADS), as the
  // tensor micro-bench's do; the network model itself is single-threaded.
  const auto threads =
      static_cast<double>(osp::util::ThreadPool::global().size());
  return osp::bench::run_benchmarks_with_json(
      argc, argv, "bench_out/BENCH_micro_network.json",
      /*always_emit_gflops=*/false, {{"threads", threads}});
}
