// Discrete-event simulator, flow-network, and cluster tests — including
// analytic checks of max-min fair sharing, incast collapse, loss inflation,
// and the compute-time model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace osp::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(3.0, [&] { order.push_back(3); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] { order.push_back(0); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, HandlersCanScheduleMore) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.schedule(1.0, chain);
  };
  sim.schedule(1.0, chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(5.0, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(2.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(0.5, [] {}), util::CheckError);
  EXPECT_THROW(sim.schedule(-1.0, [] {}), util::CheckError);
}

TEST(Simulator, ReservedSeqKeepsItsTieOrder) {
  Simulator sim;
  std::vector<int> order;
  const std::uint64_t seq = sim.reserve_seq();
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, seq, [&] { order.push_back(0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_THROW(sim.schedule_at(2.0, sim.reserve_seq() + 1, [] {}),
               util::CheckError);
}

TEST(Simulator, BeforeEventHookRunsBeforeEveryPop) {
  Simulator sim;
  int hooks = 0;
  sim.set_before_event_hook([&] { ++hooks; });
  EXPECT_THROW(sim.set_before_event_hook([] {}), util::CheckError);
  sim.schedule(1.0, [] {});
  sim.schedule(2.0, [] {});
  sim.schedule(5.0, [] {});
  sim.run_until(3.0);
  EXPECT_EQ(hooks, 3);  // before each of two pops, and before the deadline
  sim.set_before_event_hook({});
  sim.run();
  EXPECT_EQ(hooks, 3);
}

TEST(Simulator, ClearDropsPending) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  sim.clear();
  EXPECT_TRUE(sim.empty());
}

TEST(Network, SingleFlowTransferTime) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0, 0.5);  // 1000 B/s, 0.5 s latency
  double done_at = -1.0;
  net.start_flow({l}, 2000.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 2.0 + 0.5, 1e-9);  // 2 s transfer + 0.5 s latency
}

TEST(Network, ZeroByteFlowIsLatencyOnly) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0, 0.25);
  double done_at = -1.0;
  net.start_flow({l}, 0.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 0.25, 1e-12);
}

TEST(Network, TwoFlowsShareFairly) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  std::vector<double> done(2, -1.0);
  net.start_flow({l}, 1000.0, [&] { done[0] = sim.now(); });
  net.start_flow({l}, 1000.0, [&] { done[1] = sim.now(); });
  sim.run();
  // Both at 500 B/s → both finish at 2 s.
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_NEAR(done[1], 2.0, 1e-9);
}

TEST(Network, ShortFlowFinishesThenLongSpeedsUp) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  double short_done = -1.0, long_done = -1.0;
  net.start_flow({l}, 500.0, [&] { short_done = sim.now(); });
  net.start_flow({l}, 1500.0, [&] { long_done = sim.now(); });
  sim.run();
  // Phase 1: both at 500 B/s. Short (500 B) done at t=1. Long has 1000 B
  // left, now alone at 1000 B/s → done at t=2.
  EXPECT_NEAR(short_done, 1.0, 1e-9);
  EXPECT_NEAR(long_done, 2.0, 1e-9);
}

TEST(Network, MaxMinFairnessAcrossTwoLinks) {
  // Flow A crosses links 1 and 2; flow B crosses link 1; flow C crosses
  // link 2. Link 1 cap 100, link 2 cap 200. Max-min: A and B bottleneck on
  // link 1 (50 each); C gets 200−50 = 150.
  Simulator sim;
  Network net(sim);
  const LinkId l1 = net.add_link(100.0);
  const LinkId l2 = net.add_link(200.0);
  FlowId a = net.start_flow({l1, l2}, 1e9, nullptr);
  FlowId b = net.start_flow({l1}, 1e9, nullptr);
  FlowId c = net.start_flow({l2}, 1e9, nullptr);
  // Rates are set synchronously on the last topology change.
  EXPECT_NEAR(net.flow_rate(a), 50.0, 1e-9);
  EXPECT_NEAR(net.flow_rate(b), 50.0, 1e-9);
  EXPECT_NEAR(net.flow_rate(c), 150.0, 1e-9);
}

TEST(Network, LossInflatesTransferTime) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0, 0.0, 0.25);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 1.25, 1e-9);  // (1+lr) wire inflation
}

TEST(Network, IncastCollapseShrinksAggregate) {
  // With alpha=0.1 and 8 flows, usable capacity is b / (1 + 0.1·7) = b/1.7.
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0, 0.0, 0.0, 0.1);
  std::vector<double> done(8, -1.0);
  for (int f = 0; f < 8; ++f) {
    net.start_flow({l}, 125.0, [&done, f, &sim] { done[f] = sim.now(); });
  }
  sim.run();
  // 8×125 = 1000 B at 1000/1.7 B/s aggregate → 1.7 s.
  for (double d : done) EXPECT_NEAR(d, 1.7, 1e-9);
}

TEST(Network, SingleFlowUnaffectedByIncastAlpha) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0, 0.0, 0.0, 0.5);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 1.0, 1e-9);
}

TEST(Network, ExtraLatencyAddsToCompletion) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0, 0.1);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); }, 0.05);
  sim.run();
  EXPECT_NEAR(done_at, 1.15, 1e-9);
}

TEST(Network, BytesDeliveredCountsPayload) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0, 0.0, 0.5);  // heavy loss
  net.start_flow({l}, 300.0, nullptr);
  net.start_flow({l}, 700.0, nullptr);
  sim.run();
  EXPECT_NEAR(net.bytes_delivered(), 1000.0, 1e-9);  // payload, not wire
}

TEST(Network, IdealTransferTime) {
  Simulator sim;
  Network net(sim);
  const LinkId a = net.add_link(1000.0, 0.1, 0.0);
  const LinkId b = net.add_link(500.0, 0.2, 0.5);
  const double t = net.ideal_transfer_time({a, b}, 1000.0);
  // latency 0.3 + 1000·1.5 / min(1000,500) = 0.3 + 3.0.
  EXPECT_NEAR(t, 3.3, 1e-9);
}

TEST(Network, ManySequentialFlowsDeterministic) {
  auto run_once = [] {
    Simulator sim;
    Network net(sim);
    const LinkId l = net.add_link(100.0);
    double last = 0.0;
    for (int i = 0; i < 50; ++i) {
      net.start_flow({l}, 10.0 + i, [&last, &sim] { last = sim.now(); });
    }
    sim.run();
    return last;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Cluster, TopologyRoutes) {
  Simulator sim;
  ClusterConfig cfg;
  cfg.num_workers = 4;
  Cluster cluster(sim, cfg);
  EXPECT_EQ(cluster.num_workers(), 4u);
  // 5 nodes (4 workers + PS), 2 links each.
  EXPECT_EQ(cluster.network().num_links(), 10u);
  const auto up = cluster.route_to_ps(2);
  const auto down = cluster.route_from_ps(2);
  ASSERT_EQ(up.size(), 2u);
  ASSERT_EQ(down.size(), 2u);
  EXPECT_NE(up[0], down[1]);  // worker uplink != worker downlink
}

TEST(Cluster, SharedPsIngressCreatesIncast) {
  Simulator sim;
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.link_gbps = 0.000008;  // 1000 B/s for easy math
  cfg.link_latency_s = 0.0;
  cfg.incast_alpha = 0.0;
  Cluster cluster(sim, cfg);
  std::vector<double> done(4, -1.0);
  for (std::size_t w = 0; w < 4; ++w) {
    cluster.network().start_flow(cluster.route_to_ps(w), 1000.0,
                                 [&done, w, &sim] { done[w] = sim.now(); });
  }
  sim.run();
  // All four flows share the PS downlink: 250 B/s each → 4 s.
  for (double d : done) EXPECT_NEAR(d, 4.0, 1e-6);
}

TEST(Cluster, ColocatedPsLoopback) {
  Simulator sim;
  ClusterConfig cfg;
  cfg.num_workers = 3;
  cfg.colocated_ps = true;
  Cluster cluster(sim, cfg);
  EXPECT_TRUE(cluster.hosts_ps(0));
  EXPECT_FALSE(cluster.hosts_ps(1));
  EXPECT_TRUE(cluster.route_to_ps(0).empty());
  EXPECT_FALSE(cluster.route_to_ps(1).empty());
  // Only 3 nodes worth of links.
  EXPECT_EQ(cluster.network().num_links(), 6u);
}

TEST(Cluster, SpeedFactors) {
  Simulator sim;
  ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.speed_factors = {1.0, 0.5};
  Cluster cluster(sim, cfg);
  EXPECT_DOUBLE_EQ(cluster.speed_factor(0), 1.0);
  EXPECT_DOUBLE_EQ(cluster.speed_factor(1), 0.5);
}

TEST(Cluster, RejectsBadSpeedFactorArity) {
  Simulator sim;
  ClusterConfig cfg;
  cfg.num_workers = 3;
  cfg.speed_factors = {1.0, 1.0};
  EXPECT_THROW(Cluster(sim, cfg), util::CheckError);
}

TEST(ComputeModel, BaseTimeScalesWithBatchAndFlops) {
  ComputeModel model;
  model.flops_per_sample = 1e9;
  model.node.device_flops = 1e12;
  model.node.efficiency = 0.5;
  EXPECT_NEAR(model.base_batch_time(64), 64.0 * 1e9 / 5e11, 1e-15);
  EXPECT_NEAR(model.base_batch_time(128), 2 * model.base_batch_time(64),
              1e-15);
}

TEST(ComputeModel, SpeedFactorDividesTime) {
  ComputeModel model;
  model.flops_per_sample = 1e9;
  model.node.device_flops = 1e12;
  model.node.efficiency = 0.5;
  util::Rng rng(1);
  const double fast = model.batch_time(64, 2.0, rng);
  const double slow = model.batch_time(64, 0.5, rng);
  EXPECT_NEAR(slow / fast, 4.0, 1e-12);
}

TEST(ComputeModel, JitterIsOneSided) {
  ComputeModel model;
  model.flops_per_sample = 1e9;
  model.node.device_flops = 1e12;
  model.node.efficiency = 0.5;
  model.straggler_jitter = 0.2;
  util::Rng rng(2);
  const double base = model.base_batch_time(64);
  double total = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double t = model.batch_time(64, 1.0, rng);
    EXPECT_GE(t, base);
    total += t / base - 1.0;
  }
  EXPECT_NEAR(total / 2000.0, 0.2, 0.02);  // exponential mean = jitter
}

TEST(GbpsConversion, TenGbpsIs1250MBps) {
  EXPECT_DOUBLE_EQ(gbps_to_bytes_per_sec(10.0), 1.25e9);
}

// ---- fault injection: dynamic link state ----

TEST(NetworkFaults, LinkDownStallsFlowAndResumes) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  // Down for [0.5, 1.0): the flow moves 500 B, stalls 0.5 s, then finishes
  // the remaining 500 B → 1.5 s total.
  sim.schedule(0.5, [&] { net.set_link_up(l, false); });
  sim.schedule(1.0, [&] { net.set_link_up(l, true); });
  sim.run();
  EXPECT_NEAR(done_at, 1.5, 1e-9);
}

TEST(NetworkFaults, FlowStartedOnDownLinkWaitsForUpEdge) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  net.set_link_up(l, false);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  sim.schedule(2.0, [&] { net.set_link_up(l, true); });
  sim.run();
  EXPECT_FALSE(net.link_up(l) == false);
  EXPECT_NEAR(done_at, 3.0, 1e-9);  // 2 s stalled + 1 s transfer
}

TEST(NetworkFaults, DegradationScalesBandwidthAndRestores) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  net.set_link_degradation(l, 0.5);
  EXPECT_NEAR(net.link_capacity(l), 500.0, 1e-9);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  // Restore at t=1: 500 B moved at 500 B/s, the rest at 1000 B/s.
  sim.schedule(1.0, [&] { net.set_link_degradation(l, 1.0); });
  sim.run();
  EXPECT_NEAR(done_at, 1.5, 1e-9);
  EXPECT_NEAR(net.link_capacity(l), 1000.0, 1e-9);
}

TEST(NetworkFaults, DegradationExtraLossInflatesNewFlows) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  net.set_link_degradation(l, 1.0, /*extra_loss_rate=*/0.5);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 1.5, 1e-9);  // 1000·(1+0.5) wire bytes
}

TEST(NetworkFaults, CancelFlowSpeedsUpSurvivor) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  bool cancelled_fired = false;
  double done_at = -1.0;
  const FlowId doomed =
      net.start_flow({l}, 1000.0, [&] { cancelled_fired = true; });
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  // Both at 500 B/s; at t=1 cancel one → survivor has 500 B left at
  // 1000 B/s → done at 1.5 s.
  sim.schedule(1.0, [&] { EXPECT_TRUE(net.cancel_flow(doomed)); });
  sim.run();
  EXPECT_FALSE(cancelled_fired);
  EXPECT_NEAR(done_at, 1.5, 1e-9);
  EXPECT_EQ(net.flows_cancelled(), 1u);
  EXPECT_FALSE(net.cancel_flow(doomed));  // already gone
}

TEST(NetworkFaults, DropInjectionSuppressesDelivery) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  net.add_injection_window(0.0, 1.0, l, 0.0, /*drop_prob=*/1.0);
  bool delivered = false;
  net.start_flow({l}, 100.0, [&] { delivered = true; });
  // A flow starting after the window passes normally.
  double late_done = -1.0;
  sim.schedule(2.0, [&] {
    net.start_flow({l}, 100.0, [&] { late_done = sim.now(); });
  });
  sim.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_NEAR(late_done, 2.1, 1e-9);
  EXPECT_NEAR(net.bytes_delivered(), 100.0, 1e-9);
}

TEST(NetworkFaults, DelayInjectionAddsLatency) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  net.add_injection_window(0.0, 1.0, l, /*delay_s=*/0.25, 0.0);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 1.25, 1e-9);
  EXPECT_EQ(net.messages_delayed(), 1u);
}

TEST(NetworkFaults, DropSamplingIsSeedDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim;
    Network net(sim);
    const LinkId l = net.add_link(1e6);
    net.set_injection_seed(seed);
    net.add_injection_window(0.0, 100.0, kAllLinks, 0.0, 0.5);
    std::vector<bool> delivered(64, false);
    for (std::size_t i = 0; i < 64; ++i) {
      net.start_flow({l}, 10.0, [&delivered, i] { delivered[i] = true; });
    }
    sim.run();
    return delivered;
  };
  EXPECT_EQ(run_once(7), run_once(7));       // replay is exact
  EXPECT_NE(run_once(7), run_once(8));       // and seed-sensitive
}

// Property test: under an arbitrary seeded sequence of link flaps,
// degradations, cancellations, and staggered flow starts, the allocation
// must keep every flow's rate non-negative, never oversubscribe a link,
// and — once the links heal — deliver exactly the payload of every flow
// that wasn't dropped or cancelled.
TEST(NetworkFaults, FlapFuzzPreservesInvariants) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Simulator sim;
    Network net(sim);
    const std::vector<LinkId> links = {net.add_link(1000.0),
                                       net.add_link(500.0),
                                       net.add_link(2000.0)};
    util::Rng rng(seed);
    double expected_payload = 0.0;
    double cancelled_payload = 0.0;
    std::size_t completions = 0;

    // Route table: flows cross one or two links.
    const std::vector<std::vector<LinkId>> routes = {
        {links[0]}, {links[1]}, {links[2]}, {links[0], links[2]},
        {links[1], links[2]}};

    struct StartedFlow {
      FlowId id;
      std::vector<LinkId> route;
      double payload;
    };
    auto started = std::make_shared<std::vector<StartedFlow>>();

    // Staggered flow starts.
    for (int i = 0; i < 40; ++i) {
      const double at = rng.uniform(0.0, 5.0);
      const auto& route = routes[rng.uniform_u64(routes.size())];
      const double payload = rng.uniform(100.0, 2000.0);
      expected_payload += payload;
      sim.schedule_at(at, [&net, &sim, &completions, route, payload,
                           started] {
        const FlowId id = net.start_flow(
            std::vector<LinkId>(route), payload, [&completions] {
              ++completions;
            });
        started->push_back({id, route, payload});
      });
    }
    // Random flap windows (always matched down/up inside [0, 6)).
    for (int i = 0; i < 12; ++i) {
      const LinkId l = links[rng.uniform_u64(links.size())];
      const double down_at = rng.uniform(0.0, 5.0);
      const double up_at = down_at + rng.uniform(0.05, 1.0);
      sim.schedule_at(down_at, [&net, l] { net.set_link_up(l, false); });
      sim.schedule_at(up_at, [&net, l] { net.set_link_up(l, true); });
    }
    // Random degradation windows.
    for (int i = 0; i < 8; ++i) {
      const LinkId l = links[rng.uniform_u64(links.size())];
      const double at = rng.uniform(0.0, 5.0);
      const double factor = rng.uniform(0.1, 1.0);
      sim.schedule_at(at, [&net, l, factor] {
        net.set_link_degradation(l, factor);
      });
      sim.schedule_at(at + rng.uniform(0.05, 1.0), [&net, l] {
        net.set_link_degradation(l, 1.0);
      });
    }
    // A couple of cancellations of whatever happens to be in flight.
    for (int i = 0; i < 3; ++i) {
      sim.schedule_at(rng.uniform(1.0, 5.0),
                      [&net, started, &cancelled_payload] {
        for (const auto& f : *started) {
          if (net.cancel_flow(f.id)) {  // true only for in-flight flows
            cancelled_payload += f.payload;
            break;
          }
        }
      });
    }
    // Invariant probes while the chaos runs.
    for (double t = 0.25; t < 6.0; t += 0.25) {
      sim.schedule_at(t, [&net, &links, started] {
        std::vector<double> load(links.size(), 0.0);
        for (const auto& f : *started) {
          const double r = net.flow_rate(f.id);
          EXPECT_GE(r, 0.0);
          for (const LinkId l : f.route) load[l] += r;
        }
        for (std::size_t li = 0; li < links.size(); ++li) {
          const double cap = net.link_capacity(links[li]);
          EXPECT_LE(load[li], cap + 1e-6)
              << "link " << li << " oversubscribed";
        }
      });
    }
    // Heal everything at t=6 so every surviving flow can finish.
    sim.schedule_at(6.0, [&net, &links] {
      for (const LinkId l : links) {
        net.set_link_up(l, true);
        net.set_link_degradation(l, 1.0);
      }
    });
    sim.run();

    EXPECT_EQ(net.active_flows(), 0u) << "seed " << seed;
    EXPECT_EQ(completions + net.flows_cancelled(), started->size())
        << "seed " << seed;
    EXPECT_NEAR(net.bytes_delivered(), expected_payload - cancelled_payload,
                1e-6 * expected_payload)
        << "seed " << seed;
  }
}

// ---- incremental rate solver vs. from-scratch reference -----------------

/// Drives one seeded random workload — random topology, staggered flow
/// starts over random routes, link flaps, multi-flow bursts — against `net`/`sim` and returns
/// per-flow completion times (index = start order; -1 for flows that never
/// finished). Used to compare the incremental and reference solvers on
/// bit-identical inputs.
std::vector<double> run_random_workload(Simulator& sim, Network& net,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t num_links = 2 + rng.uniform_u64(8);  // 2..9 links
  std::vector<LinkId> links;
  for (std::size_t l = 0; l < num_links; ++l) {
    links.push_back(net.add_link(rng.uniform(200.0, 3000.0),
                                 rng.uniform(0.0, 0.01),
                                 rng.uniform(0.0, 0.1),
                                 rng.uniform(0.0, 0.05)));
  }
  const std::size_t num_flows = 20 + rng.uniform_u64(30);
  auto done = std::make_shared<std::vector<double>>(num_flows, -1.0);
  for (std::size_t i = 0; i < num_flows; ++i) {
    // Random route of 1..3 distinct-ish links (duplicates are legal).
    std::vector<LinkId> route;
    const std::size_t hops = 1 + rng.uniform_u64(3);
    for (std::size_t h = 0; h < hops; ++h) {
      route.push_back(links[rng.uniform_u64(links.size())]);
    }
    const double at = rng.uniform(0.0, 4.0);
    const double payload = rng.uniform(50.0, 3000.0);
    sim.schedule_at(at, [&net, &sim, done, i, route, payload] {
      net.start_flow(std::vector<LinkId>(route), payload,
                     [&sim, done, i] { (*done)[i] = sim.now(); });
    });
  }
  // Matched down/up flap windows so everything can eventually drain.
  for (int i = 0; i < 10; ++i) {
    const LinkId l = links[rng.uniform_u64(links.size())];
    const double down_at = rng.uniform(0.0, 4.0);
    sim.schedule_at(down_at, [&net, l] { net.set_link_up(l, false); });
    sim.schedule_at(down_at + rng.uniform(0.05, 0.8),
                    [&net, l] { net.set_link_up(l, true); });
  }
  // Bursts: several flows started from one callback (one coalesced solve).
  // After one of the starts an untracked flow is started and cancelled at
  // once, so its slot is freed inside the burst (and reused by the next
  // start, if any); some bursts also take a link down in the same callback.
  const std::size_t num_bursts = 3 + rng.uniform_u64(4);
  for (std::size_t b = 0; b < num_bursts; ++b) {
    struct BurstFlow {
      std::size_t index;
      std::vector<LinkId> route;
      double payload;
    };
    std::vector<BurstFlow> burst;
    const std::size_t size = 2 + rng.uniform_u64(5);
    for (std::size_t j = 0; j < size; ++j) {
      std::vector<LinkId> route;
      const std::size_t hops = 1 + rng.uniform_u64(3);
      for (std::size_t h = 0; h < hops; ++h) {
        route.push_back(links[rng.uniform_u64(links.size())]);
      }
      done->push_back(-1.0);
      burst.push_back({done->size() - 1, std::move(route),
                       rng.uniform(50.0, 3000.0)});
    }
    const std::size_t cancel_after = rng.uniform_u64(size);
    const LinkId flap = links[rng.uniform_u64(links.size())];
    const double down_for = rng.bernoulli(0.5) ? rng.uniform(0.05, 0.8) : 0.0;
    sim.schedule_at(rng.uniform(0.0, 4.0), [&net, &sim, done, burst,
                                            cancel_after, flap, down_for] {
      for (std::size_t j = 0; j < burst.size(); ++j) {
        const BurstFlow& f = burst[j];
        net.start_flow(std::vector<LinkId>(f.route), f.payload,
                       [&sim, done, i = f.index] { (*done)[i] = sim.now(); });
        if (j == cancel_after) {
          net.cancel_flow(net.start_flow(std::vector<LinkId>(f.route),
                                         f.payload, [] {}));
        }
      }
      if (down_for > 0.0) {
        net.set_link_up(flap, false);
        sim.schedule(down_for, [&net, flap] { net.set_link_up(flap, true); });
      }
    });
  }
  sim.run();
  return *done;
}

// Property test: with check-against-reference enabled, every single rate
// solve re-runs the from-scratch solver internally and OSP_CHECKs that each
// flow's rate is bitwise identical — across random topologies, staggered
// arrivals, random routes, link flaps, and same-callback bursts.
TEST(NetworkIncremental, RandomChurnMatchesReferenceBitwise) {
  for (std::uint64_t seed = 11; seed <= 18; ++seed) {
    Simulator sim;
    Network net(sim);
    net.set_check_against_reference(true);
    const auto done = run_random_workload(sim, net, seed);
    EXPECT_EQ(net.active_flows(), 0u) << "seed " << seed;
    EXPECT_GT(net.solve_stats().solves, 0u) << "seed " << seed;
    for (double d : done) EXPECT_GT(d, 0.0) << "seed " << seed;
  }
}

// The same workload simulated end-to-end under each solver must produce
// bitwise-identical completion times, delivered bytes, and event counts.
TEST(NetworkIncremental, PairedRunsCompleteBitIdentical) {
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    Simulator sim_inc;
    Network net_inc(sim_inc);
    const auto done_inc = run_random_workload(sim_inc, net_inc, seed);

    Simulator sim_ref;
    Network net_ref(sim_ref);
    net_ref.set_use_reference_solver(true);
    const auto done_ref = run_random_workload(sim_ref, net_ref, seed);

    ASSERT_EQ(done_inc.size(), done_ref.size()) << "seed " << seed;
    for (std::size_t i = 0; i < done_inc.size(); ++i) {
      EXPECT_EQ(done_inc[i], done_ref[i])  // bitwise, not approximate
          << "seed " << seed << " flow " << i;
    }
    EXPECT_EQ(net_inc.bytes_delivered(), net_ref.bytes_delivered())
        << "seed " << seed;
    EXPECT_EQ(sim_inc.events_processed(), sim_ref.events_processed())
        << "seed " << seed;
    // The reference solver can only do full solves; the incremental one
    // must never visit more flow entries than it.
    EXPECT_LE(net_inc.solve_stats().flow_visits,
              net_ref.solve_stats().flow_visits)
        << "seed " << seed;
  }
}

// Disjoint components keep the incremental solver local: with flows spread
// over independent links, it must visit at least 5x fewer flow entries
// than the from-scratch reference (the PR's headline scaling win).
TEST(NetworkIncremental, ShardedComponentsReduceVisits) {
  auto run_sharded = [](bool reference) {
    Simulator sim;
    Network net(sim);
    constexpr std::size_t kShards = 8;
    constexpr std::size_t kFlowsPerShard = 6;
    std::vector<LinkId> links;
    for (std::size_t s = 0; s < kShards; ++s) {
      links.push_back(net.add_link(1000.0));
    }
    net.set_use_reference_solver(reference);
    for (std::size_t s = 0; s < kShards; ++s) {
      for (std::size_t f = 0; f < kFlowsPerShard; ++f) {
        // Stagger starts so churn interleaves across shards.
        sim.schedule_at(static_cast<double>(f * kShards + s) * 0.01,
                        [&net, &links, s, f] {
                          net.start_flow({links[s]},
                                         500.0 + static_cast<double>(f) * 40.0,
                                         nullptr);
                        });
      }
    }
    sim.run();
    return net.solve_stats().flow_visits;
  };
  const std::uint64_t inc = run_sharded(false);
  const std::uint64_t ref = run_sharded(true);
  EXPECT_GE(static_cast<double>(ref), 5.0 * static_cast<double>(inc))
      << "ref=" << ref << " inc=" << inc;
}

// ---- coalesced solves: one rate solve per event callback ----------------

TEST(NetworkCoalescing, BurstInOneCallbackSolvesOnce) {
  Simulator sim;
  Network net(sim);
  const LinkId ps = net.add_link(1000.0);
  std::vector<LinkId> uplinks;
  for (int w = 0; w < 16; ++w) uplinks.push_back(net.add_link(500.0));
  std::uint64_t solves_before = 0;
  std::uint64_t solves_after_burst = 0;
  sim.schedule(1.0, [&] {
    solves_before = net.solve_stats().solves;
    for (const LinkId up : uplinks) net.start_flow({up, ps}, 100.0, nullptr);
  });
  // Runs after the burst's callback and before any completion.
  sim.schedule(1.0, [&] { solves_after_burst = net.solve_stats().solves; });
  sim.run();
  EXPECT_EQ(solves_after_burst, solves_before + 1);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_DOUBLE_EQ(net.bytes_delivered(), 1600.0);
}

TEST(NetworkCoalescing, CompletionKeepsItsTieOrderAgainstLaterEvents) {
  // The flow is started before the probe is scheduled and completes at the
  // probe's instant; its completion event must fire first, as it would if
  // the start solved at once. Without the reserved seq, the deferred
  // completion would sort after the probe.
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);  // zero latency
  double seen_at_probe = -1.0;
  sim.schedule(0.5, [&] {
    net.start_flow({l}, 1000.0, nullptr);  // completes at 0.5 + 1.0
    sim.schedule(1.0, [&] { seen_at_probe = net.bytes_delivered(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(seen_at_probe, 1000.0);
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
}

TEST(NetworkCoalescing, FlowsStartedBeforeRunAreSolved) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(100.0);
  const FlowId a = net.start_flow({l}, 100.0, nullptr);
  const FlowId b = net.start_flow({l}, 300.0, nullptr);
  // flow_rate() solves the pending starts before it reads.
  EXPECT_DOUBLE_EQ(net.flow_rate(a), 50.0);
  EXPECT_DOUBLE_EQ(net.flow_rate(b), 50.0);
  EXPECT_EQ(net.solve_stats().solves, 1u);
  const FlowId c = net.start_flow({l}, 100.0, nullptr);
  // A deadline before the first completion: the hook still solves and
  // schedules it, so the completion is pending when run_until returns.
  sim.run_until(0.5);
  EXPECT_FALSE(sim.empty());
  EXPECT_DOUBLE_EQ(sim.now(), 0.5);
  EXPECT_NEAR(net.flow_rate(c), 100.0 / 3.0, 1e-12);
  sim.run();
  // a and c finish together at 3 s (100 B at 33.3 B/s); b then has 200 B
  // left alone on the link: 2 s more.
  EXPECT_NEAR(sim.now(), 5.0, 1e-9);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(NetworkCoalescing, StartThenCancelInOneCallbackLeavesNoTrace) {
  // The cancelled flow's slot stays seeded for the coming solve but is
  // free by then; the solve must skip it rather than give it a rate.
  Simulator sim;
  Network net(sim);
  net.set_check_against_reference(true);
  for (int i = 0; i < 8; ++i) {
    net.start_flow({net.add_link(100.0)}, 100.0, nullptr);
  }
  const LinkId spare = net.add_link(100.0);
  sim.schedule(0.25, [&] {
    EXPECT_TRUE(net.cancel_flow(net.start_flow({spare}, 50.0, nullptr)));
  });
  sim.run();
  EXPECT_EQ(net.flows_cancelled(), 1u);
  EXPECT_DOUBLE_EQ(net.bytes_delivered(), 800.0);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(NetworkCoalescing, OneNetworkPerSimulator) {
  Simulator sim;
  {
    Network first(sim);
    EXPECT_THROW(Network second(sim), util::CheckError);
  }
  // The destroyed network detached its hook.
  Network again(sim);
  const LinkId l = again.add_link(10.0);
  again.start_flow({l}, 10.0, nullptr);
  sim.run();
  EXPECT_DOUBLE_EQ(again.bytes_delivered(), 10.0);
}

}  // namespace
}  // namespace osp::sim
