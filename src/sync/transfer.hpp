// Lowest rung of the wire path: move `bytes` along `route` through the
// engine's network and invoke `done` on arrival. An empty route is a
// loopback (co-located PS on the same node) and completes via the event
// queue, so callback ordering stays deterministic.
//
// This helper is a raw byte-mover by design — it has no notion of keys,
// versions, or payload structure. The BSP and OSP exchanges go through
// sync::PsExchange (sync/ps_exchange.hpp) instead, which addresses shards,
// fences failovers and sends worker-owned flows. transfer() remains for
// the asynchronous baselines' structureless traffic.
//
// For traffic owned by a specific worker, prefer
// Engine::worker_transfer(worker, route, bytes, done): identical on a
// healthy cluster, but it additionally applies the fault layer
// (delay/drop injection) and cancels the flow if the worker crashes
// mid-transfer, so the payload is not delivered posthumously.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "runtime/engine.hpp"

namespace osp::sync {

inline void transfer(runtime::Engine& eng, std::vector<sim::LinkId> route,
                     double bytes, std::function<void()> done) {
  const double overhead = eng.cluster().config().transfer_overhead_s;
  if (route.empty()) {
    // Route through the engine so pending loopbacks are visible to the
    // checkpoint quiescence check.
    eng.loopback_transfer(overhead, std::move(done));
    return;
  }
  eng.cluster().network().start_flow(std::move(route), bytes,
                                     std::move(done), overhead);
}

}  // namespace osp::sync
