// Flow-level network model with max-min fair bandwidth sharing.
//
// Links have capacity (bytes/s), propagation latency, and a loss rate that
// inflates the bytes on the wire by (1+lr) — the retransmission-overhead
// treatment matching the capacity term of the paper's Eq. 5. A flow follows
// a route of links; concurrent flows sharing a link split its capacity by
// progressive water-filling (max-min fairness). This is what produces the
// incast effect at the PS ingress link when all workers push simultaneously
// (BSP), and its absence when pushes are staggered (ASP/R²SP) or overlapped
// (OSP's ICS).
//
// Every topology change (flow start/finish, link flap, degradation edge,
// flow cancellation) advances all in-flight flows to the current instant
// and marks rates stale; the rates themselves are solved once per event
// callback. The network attaches a before-event hook to its simulator that
// runs one solve over the union of the callback's changes and schedules the
// next completion. A callback that starts a flow to each of N workers thus
// costs one solve, not N. Each change reserves the simulator sequence
// number its eager completion event would have taken, and the flushed event
// is scheduled at that (time, seq): every live event keeps the place in the
// pop order it had when each change re-solved at once, so coalescing moves
// no result. Completion events are invalidated by an epoch counter.
// flow_rate() flushes before it reads.
//
// Scalability: the solver is *incremental*. A link→flows adjacency index
// lets a solve re-run water-filling only over the connected component of
// flows/links reachable from the changed flows and links — disjoint
// components share no links, so their allocations are independent and
// untouched rates stay valid bit-for-bit. Flows live in a slot-indexed
// table (stable indices, free-list reuse) with an active-flow list so
// advancing in-flight bytes and rescheduling completions touch only flows
// whose rate is nonzero. Water-filling visits flows in start order, which
// is id order: a large component is picked out of a start-ordered array of
// slots instead of being sorted, and a small one is sorted. A
// from-scratch reference solver is kept behind set_use_reference_solver() /
// set_check_against_reference() and asserted bitwise-equal in the property
// tests.
//
// Fault injection (see sim/faults.hpp): links carry dynamic state — an
// up/down bit and a degradation (bandwidth factor + extra loss). A flow
// routed through a down link stalls at rate 0 and resumes when the link
// comes back; rates recompute on every flap edge. Per-flow down-link
// counters are maintained on the flap edges themselves, so recomputes
// never rescan routes for link health. Message-level injection windows add
// latency to, or drop outright, flows that *start* inside the window; drop
// sampling draws from a dedicated seeded stream so runs stay deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace osp::util::serde {
class Writer;
class Reader;
}  // namespace osp::util::serde

namespace osp::sim {

using LinkId = std::size_t;
using FlowId = std::uint64_t;

/// Sentinel for "every link" in message-injection windows.
inline constexpr std::size_t kAllLinks = static_cast<std::size_t>(-1);

struct LinkSpec {
  double bandwidth_bps = 1.25e9;  ///< bytes/s (default: 10 Gbit/s)
  double latency_s = 0.0;
  double loss_rate = 0.0;
  /// TCP-incast goodput collapse: with K simultaneous flows the link's
  /// usable capacity degrades to b / (1 + incast_alpha·(K−1)), modeling
  /// buffer overflow + retransmission timeouts when synchronized senders
  /// converge on one port (the paper's §2 incast problem). 0 disables.
  double incast_alpha = 0.0;
};

/// Convert a link rate in Gbit/s to bytes/s.
[[nodiscard]] constexpr double gbps_to_bytes_per_sec(double gbps) {
  return gbps * 1e9 / 8.0;
}

class Network {
 public:
  /// Attaches the network's solve hook to `sim`; a simulator drives at
  /// most one network.
  explicit Network(Simulator& sim);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Add a link; bandwidth in bytes/s.
  LinkId add_link(double bandwidth_bytes_per_s, double latency_s = 0.0,
                  double loss_rate = 0.0, double incast_alpha = 0.0);

  [[nodiscard]] std::size_t num_links() const { return links_.size(); }
  [[nodiscard]] const LinkSpec& link(LinkId id) const;

  /// Start a flow of `bytes` along `route`; `on_complete` fires (through the
  /// simulator) when the last byte arrives. Zero-byte flows complete after
  /// the route latency alone. `extra_latency_s` models per-transfer software
  /// overhead (serialization, framing, process-pool handoff). Returns a
  /// flow id.
  FlowId start_flow(std::vector<LinkId> route, double bytes,
                    std::function<void()> on_complete,
                    double extra_latency_s = 0.0);

  /// Cancel an in-flight flow: it is removed without firing its completion
  /// callback (used when a crashed worker's transfers are torn down).
  /// Returns false when the id is unknown or already finished.
  bool cancel_flow(FlowId id);

  // ---- dynamic link state (fault injection) ----

  /// Take a link down or bring it back up. Flows routed through a down
  /// link stall (rate 0) and resume on the up edge; rates recompute on
  /// both edges.
  void set_link_up(LinkId id, bool up);
  [[nodiscard]] bool link_up(LinkId id) const;

  /// Transient degradation: effective bandwidth becomes
  /// `bandwidth * bandwidth_factor` and flows *starting* while degraded see
  /// `loss_rate + extra_loss_rate`. Factor 1 / extra loss 0 restores the
  /// nominal link.
  void set_link_degradation(LinkId id, double bandwidth_factor,
                            double extra_loss_rate = 0.0);

  /// Effective capacity in bytes/s right now (0 when down; excludes the
  /// incast-collapse term, which depends on the instantaneous flow count).
  [[nodiscard]] double link_capacity(LinkId id) const;

  /// Message-level injection: flows starting in [start_s, end_s) whose
  /// route crosses `link` (or any link when kAllLinks) gain `delay_s`
  /// latency and are dropped (no delivery, no callback) with probability
  /// `drop_prob`, sampled from the seeded injection stream.
  void add_injection_window(double start_s, double end_s, std::size_t link,
                            double delay_s, double drop_prob);
  void set_injection_seed(std::uint64_t seed) { inject_rng_.reseed(seed); }

  [[nodiscard]] std::size_t flows_cancelled() const {
    return flows_cancelled_;
  }
  [[nodiscard]] std::size_t messages_dropped() const {
    return messages_dropped_;
  }
  [[nodiscard]] std::size_t messages_delayed() const {
    return messages_delayed_;
  }

  /// Number of flows still in flight.
  [[nodiscard]] std::size_t active_flows() const { return num_flows_; }

  /// Current fair-share rate of a flow (bytes/s); 0 if unknown/finished.
  /// Solves pending changes first.
  [[nodiscard]] double flow_rate(FlowId id);

  /// Total bytes delivered since construction (post-loss-inflation wire
  /// bytes are NOT counted; this is payload).
  [[nodiscard]] double bytes_delivered() const { return bytes_delivered_; }

  /// Payload bytes of flows currently on the wire (real flows only —
  /// zero-byte latency stubs and dropped messages never count). Sampled
  /// into the "in_flight_bytes" counter track when tracing.
  [[nodiscard]] double bytes_in_flight() const { return payload_in_flight_; }

  /// Observer callbacks for trace recording. `started` fires when a real
  /// (bytes > 0, not dropped) flow enters the wire, with its id, route,
  /// start time, and payload bytes; `ended` fires at the instant the flow
  /// leaves the wire — delivery time (including route latency) on
  /// completion, cancellation time on cancel. Either hook may be empty.
  /// Hooks observe only; they must not call back into the network.
  struct FlowTraceHooks {
    std::function<void(FlowId, const std::vector<LinkId>&, double, double)>
        started;
    std::function<void(FlowId, double end_s, bool cancelled)> ended;
  };
  void set_trace_hooks(FlowTraceHooks hooks) { hooks_ = std::move(hooks); }

  /// Ideal (uncontended) transfer time of `bytes` over a route: the route
  /// latency plus bytes*(1+lr) at the bottleneck bandwidth.
  [[nodiscard]] double ideal_transfer_time(const std::vector<LinkId>& route,
                                           double bytes) const;

  // ---- solver instrumentation & debugging ----

  /// Work counters for the rate solver (reset-free, monotonic).
  struct SolveStats {
    std::uint64_t solves = 0;       ///< rate solves (at most one per event)
    std::uint64_t full_solves = 0;  ///< recomputations that spanned all flows
    /// Flow entries examined across all solves: one per flow in the setup
    /// pass plus one per (flow, water-filling round). The incremental
    /// solver's headline win is reducing this count.
    std::uint64_t flow_visits = 0;
  };
  [[nodiscard]] const SolveStats& solve_stats() const { return stats_; }

  /// Debug: route every solve through the from-scratch reference
  /// water-filling over all flows × links (the pre-incremental algorithm).
  void set_use_reference_solver(bool on) { use_reference_solver_ = on; }

  /// Debug: after every incremental solve, re-run the reference solver and
  /// assert every flow's rate is bitwise identical (slow; for tests).
  void set_check_against_reference(bool on) { check_reference_ = on; }

  // ---- checkpointing ----

  /// Serialize dynamic state: per-link fault state, the injection RNG
  /// stream, flow-id counter, and accounting counters. Requires a
  /// quiescent network (no in-flight flows) — in-flight flows are drained
  /// by the engine before a snapshot, never serialized.
  void save_state(util::serde::Writer& w) const;

  /// Restore state saved by save_state onto a freshly built network with
  /// the same link topology.
  void load_state(util::serde::Reader& r);

 private:
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;

  struct Flow {
    FlowId id = 0;
    std::vector<LinkId> route;
    double payload_bytes = 0.0;         ///< size as requested by the caller
    double wire_bytes_remaining = 0.0;  ///< includes (1+lr) inflation
    double rate = 0.0;                  ///< bytes/s, set by water-filling
    double latency = 0.0;               ///< route latency to add at the end
    std::function<void()> on_complete;
    /// Position of this flow's entry in link_flows_[route[i]], per hop.
    std::vector<std::uint32_t> link_pos;
    std::uint32_t down_links = 0;    ///< route hops currently down
    std::uint32_t active_pos = kNpos;  ///< index in active_, kNpos if rate 0
    std::uint32_t start_pos = kNpos;  ///< index in started_
    bool in_use = false;
  };

  /// One flow occurrence on a link: slot index + which hop of its route.
  struct LinkFlowRef {
    std::uint32_t slot;
    std::uint32_t route_pos;
  };

  /// Mutable fault-injection state, parallel to links_.
  struct LinkState {
    bool up = true;
    double bandwidth_factor = 1.0;
    double extra_loss_rate = 0.0;
  };

  struct InjectionWindow {
    double start_s = 0.0;
    double end_s = 0.0;
    std::size_t link = kAllLinks;
    double delay_s = 0.0;
    double drop_prob = 0.0;
  };

  void advance_to_now();
  /// Record a topology change: bump the epoch, reserve the completion
  /// event's seq, and leave the solve to flush().
  void mark_stale();
  /// The before-event hook: one solve over every change since the last
  /// flush, then schedule the next completion at the reserved seq.
  void flush();
  void schedule_next_completion();
  void complete_flow(std::uint32_t slot);

  std::uint32_t alloc_slot();
  /// Unlink from the adjacency index and the start order, drop from the
  /// active list, free the slot. Does not recompute rates.
  void remove_flow(std::uint32_t slot);
  /// Set a flow's rate, maintaining the active list.
  void set_rate(std::uint32_t slot, double rate);

  /// Re-solve the connected component(s) reachable from seed_flows_ /
  /// seed_links_.
  void solve_incremental();
  /// Progressive water-filling restricted to `flow_set` / `links` (a closed
  /// sub-problem). unfixed_ must hold flow_set's non-stalled flows in
  /// ascending id order.
  void solve_over(const std::vector<std::uint32_t>& flow_set,
                  const std::vector<LinkId>& links);
  /// From-scratch water-filling over every flow and link.
  void solve_reference();
  /// Assert the reference solver reproduces the current rates bitwise.
  void verify_against_reference();

  Simulator* sim_;
  std::vector<LinkSpec> links_;
  std::vector<LinkState> link_state_;
  std::vector<InjectionWindow> injections_;
  util::Rng inject_rng_{0xFA17ULL};

  // Slot-indexed flow table + adjacency.
  std::vector<Flow> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<FlowId, std::uint32_t> id_to_slot_;
  std::vector<std::vector<LinkFlowRef>> link_flows_;  ///< parallel to links_
  std::vector<std::uint32_t> active_;  ///< slots with rate > 0
  /// Slots in start order, which is id order. A removed flow leaves a
  /// kNpos hole; starts compact the holes away once they outnumber the
  /// flows in flight, so the size stays under 2 * flows in flight + 64.
  std::vector<std::uint32_t> started_;
  std::size_t num_flows_ = 0;

  // Solver scratch (persistent to avoid per-solve allocation). residual_/
  // crossing_ values are only meaningful for the links touched by the
  // current solve; *_mark_ stamps identify membership per BFS.
  std::vector<double> residual_;
  std::vector<std::size_t> crossing_;
  std::vector<std::uint64_t> link_mark_;
  std::vector<std::uint64_t> flow_mark_;
  std::uint64_t mark_stamp_ = 0;
  std::vector<std::uint32_t> affected_;
  std::vector<LinkId> touched_links_;
  std::vector<std::uint32_t> unfixed_;
  std::vector<std::uint32_t> still_unfixed_;
  std::vector<LinkId> live_links_;  ///< touched links still crossed
  // Changes since the last flush: the seeds of the next solve.
  std::vector<LinkId> seed_links_;
  std::vector<std::uint32_t> seed_flows_;
  bool stale_ = false;
  std::uint64_t completion_seq_ = 0;  ///< reserved by the latest change
  std::vector<std::pair<std::uint32_t, double>> rate_snapshot_;

  SolveStats stats_;
  bool use_reference_solver_ = false;
  bool check_reference_ = false;

  FlowTraceHooks hooks_;

  FlowId next_flow_id_ = 1;
  std::uint64_t epoch_ = 0;  ///< invalidates stale completion events
  SimTime last_advance_ = 0.0;
  double bytes_delivered_ = 0.0;
  double payload_in_flight_ = 0.0;
  std::size_t flows_cancelled_ = 0;
  std::size_t messages_dropped_ = 0;
  std::size_t messages_delayed_ = 0;
};

}  // namespace osp::sim
