#include "sim/network.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"
#include "util/serde.hpp"

namespace osp::sim {

Network::Network(Simulator& sim) : sim_(&sim) {
  sim.set_before_event_hook([this] { flush(); });
}

Network::~Network() { sim_->set_before_event_hook({}); }

LinkId Network::add_link(double bandwidth_bytes_per_s, double latency_s,
                         double loss_rate, double incast_alpha) {
  OSP_CHECK(bandwidth_bytes_per_s > 0.0, "link bandwidth must be positive");
  OSP_CHECK(latency_s >= 0.0, "negative latency");
  OSP_CHECK(loss_rate >= 0.0 && loss_rate < 1.0, "loss rate must be in [0,1)");
  OSP_CHECK(incast_alpha >= 0.0, "incast alpha must be non-negative");
  links_.push_back({bandwidth_bytes_per_s, latency_s, loss_rate, incast_alpha});
  link_state_.push_back({});
  link_flows_.emplace_back();
  residual_.push_back(0.0);
  crossing_.push_back(0);
  link_mark_.push_back(0);
  return links_.size() - 1;
}

const LinkSpec& Network::link(LinkId id) const {
  OSP_CHECK(id < links_.size(), "link id out of range");
  return links_[id];
}

std::uint32_t Network::alloc_slot() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    flow_mark_.push_back(0);
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  Flow& f = slots_[slot];
  f.rate = 0.0;
  f.down_links = 0;
  f.active_pos = kNpos;
  return slot;
}

void Network::set_rate(std::uint32_t slot, double rate) {
  Flow& f = slots_[slot];
  const bool was_active = f.rate > 0.0;
  const bool is_active = rate > 0.0;
  f.rate = rate;
  if (is_active && !was_active) {
    f.active_pos = static_cast<std::uint32_t>(active_.size());
    active_.push_back(slot);
  } else if (!is_active && was_active) {
    const std::uint32_t last = active_.back();
    active_[f.active_pos] = last;
    slots_[last].active_pos = f.active_pos;
    active_.pop_back();
    f.active_pos = kNpos;
  }
}

void Network::remove_flow(std::uint32_t slot) {
  Flow& f = slots_[slot];
  set_rate(slot, 0.0);
  for (std::size_t i = 0; i < f.route.size(); ++i) {
    std::vector<LinkFlowRef>& refs = link_flows_[f.route[i]];
    const std::uint32_t pos = f.link_pos[i];
    refs[pos] = refs.back();
    // refs[pos] now holds the moved-in occurrence; repoint its owner (which
    // may be this same flow when its route crosses the link twice).
    slots_[refs[pos].slot].link_pos[refs[pos].route_pos] = pos;
    refs.pop_back();
  }
  started_[f.start_pos] = kNpos;
  id_to_slot_.erase(f.id);
  f.on_complete = nullptr;
  f.in_use = false;
  free_slots_.push_back(slot);
  --num_flows_;
}

FlowId Network::start_flow(std::vector<LinkId> route, double bytes,
                           std::function<void()> on_complete,
                           double extra_latency_s) {
  OSP_CHECK(!route.empty(), "flow needs a route");
  OSP_CHECK(bytes >= 0.0, "negative flow size");
  OSP_CHECK(extra_latency_s >= 0.0, "negative transfer overhead");
  double latency = extra_latency_s;
  double loss_factor = 1.0;
  for (LinkId id : route) {
    const LinkSpec& l = link(id);
    latency += l.latency_s;
    loss_factor *= 1.0 + l.loss_rate + link_state_[id].extra_loss_rate;
  }
  // Message-level injection: windows covering this instant and route.
  if (!injections_.empty()) {
    const SimTime now = sim_->now();
    for (const InjectionWindow& win : injections_) {
      if (now < win.start_s || now >= win.end_s) continue;
      const bool on_route =
          win.link == kAllLinks ||
          std::find(route.begin(), route.end(), win.link) != route.end();
      if (!on_route) continue;
      if (win.drop_prob > 0.0 && inject_rng_.bernoulli(win.drop_prob)) {
        ++messages_dropped_;
        return next_flow_id_++;  // the message simply never arrives
      }
      if (win.delay_s > 0.0) {
        latency += win.delay_s;
        ++messages_delayed_;
      }
    }
  }
  advance_to_now();
  const FlowId id = next_flow_id_++;
  if (bytes <= 0.0) {
    // Pure-latency flow: consumes no bandwidth, does not disturb rates.
    if (on_complete != nullptr) sim_->schedule(latency, std::move(on_complete));
    return id;
  }
  const std::uint32_t slot = alloc_slot();
  Flow& f = slots_[slot];
  f.id = id;
  f.route = std::move(route);
  f.payload_bytes = bytes;
  f.wire_bytes_remaining = bytes * loss_factor;
  f.latency = latency;
  f.on_complete = std::move(on_complete);
  f.in_use = true;
  f.link_pos.resize(f.route.size());
  f.down_links = 0;
  for (std::size_t i = 0; i < f.route.size(); ++i) {
    const LinkId l = f.route[i];
    f.link_pos[i] = static_cast<std::uint32_t>(link_flows_[l].size());
    link_flows_[l].push_back({slot, static_cast<std::uint32_t>(i)});
    if (!link_state_[l].up) ++f.down_links;
  }
  // Ids grow with every start, so appending keeps started_ in id order.
  if (started_.size() >= 2 * num_flows_ + 64) {
    std::size_t live = 0;
    for (const std::uint32_t s : started_) {
      if (s == kNpos) continue;
      slots_[s].start_pos = static_cast<std::uint32_t>(live);
      started_[live++] = s;
    }
    started_.resize(live);
  }
  f.start_pos = static_cast<std::uint32_t>(started_.size());
  started_.push_back(slot);
  id_to_slot_[id] = slot;
  ++num_flows_;
  payload_in_flight_ += bytes;
  if (hooks_.started) hooks_.started(id, f.route, sim_->now(), bytes);
  seed_flows_.push_back(slot);
  mark_stale();
  return id;
}

double Network::flow_rate(FlowId id) {
  flush();
  const auto it = id_to_slot_.find(id);
  return it == id_to_slot_.end() ? 0.0 : slots_[it->second].rate;
}

bool Network::cancel_flow(FlowId id) {
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return false;
  const std::uint32_t slot = it->second;
  advance_to_now();
  payload_in_flight_ -= slots_[slot].payload_bytes;
  if (hooks_.ended) hooks_.ended(id, sim_->now(), /*cancelled=*/true);
  seed_links_.insert(seed_links_.end(), slots_[slot].route.begin(),
                     slots_[slot].route.end());
  remove_flow(slot);
  ++flows_cancelled_;
  mark_stale();
  return true;
}

void Network::set_link_up(LinkId id, bool up) {
  OSP_CHECK(id < links_.size(), "link id out of range");
  if (link_state_[id].up == up) return;
  link_state_[id].up = up;
  // Maintain the per-flow down-hop counters on the edge itself so the
  // solver never rescans routes: one increment/decrement per occurrence of
  // this link on a crossing flow's route.
  for (const LinkFlowRef& ref : link_flows_[id]) {
    Flow& f = slots_[ref.slot];
    if (up) {
      OSP_CHECK(f.down_links > 0, "down-link counter underflow");
      --f.down_links;
    } else {
      ++f.down_links;
    }
    seed_flows_.push_back(ref.slot);
  }
  advance_to_now();
  seed_links_.push_back(id);
  mark_stale();
}

bool Network::link_up(LinkId id) const {
  OSP_CHECK(id < links_.size(), "link id out of range");
  return link_state_[id].up;
}

void Network::set_link_degradation(LinkId id, double bandwidth_factor,
                                   double extra_loss_rate) {
  OSP_CHECK(id < links_.size(), "link id out of range");
  OSP_CHECK(bandwidth_factor > 0.0, "bandwidth factor must be positive");
  OSP_CHECK(extra_loss_rate >= 0.0, "extra loss rate must be non-negative");
  link_state_[id].bandwidth_factor = bandwidth_factor;
  link_state_[id].extra_loss_rate = extra_loss_rate;
  advance_to_now();
  seed_links_.push_back(id);
  mark_stale();
}

double Network::link_capacity(LinkId id) const {
  OSP_CHECK(id < links_.size(), "link id out of range");
  const LinkState& s = link_state_[id];
  return s.up ? links_[id].bandwidth_bps * s.bandwidth_factor : 0.0;
}

void Network::add_injection_window(double start_s, double end_s,
                                   std::size_t link, double delay_s,
                                   double drop_prob) {
  OSP_CHECK(start_s >= 0.0 && end_s > start_s, "bad injection window");
  OSP_CHECK(delay_s >= 0.0, "negative injection delay");
  OSP_CHECK(drop_prob >= 0.0 && drop_prob <= 1.0, "bad drop probability");
  OSP_CHECK(link == kAllLinks || link < links_.size(),
            "injection link out of range");
  injections_.push_back({start_s, end_s, link, delay_s, drop_prob});
}

double Network::ideal_transfer_time(const std::vector<LinkId>& route,
                                    double bytes) const {
  OSP_CHECK(!route.empty(), "route must be non-empty");
  double latency = 0.0;
  double loss_factor = 1.0;
  double bottleneck = std::numeric_limits<double>::infinity();
  for (LinkId id : route) {
    const LinkSpec& l = link(id);
    latency += l.latency_s;
    loss_factor *= 1.0 + l.loss_rate;
    bottleneck = std::min(bottleneck, l.bandwidth_bps);
  }
  return latency + bytes * loss_factor / bottleneck;
}

void Network::advance_to_now() {
  const SimTime now = sim_->now();
  const double dt = now - last_advance_;
  last_advance_ = now;
  if (dt <= 0.0) return;
  // Zero-rate flows do not move, so only the active list is touched.
  for (const std::uint32_t slot : active_) {
    Flow& f = slots_[slot];
    f.wire_bytes_remaining =
        std::max(0.0, f.wire_bytes_remaining - f.rate * dt);
  }
}

void Network::mark_stale() {
  ++epoch_;
  stale_ = true;
  completion_seq_ = sim_->reserve_seq();
}

void Network::flush() {
  if (!stale_) return;
  stale_ = false;
  if (num_flows_ != 0) {
    ++stats_.solves;
    if (use_reference_solver_) {
      solve_reference();
    } else {
      solve_incremental();
      if (check_reference_) verify_against_reference();
    }
  }
  seed_flows_.clear();
  seed_links_.clear();
  schedule_next_completion();
}

void Network::solve_incremental() {
  // Closure over the flow↔link bipartite graph: a link pulls in every
  // participating (non-stalled) flow crossing it; a flow pulls in every
  // link on its route. Stalled flows claim no capacity, so they do not
  // couple links and the BFS does not expand through them — but seeded
  // flows always expand (a flow that just stalled frees capacity on its
  // healthy links, and a new or just-unstalled flow claims some). A seeded
  // slot freed later in the same callback is skipped: its removal seeded
  // its route's links.
  ++mark_stamp_;
  affected_.clear();
  touched_links_.clear();
  auto mark_link = [this](LinkId l) {
    if (link_mark_[l] != mark_stamp_) {
      link_mark_[l] = mark_stamp_;
      touched_links_.push_back(l);
    }
  };
  for (const std::uint32_t slot : seed_flows_) {
    if (flow_mark_[slot] == mark_stamp_ || !slots_[slot].in_use) continue;
    flow_mark_[slot] = mark_stamp_;
    affected_.push_back(slot);
    for (const LinkId l : slots_[slot].route) mark_link(l);
  }
  for (const LinkId l : seed_links_) mark_link(l);
  // Once every flow is in, no link can pull in more, and every link on an
  // affected route is already touched: stop early.
  for (std::size_t i = 0;
       i < touched_links_.size() && affected_.size() < num_flows_; ++i) {
    for (const LinkFlowRef& ref : link_flows_[touched_links_[i]]) {
      if (flow_mark_[ref.slot] == mark_stamp_) continue;
      flow_mark_[ref.slot] = mark_stamp_;
      const Flow& f = slots_[ref.slot];
      if (f.down_links != 0) continue;  // stalled: stays at rate 0
      affected_.push_back(ref.slot);
      for (const LinkId l : f.route) mark_link(l);
    }
  }
  const std::size_t n = affected_.size();
  if (n == num_flows_) ++stats_.full_solves;
  // Water-filling needs ascending id order. Sorting k flows costs about
  // k·log2(k); picking the marked ones out of started_ costs one step per
  // entry. Take the cheaper.
  unfixed_.clear();
  if (n * static_cast<std::size_t>(std::bit_width(n)) < started_.size()) {
    for (const std::uint32_t slot : affected_) {
      if (slots_[slot].down_links == 0) unfixed_.push_back(slot);
    }
    std::sort(unfixed_.begin(), unfixed_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return slots_[a].id < slots_[b].id;
              });
  } else {
    for (const std::uint32_t slot : started_) {
      if (slot != kNpos && flow_mark_[slot] == mark_stamp_ &&
          slots_[slot].down_links == 0) {
        unfixed_.push_back(slot);
      }
    }
  }
  solve_over(affected_, touched_links_);
}

void Network::solve_over(const std::vector<std::uint32_t>& flow_set,
                         const std::vector<LinkId>& links) {
  // Progressive water-filling restricted to the affected sub-problem. The
  // arithmetic mirrors solve_reference() exactly: because the sub-problem
  // is closed (no outside flow crosses a touched link), every residual,
  // crossing count, and min-share below takes the same values the full
  // solve would produce for these flows — rates stay bit-identical.
  stats_.flow_visits += flow_set.size();
  // Flows routed through a down link stall: rate 0, excluded from
  // water-filling so they don't claim shares on their healthy links. Every
  // unfixed flow gets its rate below.
  for (const std::uint32_t slot : flow_set) {
    if (slots_[slot].down_links != 0) set_rate(slot, 0.0);
  }
  if (unfixed_.empty()) return;
  for (const LinkId l : links) crossing_[l] = 0;
  for (const std::uint32_t slot : unfixed_) {
    for (const LinkId l : slots_[slot].route) ++crossing_[l];
  }
  live_links_.clear();
  for (const LinkId l : links) {
    if (crossing_[l] == 0) continue;
    live_links_.push_back(l);
    const double k = static_cast<double>(crossing_[l]);
    // A link's usable capacity shrinks under incast collapse when many
    // flows converge on it.
    const double collapse =
        k > 1.0 ? 1.0 + links_[l].incast_alpha * (k - 1.0) : 1.0;
    residual_[l] =
        links_[l].bandwidth_bps * link_state_[l].bandwidth_factor / collapse;
  }

  while (!unfixed_.empty()) {
    // Find the most constrained link among those carrying unfixed flows,
    // dropping links whose last unfixed flow was fixed last round.
    double min_share = std::numeric_limits<double>::infinity();
    std::size_t live = 0;
    for (const LinkId l : live_links_) {
      if (crossing_[l] == 0) continue;
      live_links_[live++] = l;
      min_share = std::min(min_share,
                           residual_[l] / static_cast<double>(crossing_[l]));
    }
    live_links_.resize(live);
    OSP_CHECK(min_share < std::numeric_limits<double>::infinity(),
              "water-filling found no constrained link");
    // Fix every unfixed flow that crosses a link achieving min_share.
    stats_.flow_visits += unfixed_.size();
    still_unfixed_.clear();
    for (const std::uint32_t slot : unfixed_) {
      Flow& flow = slots_[slot];
      bool bottlenecked = false;
      for (const LinkId l : flow.route) {
        const double share =
            residual_[l] / static_cast<double>(crossing_[l]);
        if (share <= min_share * (1.0 + 1e-12)) {
          bottlenecked = true;
          break;
        }
      }
      if (bottlenecked) {
        set_rate(slot, min_share);
        for (const LinkId l : flow.route) {
          residual_[l] -= min_share;
          --crossing_[l];
        }
      } else {
        still_unfixed_.push_back(slot);
      }
    }
    // Guard against numerical stalls: if nothing was fixed, fix everything
    // remaining at the current min share.
    if (still_unfixed_.size() == unfixed_.size()) {
      for (const std::uint32_t slot : unfixed_) {
        set_rate(slot, min_share);
        for (const LinkId l : slots_[slot].route) {
          residual_[l] -= min_share;
          --crossing_[l];
        }
      }
      still_unfixed_.clear();
    }
    unfixed_.swap(still_unfixed_);
  }
}

void Network::solve_reference() {
  // The pre-incremental algorithm: water-fill from scratch over every flow
  // and every link. Kept as the ground truth the incremental solver is
  // asserted against, and as the "before" configuration for benches.
  affected_.clear();
  touched_links_.clear();
  unfixed_.clear();
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (!slots_[slot].in_use) continue;
    affected_.push_back(slot);
    if (slots_[slot].down_links == 0) unfixed_.push_back(slot);
  }
  std::sort(unfixed_.begin(), unfixed_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return slots_[a].id < slots_[b].id;
            });
  for (LinkId l = 0; l < links_.size(); ++l) touched_links_.push_back(l);
  ++stats_.full_solves;
  solve_over(affected_, touched_links_);
}

void Network::verify_against_reference() {
  rate_snapshot_.clear();
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].in_use) rate_snapshot_.emplace_back(slot, slots_[slot].rate);
  }
  // The reference run is verification overhead, not solver work: keep it
  // out of the counters the benches report.
  const SolveStats saved = stats_;
  solve_reference();
  stats_ = saved;
  for (const auto& [slot, rate] : rate_snapshot_) {
    OSP_CHECK(slots_[slot].rate == rate,
              "incremental rate solver diverged from reference");
  }
}

void Network::schedule_next_completion() {
  if (num_flows_ == 0) return;
  // Find the earliest-finishing flow under current rates. Only flows with
  // a nonzero rate can finish, so the scan touches the active list alone.
  double best_dt = std::numeric_limits<double>::infinity();
  FlowId best_id = 0;
  std::uint32_t best_slot = kNpos;
  for (const std::uint32_t slot : active_) {
    const Flow& flow = slots_[slot];
    const double dt = flow.wire_bytes_remaining / flow.rate;
    if (dt < best_dt || (dt == best_dt && flow.id < best_id)) {
      best_dt = dt;
      best_id = flow.id;
      best_slot = slot;
    }
  }
  if (best_slot == kNpos) {
    // Every flow is stalled. Legitimate only under a link outage — the up
    // edge will recompute rates and reschedule; anything else is a bug.
    for (const Flow& flow : slots_) {
      OSP_CHECK(!flow.in_use || flow.down_links > 0,
                "active flows but none progressing");
    }
    return;
  }
  const std::uint64_t epoch = epoch_;
  const std::uint32_t slot = best_slot;
  sim_->schedule_at(sim_->now() + best_dt, completion_seq_,
                    [this, epoch, slot] {
                      // Stale: rates changed since scheduling.
                      if (epoch != epoch_) return;
                      complete_flow(slot);
                    });
}

void Network::complete_flow(std::uint32_t slot) {
  advance_to_now();
  Flow& f = slots_[slot];
  OSP_CHECK(f.in_use, "completing unknown flow");
  const double latency = f.latency;
  std::function<void()> cb = std::move(f.on_complete);
  bytes_delivered_ += f.payload_bytes;
  payload_in_flight_ -= f.payload_bytes;
  // The flow leaves the wire when its last byte *arrives*, after the
  // route's propagation delay — match what the completion callback sees.
  if (hooks_.ended) hooks_.ended(f.id, sim_->now() + latency, false);
  seed_links_.insert(seed_links_.end(), f.route.begin(), f.route.end());
  remove_flow(slot);
  // Last byte leaves now; it arrives after the route's propagation delay.
  // The callback's event takes its seq before mark_stale() reserves the
  // next completion's, which fixes their tie order.
  if (cb != nullptr) {
    sim_->schedule(latency, std::move(cb));
  }
  mark_stale();
}

void Network::save_state(util::serde::Writer& w) const {
  OSP_CHECK(num_flows_ == 0,
            "network checkpoint requires a quiescent network (flows in "
            "flight)");
  w.u8(1);  // network state version
  w.u64(link_state_.size());
  for (const LinkState& ls : link_state_) {
    w.boolean(ls.up);
    w.f64(ls.bandwidth_factor);
    w.f64(ls.extra_loss_rate);
  }
  const util::RngState rng = inject_rng_.state();
  for (std::uint64_t word : rng.s) w.u64(word);
  w.boolean(rng.have_spare_normal);
  w.f64(rng.spare_normal);
  w.u64(next_flow_id_);
  w.f64(bytes_delivered_);
  w.u64(flows_cancelled_);
  w.u64(messages_dropped_);
  w.u64(messages_delayed_);
}

void Network::load_state(util::serde::Reader& r) {
  OSP_CHECK(num_flows_ == 0, "network restore requires no flows in flight");
  const std::uint8_t version = r.u8();
  OSP_CHECK(version == 1, "unsupported network state version");
  const std::uint64_t n = r.u64();
  OSP_CHECK(n == link_state_.size(),
            "checkpoint link count does not match topology");
  for (LinkState& ls : link_state_) {
    ls.up = r.boolean();
    ls.bandwidth_factor = r.f64();
    ls.extra_loss_rate = r.f64();
  }
  util::RngState rng;
  for (std::uint64_t& word : rng.s) word = r.u64();
  rng.have_spare_normal = r.boolean();
  rng.spare_normal = r.f64();
  inject_rng_.set_state(rng);
  next_flow_id_ = r.u64();
  bytes_delivered_ = r.f64();
  flows_cancelled_ = static_cast<std::size_t>(r.u64());
  messages_dropped_ = static_cast<std::size_t>(r.u64());
  messages_delayed_ = static_cast<std::size_t>(r.u64());
}

}  // namespace osp::sim
