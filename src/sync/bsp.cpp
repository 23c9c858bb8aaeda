#include "sync/bsp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "runtime/engine.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"
#include "util/simd.hpp"
#include "util/vec_math.hpp"

namespace osp::sync {

BspSync::BspSync(BspOptions options) : options_(options) {
  // Stage order is the composition contract: key addressing first, then
  // the block-level GIB projection, then element-level sparsification over
  // the survivors, then the int8 value transform (it divides whatever
  // value bytes remain). Stages (and the selection RNG) are built once
  // here, so re-attaching never rewinds a stream.
  if (options_.key_cache) {
    pipeline_.add(std::make_unique<kv::KeyCacheFilter>());
  }
  if (options_.gib_keep_fraction > 0.0 && options_.gib_keep_fraction < 1.0) {
    gib_ = static_cast<kv::GibFilter*>(&pipeline_.add(
        std::make_unique<kv::GibFilter>(/*attach_bitmap=*/true)));
  }
  if (options_.keep_fraction > 0.0 && options_.keep_fraction < 1.0) {
    sparsifier_ = static_cast<kv::TopKFilter*>(
        &pipeline_.add(std::make_unique<kv::TopKFilter>(
            options_.sparsify, options_.keep_fraction, options_.seed)));
  }
  if (options_.quantize_int8) {
    pipeline_.add(std::make_unique<kv::QuantizeInt8Filter>());
  }
}

std::string BspSync::name() const {
  std::string n;
  if (proxy()) {
    n = pipeline_.size() == 0 ? "KvBSP" : "KvBSP[" + pipeline_.name() + "]";
  } else if (pipeline_.size() == 0) {
    return options_.accounting == Accounting::kModel &&
                   num_ps_ == 1
               ? "BSP"
               : "BSP(x" + std::to_string(num_ps_) + "PS)";
  } else if (pipeline_.size() == 1 && sparsifier_ != nullptr) {
    // %g keeps the exact fraction ("12.5%"), not a truncated integer.
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%g", options_.keep_fraction * 100.0);
    n = std::string(options_.sparsify == kv::CompressionMode::TopK
                        ? "TopK("
                        : "RandomK(") +
        pct + "%)";
  } else if (pipeline_.size() == 1 && options_.quantize_int8) {
    n = "Q8-BSP";
  } else {
    n = "BSP[" + pipeline_.name() + "]";
  }
  if (options_.error_feedback) n += "+EF";
  return n;
}

void BspSync::attach(runtime::Engine& eng) {
  SyncModel::attach(eng);
  const std::size_t n = eng.num_workers();
  num_ps_ = eng.cluster().num_ps();
  std::vector<double> key_bytes = eng.all_block_bytes();
  if (proxy()) {
    for (std::size_t b = 0; b < eng.num_blocks(); ++b) {
      key_bytes[b] = 4.0 * static_cast<double>(eng.blocks()[b].numel);
    }
  }
  model_wire_ = proxy() ? 4.0 * static_cast<double>(eng.global_params().size())
                        : eng.model_bytes();
  // Only the historical single-PS model exchange travels unframed.
  frame_ = options_.accounting == Accounting::kModel &&
                   !encoded() && num_ps_ == 1
               ? 0.0
               : kv::kFrameOverheadBytes;
  // A pipeline filters the whole gradient vector, so it pushes to one
  // logical shard.
  exchange_.attach(eng, key_bytes, /*whole_model=*/encoded());
  if (gib_ != nullptr) {
    std::vector<kv::GibFilter::Block> blocks;
    for (std::size_t b = 0; b < eng.num_blocks(); ++b) {
      blocks.push_back(
          {eng.blocks()[b].offset, eng.blocks()[b].numel, key_bytes[b]});
    }
    gib_->set_blocks(std::move(blocks));
    gib_keep_.assign(eng.num_blocks(), 1);  // round 1: everything travels
    gib_->set_selection(gib_keep_);
  }
  if (encoded()) {
    inbox_.assign(n, kv::KvMessage{});
    for (kv::KvMessage& m : inbox_) {
      m.values.assign(eng.global_params().size(), 0.0f);
    }
  }
  if (options_.error_feedback) {
    residual_.assign(n, std::vector<float>(eng.global_params().size(), 0.0f));
  }
  const std::size_t shards = exchange_.num_shards();
  round_.assign(shards, 0);
  arrived_.assign(shards, std::vector<bool>(n, false));
  arrived_count_.assign(shards, 0);
  timer_armed_.assign(shards, 0);
  outstanding_.assign(shards, 0);
  resp_host_.assign(shards, 0);
  resp_to_.assign(shards, std::vector<bool>(n, false));
  resp_bytes_.assign(shards, 0.0);
  resp_delay_bytes_.assign(shards, 0.0);
  owed_.assign(shards, std::vector<std::uint8_t>(n, 0));
  push_round_.assign(shards, std::vector<std::uint64_t>(n, 0));
  pending_.assign(n, 0);
  push_bytes_ = 0.0;
  last_round_push_bytes_ = 0.0;
  // The survival contract (a worker that finished its epochs no longer
  // gates the barrier) only engages when faults or timeouts are in play.
  // On a clean run the historical semantics hold: the barrier waits for
  // every worker, so a straggler with leftover iterations stalls once the
  // others finish and the run ends at the drained event queue.
  survival_ = timeouts().rs_timeout_s > 0.0 ||
              !eng.config().faults.events().empty();
}

std::uint64_t BspSync::shard_closes() const {
  return std::accumulate(round_.begin(), round_.end(), std::uint64_t{0});
}

std::uint64_t BspSync::rounds_closed() const {
  // The shards of one logical barrier close one after another.
  return shard_closes() / std::max<std::size_t>(round_.size(), 1);
}

double BspSync::dense_bytes(std::size_t p) const {
  return exchange_.num_shards() == 1 ? model_wire_ : exchange_.shard_bytes(p);
}

void BspSync::on_gradient_ready(std::size_t worker) {
  if (encoded()) encode(worker);
  const std::size_t shards = exchange_.num_shards();
  pending_[worker] = shards;
  for (std::size_t p = 0; p < shards; ++p) {
    owed_[p][worker] = 1;
    push_round_[p][worker] = round_[p] + 1;
    push(worker, p);
  }
  for (std::size_t p = 0; p < shards; ++p) arm_timer(p);
}

void BspSync::encode(std::size_t worker) {
  runtime::Engine& e = eng();
  const std::span<const float> grad = e.worker_gradient(worker);
  kv::KvMessage& m = inbox_[worker];
  m.begin(kv::Op::kPush, static_cast<std::uint32_t>(worker), round_[0] + 1,
          exchange_.store().key_range());
  if (options_.error_feedback) {
    // Fold the previously dropped mass back in before encoding, writing
    // grad + residual to both the transmit buffer and the residual in one
    // pass (the residual copy is what sub() consumes below).
    util::simd::kernels().add_copy2(grad.data(), residual_[worker].data(),
                                    m.values.data(),
                                    residual_[worker].data(), grad.size());
  } else {
    util::copy(grad, m.values);
  }
  m.dense_numel = grad.size();
  m.dense_value_bytes = m.value_bytes = model_wire_;
  pipeline_.encode(m);
  if (options_.error_feedback) {
    // residual = (grad + residual) − transmitted.
    util::sub(residual_[worker], m.values, residual_[worker]);
  }
  push_bytes_ += m.wire_bytes();
}

void BspSync::push(std::size_t worker, std::size_t p) {
  const double bytes =
      encoded() ? inbox_[worker].wire_bytes() : dense_bytes(p) + frame_;
  const std::uint64_t r = push_round_[p][worker];
  // With the whole chain down the push stays owed and is re-issued when a
  // restart repoints the shard.
  exchange_.push(worker, p, bytes, [this, p, worker, r] {
    on_push_arrived(p, worker, r);
  });
}

void BspSync::arm_timer(std::size_t p) {
  const double deadline = timeouts().rs_timeout_s;
  if (deadline <= 0.0 || timer_armed_[p] != 0) return;
  timer_armed_[p] = 1;
  const std::uint64_t r = round_[p] + 1;
  eng().sim().schedule(deadline, [this, p, r] {
    if (r != round_[p] + 1) return;  // the round closed naturally
    timer_armed_[p] = 0;
    // Quiescent expiry (e.g. the watchdog armed at the last close of the
    // run): nothing arrived and nobody is stuck — not a timeout.
    runtime::Engine& e = eng();
    bool pending = arrived_count_[p] > 0;
    for (std::size_t w = 0; w < e.num_workers() && !pending; ++w) {
      pending = owed_[p][w] != 0 && e.worker_alive(w);
    }
    if (!pending) return;
    e.record_round_timeout();
    close(p);
    ++e.telemetry_round(rounds_closed()).timeouts;
  });
}

void BspSync::on_push_arrived(std::size_t p, std::size_t worker,
                              std::uint64_t round) {
  if (round != round_[p] + 1) {
    // Late push from a round that already closed: the gradient is stale —
    // discard it and resync the worker so it can rejoin.
    if (owed_[p][worker] != 0 && eng().worker_alive(worker)) {
      catch_up(worker);
    }
    return;
  }
  if (arrived_[p][worker]) return;  // a re-push raced its original
  arrived_[p][worker] = true;
  ++arrived_count_[p];
  maybe_close(p);
}

void BspSync::on_worker_crashed(std::size_t worker) {
  // Its flows are cancelled; nothing to answer.
  for (auto& owed : owed_) owed[worker] = 0;
  pending_[worker] = 0;
  // The barriers may now be satisfiable.
  for (std::size_t p = 0; p < exchange_.num_shards(); ++p) maybe_close(p);
}

void BspSync::maybe_close(std::size_t p) {
  if (arrived_count_[p] == 0) return;
  runtime::Engine& e = eng();
  for (std::size_t w = 0; w < e.num_workers(); ++w) {
    if (arrived_[p][w] || !e.worker_alive(w)) continue;
    if (survival_ && e.worker_done(w)) continue;
    // A stuck worker (awaiting the answer to an older round, e.g. one whose
    // broadcast was dropped) will never push again — the timeout path
    // resyncs it; everyone else we genuinely wait for.
    if (owed_[p][w] != 0 && push_round_[p][w] <= round_[p]) continue;
    return;
  }
  close(p);
}

void BspSync::close(std::size_t p) {
  runtime::Engine& e = eng();
  const std::size_t n = e.num_workers();
  const std::vector<bool> contributors = arrived_[p];
  const std::size_t contributed = arrived_count_[p];
  ++round_[p];
  timer_armed_[p] = 0;
  arrived_[p].assign(n, false);
  arrived_count_[p] = 0;
  // The shard closes of one logical barrier share a telemetry record.
  const std::uint64_t round =
      (shard_closes() + round_.size() - 1) / round_.size();
  runtime::SyncTelemetry& rec = record_full_round(round, contributed);
  if (encoded()) {
    // Telemetry reports the encoded wire bytes the round's pushes cost.
    rec.important_bytes = push_bytes_;
    last_round_push_bytes_ = push_bytes_;
    push_bytes_ = 0.0;
  }

  // Resync healthy workers whose push missed the round (still owed an
  // answer but not among this round's contributors). A worker stays owed
  // until some answer is delivered, so a lost catch-up pull is retried at
  // the next round close; duplicate deliveries no-op.
  bool resyncing = false;
  for (std::size_t w = 0; w < n; ++w) {
    if (owed_[p][w] != 0 && e.worker_alive(w)) {
      resyncing = true;
      if (!contributors[w]) catch_up(w);
    }
  }
  // Watchdog: while any healthy worker still waits on an answer, keep a
  // timer armed so a dropped broadcast or catch-up pull is retried at the
  // next expiry instead of deadlocking the cluster.
  if (resyncing && !e.stopping()) arm_timer(p);
  if (contributed == 0) return;  // nothing arrived: no step this round

  if (encoded()) {
    // Symmetry rule: in-memory delivery kept the dense receiver view, so
    // decode is a structural no-op — the PS trains on what a decode of the
    // serialized compact form would reproduce.
    for (std::size_t w = 0; w < n; ++w) {
      if (contributors[w]) pipeline_.decode(inbox_[w]);
    }
  }
  const bool ok = exchange_.aggregate(
      contributors,
      [this](std::size_t w) -> std::span<const float> {
        return encoded() ? std::span<const float>(inbox_[w].values)
                         : eng().worker_gradient(w);
      },
      agg_, p);
  if (!ok) return;
  if (exchange_.num_shards() == 1) {
    e.apply_global_step(agg_);
  } else {
    const std::vector<std::uint8_t>& keys = exchange_.keys(p);
    e.apply_global_step_blocks(agg_,
                               std::vector<bool>(keys.begin(), keys.end()));
  }
  exchange_.applied(exchange_.keys(p));
  update_gib_selection();
  // Plain BSP moves raw model bytes, not replicated KV segments.
  if (frame_ != 0.0) {
    e.telemetry_round(round).replica_lag = exchange_.replica_lag();
  }

  // The answer. PS cost: the final optimizer application (read aggregate,
  // read+write params = 3 memory passes); per-push accumulation streams
  // with the incast arrivals and stays off the critical path.
  double bytes = dense_bytes(p);
  double delay_bytes = bytes;
  if (!proxy() && encoded()) {
    if (sparsifier_ != nullptr) {
      // Only the touched entries travel back: the aggregate's support.
      std::size_t support = 0;
      for (float v : agg_) support += v != 0.0f ? 1 : 0;
      bytes = std::min(bytes, static_cast<double>(support) * 8.0);
    }
    delay_bytes = bytes;
    if (options_.quantize_int8) bytes = bytes / 4.0 + 4.0;
  }
  resp_bytes_[p] = bytes;
  resp_delay_bytes_[p] = delay_bytes;
  resp_to_[p] = contributors;
  outstanding_[p] = 1;
  broadcast(p);
}

void BspSync::broadcast(std::size_t p) {
  runtime::Engine& e = eng();
  const std::size_t host = exchange_.serving(p);
  if (host == PsExchange::npos) return;  // re-driven at the repoint
  resp_host_[p] = host;
  e.ps_submit(
      e.ps_apply_delay(resp_delay_bytes_[p], 3.0),
      [this, p, host] {
        runtime::Engine& en = eng();
        outstanding_[p] = 0;
        for (std::size_t w = 0; w < en.num_workers(); ++w) {
          if (!resp_to_[p][w] || !en.worker_alive(w)) continue;
          exchange_.respond(w, host, resp_bytes_[p] + frame_, [this, p, w] {
            runtime::Engine& e2 = eng();
            // Duplicate delivery (a re-broadcast after a failover, or a
            // catch-up that already answered): nothing left to install.
            if (!e2.worker_alive(w) || owed_[p][w] == 0) return;
            owed_[p][w] = 0;
            if (exchange_.num_shards() == 1) {
              util::copy(e2.global_params(), e2.worker_params(w));
            } else {
              for (std::size_t b = 0; b < e2.num_blocks(); ++b) {
                if (exchange_.owner(b) != p) continue;
                const auto& info = e2.blocks()[b];
                util::copy(
                    e2.global_params().subspan(info.offset, info.numel),
                    e2.worker_params(w).subspan(info.offset, info.numel));
              }
            }
            if (--pending_[w] == 0) e2.finish_sync(w);
          });
        }
      },
      host);
}

void BspSync::on_ps_crashed(std::size_t ps) {
  // An answer queued on the crashed host died with its queue.
  for (std::size_t p = 0; p < exchange_.num_shards(); ++p) {
    if (outstanding_[p] != 0 && resp_host_[p] == ps) {
      resp_host_[p] = PsExchange::npos;
    }
  }
  exchange_.on_ps_crashed(ps, rounds_closed() + 1,
                          [this](std::size_t p) { redrive(p); });
}

void BspSync::on_ps_restarted(std::size_t ps) {
  exchange_.on_ps_restarted(ps, rounds_closed() + 1,
                            [this](std::size_t p) { redrive(p); });
}

void BspSync::redrive(std::size_t p) {
  runtime::Engine& e = eng();
  if (exchange_.serving(p) == PsExchange::npos) return;  // await a restart
  if (outstanding_[p] != 0 && resp_host_[p] == PsExchange::npos) broadcast(p);
  // Whatever the old host had collected for the open round is gone:
  // workers that pushed to it re-push to the new host (their original
  // flows, if still in flight, are fenced by the epoch bump). The re-send
  // is real traffic, so it is charged again.
  arrived_[p].assign(e.num_workers(), false);
  arrived_count_[p] = 0;
  for (std::size_t w = 0; w < e.num_workers(); ++w) {
    if (owed_[p][w] == 0 || push_round_[p][w] != round_[p] + 1) continue;
    if (encoded()) push_bytes_ += inbox_[w].wire_bytes();
    push(w, p);
  }
}

void BspSync::catch_up(std::size_t worker) {
  runtime::Engine& e = eng();
  // The full-model pull is served by shard 0's host; with that chain down
  // it is skipped and the watchdog retries at the next expiry.
  const std::size_t src = exchange_.serving(0);
  if (src == PsExchange::npos) return;
  e.record_catch_up_pull();
  ++e.telemetry_round(rounds_closed()).retries;
  // The worker stays owed until the pull is actually delivered: if this
  // pull is dropped, the next round close retries; if several pulls end up
  // in flight, the first delivery wins and the rest no-op.
  exchange_.respond(worker, src, model_wire_ + frame_, [this, worker] {
    runtime::Engine& e2 = eng();
    if (!e2.worker_alive(worker) || pending_[worker] == 0) return;
    for (auto& owed : owed_) owed[worker] = 0;
    pending_[worker] = 0;
    util::copy(e2.global_params(), e2.worker_params(worker));
    e2.finish_sync(worker);
  });
}

void BspSync::update_gib_selection() {
  if (gib_ == nullptr) return;
  runtime::Engine& e = eng();
  const std::size_t nb = e.num_blocks();
  // Density-normalized magnitude: mean |agg| per block.
  std::vector<double> importance(nb, 0.0);
  for (std::size_t b = 0; b < nb; ++b) {
    const auto& info = e.blocks()[b];
    double sum = 0.0;
    for (std::size_t i = info.offset; i < info.offset + info.numel; ++i) {
      sum += std::abs(static_cast<double>(agg_[i]));
    }
    importance[b] = info.numel > 0 ? sum / static_cast<double>(info.numel)
                                   : 0.0;
  }
  std::vector<std::size_t> order(nb);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return importance[a] > importance[b];
                   });
  double total = 0.0;
  for (const auto& blk : gib_->blocks()) total += blk.wire_bytes;
  const double budget = options_.gib_keep_fraction * total;
  gib_keep_.assign(nb, 0);
  double kept = 0.0;
  for (std::size_t i = 0; i < nb; ++i) {
    const std::size_t b = order[i];
    if (i > 0 && kept + gib_->blocks()[b].wire_bytes > budget) continue;
    gib_keep_[b] = 1;
    kept += gib_->blocks()[b].wire_bytes;
  }
  gib_->set_selection(gib_keep_);
}

void BspSync::save_state(util::serde::Writer& w) const {
  w.u8(4);  // BSP state version (4: one model over the PS exchange)
  w.u64_vec(round_);
  exchange_.save_state(w);
  pipeline_.save_state(w);  // RNG streams, key caches
  w.bytes(gib_keep_);
  // Error-feedback residuals are true training state: losing them changes
  // every subsequent sparsification.
  w.u64(residual_.size());
  for (const auto& res : residual_) w.f32_vec(res);
}

void BspSync::load_state(util::serde::Reader& r) {
  OSP_CHECK(r.u8() == 4, "unsupported BSP state version");
  round_ = r.u64_vec();
  OSP_CHECK(round_.size() == exchange_.num_shards(),
            "BSP checkpoint shard count mismatch");
  exchange_.load_state(r);
  pipeline_.load_state(r);
  gib_keep_ = r.bytes();
  if (gib_ != nullptr) {
    OSP_CHECK(gib_keep_.size() == eng().num_blocks(),
              "BSP checkpoint GIB selection size mismatch");
    gib_->set_selection(gib_keep_);
  }
  OSP_CHECK(r.u64() == residual_.size(),
            "BSP checkpoint error-feedback residual count mismatch");
  // Read straight into the attached residual buffers (f32_into validates
  // the stored length against each buffer's size).
  for (auto& res : residual_) r.f32_into(res);
  // In-flight round bookkeeping is empty by construction at the drain
  // barrier the snapshot was taken at (attach left it so).
}

bool BspSync::drained() const {
  auto zero = [](std::size_t v) { return v == 0; };
  return std::all_of(timer_armed_.begin(), timer_armed_.end(), zero) &&
         std::all_of(arrived_count_.begin(), arrived_count_.end(), zero) &&
         std::all_of(pending_.begin(), pending_.end(), zero);
}

}  // namespace osp::sync
