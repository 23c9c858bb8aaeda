#include "sync/ps_exchange.hpp"

#include <utility>

#include "runtime/engine.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"
#include "util/vec_math.hpp"

namespace osp::sync {

void PsExchange::attach(runtime::Engine& eng, std::vector<double> key_bytes,
                        bool whole_model) {
  eng_ = &eng;
  const std::size_t hosts = eng.cluster().num_ps();
  if (whole_model) {
    part_.num_shards = hosts;
    part_.owner.assign(eng.num_blocks(), 0);
  } else {
    part_ = kv::byte_balanced_partition(key_bytes, hosts);
  }
  const std::size_t shards = whole_model ? 1 : hosts;
  keys_.assign(shards, std::vector<std::uint8_t>(eng.num_blocks(), 0));
  for (std::size_t b = 0; b < eng.num_blocks(); ++b) {
    keys_[part_.owner[b]][b] = 1;
  }
  shard_bytes_ = kv::partition_bytes(key_bytes, part_);
  shard_bytes_.resize(shards);
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> numels;
  for (const auto& b : eng.blocks()) {
    offsets.push_back(b.offset);
    numels.push_back(b.numel);
  }
  store_.init(offsets, numels);
  replica_.init(part_, key_bytes);
  serving_.resize(shards);
  for (std::size_t p = 0; p < shards; ++p) serving_[p] = p;
  epoch_.assign(shards, 0);
}

bool PsExchange::push(std::size_t worker, std::size_t p, double bytes,
                      std::function<void()> arrived) {
  const std::size_t host = serving_[p];
  if (host == npos) return false;
  const std::uint64_t epoch = epoch_[p];
  eng_->worker_transfer(
      worker, eng_->cluster().route_to_ps(worker, host), bytes,
      [this, p, epoch, arrived = std::move(arrived)] {
        if (epoch != epoch_[p]) return;  // landed at a deposed host
        arrived();
      });
  return true;
}

void PsExchange::respond(std::size_t worker, std::size_t host, double bytes,
                         std::function<void()> done) {
  eng_->worker_transfer(worker, eng_->cluster().route_from_ps(worker, host),
                        bytes, std::move(done));
}

void PsExchange::applied(std::span<const std::uint8_t> keep) {
  store_.bump_selected(keep);
  for (std::size_t k = 0; k < keep.size(); ++k) {
    if (keep[k] == 0) continue;
    const auto key = static_cast<kv::Key>(k);
    replica_.note_update(key, store_.version(key));
  }
}

bool PsExchange::aggregate(
    const std::vector<bool>& contributors,
    const std::function<std::span<const float>(std::size_t)>& grad,
    std::vector<float>& agg, std::size_t p) const {
  const runtime::Engine& e = *eng_;
  const std::size_t n = e.num_workers();
  std::size_t count = 0;
  double weight_sum = 0.0;
  for (std::size_t w = 0; w < n; ++w) {
    if (!contributors[w]) continue;
    ++count;
    weight_sum += e.worker_weight(w);
  }
  // A contributor set whose weights sum to zero closes as a no-op instead
  // of dividing by zero (the full-round path never divides).
  if (count != n && weight_sum <= 0.0) return false;
  // The element ranges written: the flat vector, or the shard's blocks.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  if (p == npos || num_shards() == 1) {
    agg.assign(e.global_params().size(), 0.0f);
    ranges.emplace_back(0, agg.size());
  } else {
    agg.resize(e.global_params().size());
    for (std::size_t b = 0; b < e.num_blocks(); ++b) {
      if (keys_[p][b] == 0) continue;
      const auto& info = e.blocks()[b];
      ranges.emplace_back(info.offset, info.numel);
      util::fill(std::span<float>(agg).subspan(info.offset, info.numel),
                 0.0f);
    }
  }
  for (std::size_t w = 0; w < n; ++w) {
    if (!contributors[w]) continue;
    const double weight =
        count == n ? e.worker_weight(w) : e.worker_weight(w) / weight_sum;
    const std::span<const float> g = grad(w);
    for (const auto& [offset, numel] : ranges) {
      util::axpy(static_cast<float>(weight), g.subspan(offset, numel),
                 std::span<float>(agg).subspan(offset, numel));
    }
  }
  return true;
}

void PsExchange::on_ps_crashed(std::size_t host, std::uint64_t round,
                               const Redrive& redrive) {
  replica_.set_alive(host, false);
  for (std::size_t p = 0; p < num_shards(); ++p) {
    if (serving_[p] == host) repoint(p, round, redrive);
  }
}

void PsExchange::on_ps_restarted(std::size_t host, std::uint64_t round,
                                 const Redrive& redrive) {
  replica_.set_alive(host, true);
  for (std::size_t p = 0; p < num_shards(); ++p) {
    if (replica_.serving(p) != serving_[p]) repoint(p, round, redrive);
  }
}

void PsExchange::repoint(std::size_t p, std::uint64_t round,
                         const Redrive& redrive) {
  runtime::Engine& e = *eng_;
  const std::size_t target = replica_.serving(p);
  serving_[p] = target;
  ++epoch_[p];  // flows addressed to the deposed host are void on arrival
  if (target != npos) {
    // Version-predicate catch-up: ship exactly the segments whose tail
    // update had not reached the replica, and charge the new host's queue.
    const double shipped = replica_.catch_up(p, store_);
    e.record_ps_promotion(shipped);
    runtime::SyncTelemetry& rec = e.telemetry_round(round);
    ++rec.promotions;
    rec.catch_up_bytes += shipped;
    if (shipped > 0.0) {
      e.ps_submit(e.ps_apply_delay(shipped, 1.0), [] {}, target);
    }
  }
  redrive(p);
}

void PsExchange::save_state(util::serde::Writer& w) const {
  w.size_vec(serving_);
  w.u64_vec(epoch_);
  replica_.save_state(w);
  store_.save_state(w);
}

void PsExchange::load_state(util::serde::Reader& r) {
  serving_ = r.size_vec();
  epoch_ = r.u64_vec();
  OSP_CHECK(serving_.size() == num_shards() && epoch_.size() == num_shards(),
            "PS exchange checkpoint shard count mismatch");
  replica_.load_state(r);
  store_.load_state(r);
}

}  // namespace osp::sync
