// The parameter-server side of a fenced push → aggregate → broadcast
// exchange, shared by every model that trains through the PS hosts
// (sync::BspSync, core::OspSync).
//
// It owns the block → shard layout (kv::Partition), the versioned key
// store, the replica chains (kv/replication.hpp) and, per logical shard,
// the host serving it plus an epoch fence. Pushes are worker-owned flows
// addressed to a shard's serving host; every failover bumps the shard's
// epoch, which voids whatever was still in flight to the deposed host.
//
// On a PS crash or restart each affected shard is repointed at the first
// alive host of its chain: the version-predicate catch-up ships the stale
// segments there (priced on the new host's serial queue) and the owning
// model gets the shard back to re-drive what the old host owed — re-push
// the open round, re-broadcast an aggregated round whose answer died with
// the queue. Re-driving never re-applies a step, so segment versions stay
// monotone.
//
// On a healthy run every call here is bookkeeping plus the flows the model
// asks for, so the trajectory goldens stay bitwise identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "kv/partition.hpp"
#include "kv/replication.hpp"
#include "kv/store.hpp"

namespace osp::runtime {
class Engine;
}  // namespace osp::runtime

namespace osp::util::serde {
class Writer;
class Reader;
}  // namespace osp::util::serde

namespace osp::sync {

class PsExchange {
 public:
  static constexpr std::size_t npos = kv::ReplicaTable::npos;

  /// Lay the engine's blocks out over the cluster's PS hosts: byte-balanced
  /// by `key_bytes`, or — with `whole_model` — as one logical shard that is
  /// primary on host 0 with its backup on the ring successor. `key_bytes[b]`
  /// also prices block b's catch-up shipment.
  void attach(runtime::Engine& eng, std::vector<double> key_bytes,
              bool whole_model);

  /// Logical shards that carry keys (1 for a whole-model exchange).
  [[nodiscard]] std::size_t num_shards() const { return keys_.size(); }
  /// Shard owning block `b`.
  [[nodiscard]] std::size_t owner(std::size_t b) const {
    return part_.owner[b];
  }
  /// Shard p's blocks as a keep mask (keep[b] != 0 ⇔ p owns b).
  [[nodiscard]] const std::vector<std::uint8_t>& keys(std::size_t p) const {
    return keys_[p];
  }
  /// Sum of `key_bytes` over shard p's blocks.
  [[nodiscard]] double shard_bytes(std::size_t p) const {
    return shard_bytes_[p];
  }
  /// Host serving shard p, or npos while its whole chain is down.
  [[nodiscard]] std::size_t serving(std::size_t p) const {
    return serving_[p];
  }
  [[nodiscard]] const kv::KvStore& store() const { return store_; }
  /// Stale backup segments across the key space (telemetry).
  [[nodiscard]] std::size_t replica_lag() const { return replica_.lag(store_); }

  /// Send `bytes` from `worker` to shard p's serving host. `arrived` runs on
  /// delivery unless p was repointed in the meantime. Returns false (and
  /// sends nothing) while p's whole chain is down: the owner re-pushes when
  /// a restart repoints the shard.
  bool push(std::size_t worker, std::size_t p, double bytes,
            std::function<void()> arrived);
  /// Send `bytes` from PS `host` to `worker`.
  void respond(std::size_t worker, std::size_t host, double bytes,
               std::function<void()> done);

  /// The PS applied an update to every key with keep[k] != 0: bump their
  /// versions (the async replica stream trails by one update).
  void applied(std::span<const std::uint8_t> keep);

  /// agg = Σ weight_w · grad(w) over the contributors. Weights are the
  /// workers' sample shares (§2.1.1); a partial round renormalizes them over
  /// the contributors, and returns false — nothing to apply — when they sum
  /// to zero. With `p` != npos only shard p's blocks of `agg` are written
  /// (a shard owning every key aggregates the flat vector in one pass).
  [[nodiscard]] bool aggregate(
      const std::vector<bool>& contributors,
      const std::function<std::span<const float>(std::size_t)>& grad,
      std::vector<float>& agg, std::size_t p = npos) const;

  /// PS fault hooks: repoint every shard whose serving host changed, then
  /// hand it to `redrive` (also when the whole chain is down). `round` is
  /// the telemetry round the promotion is recorded on.
  using Redrive = std::function<void(std::size_t p)>;
  void on_ps_crashed(std::size_t host, std::uint64_t round,
                     const Redrive& redrive);
  void on_ps_restarted(std::size_t host, std::uint64_t round,
                       const Redrive& redrive);

  void save_state(util::serde::Writer& w) const;
  void load_state(util::serde::Reader& r);

 private:
  void repoint(std::size_t p, std::uint64_t round, const Redrive& redrive);

  runtime::Engine* eng_ = nullptr;
  kv::Partition part_;
  std::vector<std::vector<std::uint8_t>> keys_;  ///< per shard keep mask
  std::vector<double> shard_bytes_;
  kv::KvStore store_;
  kv::ReplicaTable replica_;
  std::vector<std::size_t> serving_;   ///< logical shard → host
  std::vector<std::uint64_t> epoch_;   ///< bumped at every repoint
};

}  // namespace osp::sync
