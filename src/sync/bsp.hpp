// Bulk Synchronous Parallel (§2.1.2) — the one BSP-family model.
//
// Every iteration each worker pushes its gradient to the parameter
// servers (simultaneously — the incast), the PS averages the round's
// gradients, takes one optimizer step and answers with the updated
// parameters; a worker resumes only once every answer has landed (global
// barrier).
//
// The exchange runs on PsExchange (sync/ps_exchange.hpp). Without a filter
// pipeline the parameters are byte-balanced across the cluster's P PS
// hosts and each shard closes its barrier on its own, on its own serial
// queue (BytePS-style, §6.1); the gradients stay by reference in the
// workers' buffers. Plain BSP is the one-PS case. With a pipeline
// (key-cache, GIB significance filtering, top-k / random-k sparsification
// with optional error feedback, int8 quantization — composed in that
// order) every push is one encoded whole-model message to a single logical
// shard (primary on host 0, ring-successor backup), and the PS trains on
// the pipeline's decoded receiver view.
//
// Survival contract (fault injection): pushes are tagged with their round
// so late pushes are recognized. A crashed worker stops gating the barrier
// (its contribution is kept if it already arrived). With a configured
// rs_timeout_s a round closes after the deadline with the N−k arrivals it
// has (weights renormalized); healthy workers whose push missed the round
// — stalled, dropped, or simply late — are resynced with a full parameter
// pull, and a watchdog keeps retrying while anyone still waits, so the
// cluster never deadlocks. A PS crash repoints the shard at its backup:
// workers re-push the open round to the new host and an aggregated round
// whose broadcast died with the queue is re-broadcast, never re-applied.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kv/filter.hpp"
#include "kv/message.hpp"
#include "runtime/sync_model.hpp"
#include "sync/ps_exchange.hpp"

namespace osp::sync {

/// How a BSP round's messages are charged on the wire. Each case is a
/// formula the trajectory goldens pin.
enum class Accounting {
  /// Real-model bytes (Engine::block_bytes). On one PS the exchange is a
  /// plain model-sized transfer each way; with P > 1 shards, or with a
  /// pipeline, every message carries the KV frame (kv::kFrameOverheadBytes).
  /// Answers to a pipeline's pushes are reduced like them: the union support
  /// of a sparsified aggregate (at most the dense size), a quarter plus the
  /// scale under int8.
  kModel,
  /// Real-model bytes, framed even on one PS.
  kFramed,
  /// The proxy's own fp32 bytes (4 per element), framed, answers dense: one
  /// self-consistent scale, so pipeline compositions compare directly (the
  /// EXPERIMENTS.md wire-bytes table).
  kProxy,
};

struct BspOptions {
  Accounting accounting = Accounting::kModel;
  /// Key-cache stage: the first push pays its key list, repeats an 8-byte
  /// signature.
  bool key_cache = false;
  /// GIB stage: the fraction of total block bytes that travels (by
  /// descending per-block mean |aggregate|, recomputed every round; round
  /// 1 sends everything). Outside (0, 1) the stage is omitted.
  double gib_keep_fraction = -1.0;
  /// Sparsification stage over the (post-GIB) payload: top-k or random-k,
  /// keeping `keep_fraction` of the elements. Outside (0, 1) the stage is
  /// omitted. The selection RNG is seeded once, at construction.
  kv::CompressionMode sparsify = kv::CompressionMode::TopK;
  double keep_fraction = -1.0;
  std::uint64_t seed = 99;
  /// Per-worker residual memory (DGC-style): the mass a lossy stage dropped
  /// is added back into the next gradient before it is encoded.
  bool error_feedback = false;
  /// Int8 quantization stage (composes after the sparsifier).
  bool quantize_int8 = false;
};

class BspSync : public runtime::SyncModel {
 public:
  explicit BspSync(BspOptions options = {});
  explicit BspSync(runtime::SyncTimeouts timeouts) : BspSync() {
    set_timeouts(timeouts);
  }

  [[nodiscard]] std::string name() const override;
  void attach(runtime::Engine& eng) override;
  void on_gradient_ready(std::size_t worker) override;
  void on_worker_crashed(std::size_t worker) override;
  void on_ps_crashed(std::size_t ps) override;
  void on_ps_restarted(std::size_t ps) override;
  void save_state(util::serde::Writer& w) const override;
  void load_state(util::serde::Reader& r) override;
  [[nodiscard]] bool drained() const override;

  /// Barrier rounds closed so far (SyncSwitch seeds ASP's telemetry round
  /// numbering from this at the switch point).
  [[nodiscard]] std::uint64_t rounds_closed() const;
  /// Host currently serving logical shard `p`.
  [[nodiscard]] std::size_t serving_host(std::size_t p = 0) const {
    return exchange_.serving(p);
  }
  /// Summed push wire bytes of the last closed round (pipeline configs).
  [[nodiscard]] double last_round_push_bytes() const {
    return last_round_push_bytes_;
  }

 private:
  [[nodiscard]] bool encoded() const { return pipeline_.size() > 0 || proxy(); }
  [[nodiscard]] bool proxy() const {
    return options_.accounting == Accounting::kProxy;
  }
  /// Run worker w's gradient through the pipeline into its inbox message.
  void encode(std::size_t worker);
  void push(std::size_t worker, std::size_t p);
  void arm_timer(std::size_t p);
  void on_push_arrived(std::size_t p, std::size_t worker,
                       std::uint64_t round);
  void maybe_close(std::size_t p);
  void close(std::size_t p);
  /// Queue shard p's answer to its last aggregated round on its host.
  void broadcast(std::size_t p);
  /// Shard p was repointed: re-drive what the deposed host owed.
  void redrive(std::size_t p);
  void catch_up(std::size_t worker);
  /// Recompute the GIB keep mask from per-block mean |agg| under the byte
  /// budget (descending importance, always >= 1 block).
  void update_gib_selection();
  /// Closes summed over the shards.
  [[nodiscard]] std::uint64_t shard_closes() const;
  /// Dense wire bytes of shard p at the accounting's scale.
  [[nodiscard]] double dense_bytes(std::size_t p) const;

  BspOptions options_;
  kv::FilterPipeline pipeline_;
  kv::TopKFilter* sparsifier_ = nullptr;  // owned by pipeline_
  kv::GibFilter* gib_ = nullptr;          // owned by pipeline_
  PsExchange exchange_;
  std::size_t num_ps_ = 1;
  double frame_ = 0.0;        ///< per-message frame bytes (0: plain BSP)
  double model_wire_ = 0.0;   ///< whole model at the accounting's scale
  bool survival_ = false;     ///< faults/timeouts in play (see attach)

  // ---- per shard ----
  std::vector<std::uint64_t> round_;     ///< rounds closed; collecting +1
  std::vector<std::vector<bool>> arrived_;  ///< [p][w] this round
  std::vector<std::size_t> arrived_count_;
  std::vector<std::uint8_t> timer_armed_;
  std::vector<std::uint8_t> outstanding_;   ///< aggregated, not answered
  std::vector<std::size_t> resp_host_;      ///< host the answer queued on
  std::vector<std::vector<bool>> resp_to_;  ///< [p][w] contributors
  std::vector<double> resp_bytes_;
  std::vector<double> resp_delay_bytes_;

  // ---- per worker ----
  std::vector<std::vector<std::uint8_t>> owed_;  ///< [p][w] answer pending
  std::vector<std::vector<std::uint64_t>> push_round_;  ///< [p][w]
  std::vector<std::size_t> pending_;  ///< shards whose answer is owed
  std::vector<kv::KvMessage> inbox_;  ///< encoded pushes (pipeline only)
  std::vector<std::vector<float>> residual_;  ///< error-feedback memory

  std::vector<float> agg_;
  std::vector<std::uint8_t> gib_keep_;
  double push_bytes_ = 0.0;  ///< encoded bytes pushed this round
  double last_round_push_bytes_ = 0.0;
};

}  // namespace osp::sync
