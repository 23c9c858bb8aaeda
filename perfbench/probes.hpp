// Host-clock probes for the traced benchmark run.
//
// The traced run times the simulator from outside, through its public
// extension points only: forwarding decorators around nn::Layer,
// data::Dataset and runtime::SyncModel. Each decorator opens a Probes::Scope
// around the call it forwards, so the wrapped object computes exactly what
// it would unwrapped — the run's numerics and virtual clock are unchanged.
//
// Busy time is summed across every thread that calls into a probe (the
// event-loop thread and the pool threads running worker math). Separately,
// the event-loop thread's time inside its outermost probed calls is kept,
// so the loop's own time (engine, simulator heap, flow completions, waits
// on math joins) is the run's wall time minus that. Spans are kept in
// memory per thread and written as a Chrome trace after the run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "nn/sequential.hpp"
#include "runtime/sync_model.hpp"

namespace osp::perfbench {

enum class Probe : std::size_t {
  kConv2d,
  kActivation,
  kAttention,
  kLinear,
  kNnOther,
  kMakeBatch,
  kGradientReady,
  kFaultHooks,
  kCount,
};

/// Metric stem of a probe, e.g. "nn.conv2d".
[[nodiscard]] const char* probe_name(Probe p);

class Probes {
 public:
  using Clock = std::chrono::steady_clock;

  /// The constructing thread is taken as the event-loop thread.
  Probes();

  Probes(const Probes&) = delete;
  Probes& operator=(const Probes&) = delete;

  /// Times one probed call on the calling thread.
  class Scope {
   public:
    Scope(Probes& probes, Probe probe);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Probes& probes_;
    Probe probe_;
    Clock::time_point begin_;
  };

  [[nodiscard]] double busy_s(Probe p) const;
  [[nodiscard]] std::uint64_t calls(Probe p) const;
  /// Event-loop thread time inside outermost probed calls.
  [[nodiscard]] double loop_thread_probed_s() const;

  /// Write every span as Chrome trace-event JSON. False on I/O failure.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    Probe probe;
    std::int64_t begin_ns;
    std::int64_t end_ns;
  };
  struct ThreadLog {
    std::size_t index = 0;
    std::vector<Span> spans;
    std::array<std::int64_t, static_cast<std::size_t>(Probe::kCount)>
        busy_ns{};
    std::array<std::uint64_t, static_cast<std::size_t>(Probe::kCount)>
        calls{};
  };

  ThreadLog& thread_log();
  void record(Probe p, Clock::time_point begin, Clock::time_point end);

  const std::thread::id loop_thread_;
  const Clock::time_point epoch_;
  std::int64_t loop_probed_ns_ = 0;  // written by the loop thread only
  mutable std::mutex mu_;            // guards logs_ (registration, reads)
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// Wrap every layer of `model` in a timing decorator that keeps the layer's
/// name() and params(), so the FlatModel block layout is unchanged.
[[nodiscard]] nn::Sequential instrument_model(nn::Sequential model,
                                              Probes& probes);

/// Times make_batch on a dataset; size() is forwarded.
class TimedDataset final : public data::Dataset {
 public:
  TimedDataset(std::shared_ptr<const data::Dataset> inner, Probes& probes)
      : inner_(std::move(inner)), probes_(probes) {}

  [[nodiscard]] std::size_t size() const override { return inner_->size(); }
  [[nodiscard]] data::Batch make_batch(
      std::span<const std::size_t> indices) const override;

 private:
  std::shared_ptr<const data::Dataset> inner_;
  Probes& probes_;
};

/// Forwards every SyncModel entry point to `inner`, timing
/// on_gradient_ready and the fault hooks.
class TimedSync final : public runtime::SyncModel {
 public:
  TimedSync(std::unique_ptr<runtime::SyncModel> inner, Probes& probes)
      : inner_(std::move(inner)), probes_(probes) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void attach(runtime::Engine& eng) override;
  void on_gradient_ready(std::size_t worker) override;
  void on_epoch_complete(std::size_t epoch, double mean_loss) override {
    inner_->on_epoch_complete(epoch, mean_loss);
  }
  void on_worker_crashed(std::size_t worker) override;
  void on_worker_restarted(std::size_t worker) override;
  void on_ps_crashed(std::size_t ps) override;
  void on_ps_restarted(std::size_t ps) override;
  void save_state(util::serde::Writer& w) const override {
    inner_->save_state(w);
  }
  void load_state(util::serde::Reader& r) override { inner_->load_state(r); }
  [[nodiscard]] bool drained() const override { return inner_->drained(); }
  [[nodiscard]] runtime::TracePhase blocking_phase() const override {
    return inner_->blocking_phase();
  }

 private:
  std::unique_ptr<runtime::SyncModel> inner_;
  Probes& probes_;
};

}  // namespace osp::perfbench
