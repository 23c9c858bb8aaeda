#include "probes.hpp"

#include <cstdio>

#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"

namespace osp::perfbench {

namespace {

struct ThreadSlot {
  const void* owner = nullptr;
  void* log = nullptr;
};
thread_local ThreadSlot t_slot;
thread_local int t_depth = 0;

std::int64_t ns_between(Probes::Clock::time_point a,
                        Probes::Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

Probe classify(const nn::Layer& layer) {
  if (dynamic_cast<const nn::Conv2d*>(&layer) != nullptr) {
    return Probe::kConv2d;
  }
  if (dynamic_cast<const nn::ReLU*>(&layer) != nullptr ||
      dynamic_cast<const nn::Tanh*>(&layer) != nullptr ||
      dynamic_cast<const nn::Gelu*>(&layer) != nullptr) {
    return Probe::kActivation;
  }
  if (dynamic_cast<const nn::SelfAttention*>(&layer) != nullptr) {
    return Probe::kAttention;
  }
  if (dynamic_cast<const nn::Linear*>(&layer) != nullptr) {
    return Probe::kLinear;
  }
  return Probe::kNnOther;
}

/// Forwarding decorator for one layer of a shared, instrumented model.
/// `owner` keeps the undecorated model (and so `inner`) alive for as long
/// as any of its decorators.
class TimedLayer final : public nn::Layer {
 public:
  TimedLayer(std::shared_ptr<nn::Sequential> owner, nn::Layer& inner,
             Probes& probes)
      : nn::Layer(inner.name()),
        owner_(std::move(owner)),
        inner_(inner),
        probe_(classify(inner)),
        probes_(probes) {}

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override {
    Probes::Scope scope(probes_, probe_);
    return inner_.forward(input, train);
  }
  tensor::Tensor backward(const tensor::Tensor& grad_out) override {
    Probes::Scope scope(probes_, probe_);
    return inner_.backward(grad_out);
  }
  std::vector<nn::ParamRef> params() override { return inner_.params(); }

 private:
  std::shared_ptr<nn::Sequential> owner_;
  nn::Layer& inner_;
  Probe probe_;
  Probes& probes_;
};

}  // namespace

const char* probe_name(Probe p) {
  switch (p) {
    case Probe::kConv2d: return "nn.conv2d";
    case Probe::kActivation: return "nn.activation";
    case Probe::kAttention: return "nn.attention";
    case Probe::kLinear: return "nn.linear";
    case Probe::kNnOther: return "nn.other";
    case Probe::kMakeBatch: return "data.make_batch";
    case Probe::kGradientReady: return "sync.on_gradient_ready";
    case Probe::kFaultHooks: return "sync.fault_hooks";
    case Probe::kCount: break;
  }
  return "?";
}

Probes::Probes()
    : loop_thread_(std::this_thread::get_id()), epoch_(Clock::now()) {}

Probes::Scope::Scope(Probes& probes, Probe probe)
    : probes_(probes), probe_(probe), begin_(Clock::now()) {
  ++t_depth;
}

Probes::Scope::~Scope() {
  const Clock::time_point end = Clock::now();
  --t_depth;
  probes_.record(probe_, begin_, end);
}

Probes::ThreadLog& Probes::thread_log() {
  if (t_slot.owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    logs_.back()->index = logs_.size() - 1;
    t_slot = {this, logs_.back().get()};
  }
  return *static_cast<ThreadLog*>(t_slot.log);
}

void Probes::record(Probe p, Clock::time_point begin, Clock::time_point end) {
  ThreadLog& log = thread_log();
  const auto i = static_cast<std::size_t>(p);
  const std::int64_t ns = ns_between(begin, end);
  log.busy_ns[i] += ns;
  ++log.calls[i];
  log.spans.push_back({p, ns_between(epoch_, begin), ns_between(epoch_, end)});
  if (t_depth == 0 && std::this_thread::get_id() == loop_thread_) {
    loop_probed_ns_ += ns;
  }
}

double Probes::busy_s(Probe p) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t ns = 0;
  for (const auto& log : logs_) ns += log->busy_ns[static_cast<std::size_t>(p)];
  return static_cast<double>(ns) * 1e-9;
}

std::uint64_t Probes::calls(Probe p) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& log : logs_) n += log->calls[static_cast<std::size_t>(p)];
  return n;
}

double Probes::loop_thread_probed_s() const {
  return static_cast<double>(loop_probed_ns_) * 1e-9;
}

bool Probes::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    for (const Span& s : log->spans) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   first ? "" : ",", probe_name(s.probe), log->index,
                   static_cast<double>(s.begin_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.begin_ns) * 1e-3);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

nn::Sequential instrument_model(nn::Sequential model, Probes& probes) {
  auto owner = std::make_shared<nn::Sequential>(std::move(model));
  nn::Sequential out;
  for (std::size_t i = 0; i < owner->num_layers(); ++i) {
    out.add(std::make_unique<TimedLayer>(owner, owner->layer(i), probes));
  }
  return out;
}

data::Batch TimedDataset::make_batch(
    std::span<const std::size_t> indices) const {
  Probes::Scope scope(probes_, Probe::kMakeBatch);
  return inner_->make_batch(indices);
}

void TimedSync::attach(runtime::Engine& eng) {
  runtime::SyncModel::attach(eng);
  inner_->attach(eng);
}

void TimedSync::on_gradient_ready(std::size_t worker) {
  Probes::Scope scope(probes_, Probe::kGradientReady);
  inner_->on_gradient_ready(worker);
}

void TimedSync::on_worker_crashed(std::size_t worker) {
  Probes::Scope scope(probes_, Probe::kFaultHooks);
  inner_->on_worker_crashed(worker);
}

void TimedSync::on_worker_restarted(std::size_t worker) {
  Probes::Scope scope(probes_, Probe::kFaultHooks);
  inner_->on_worker_restarted(worker);
}

void TimedSync::on_ps_crashed(std::size_t ps) {
  Probes::Scope scope(probes_, Probe::kFaultHooks);
  inner_->on_ps_crashed(ps);
}

void TimedSync::on_ps_restarted(std::size_t ps) {
  Probes::Scope scope(probes_, Probe::kFaultHooks);
  inner_->on_ps_restarted(ps);
}

}  // namespace osp::perfbench
