#include "workloads.hpp"

#include <stdexcept>

#include "core/osp_sync.hpp"
#include "data/synthetic_image.hpp"
#include "models/zoo.hpp"
#include "sync/bsp.hpp"

namespace osp::perfbench {

namespace {

/// The paper testbed (§5.1.1) as bench_common.hpp's paper_config sets it:
/// 10 Gbit/s links, mild straggler jitter.
runtime::EngineConfig paper_config(std::size_t workers, std::size_t epochs,
                                   std::uint64_t seed) {
  runtime::EngineConfig cfg;
  cfg.num_workers = workers;
  cfg.max_epochs = epochs;
  cfg.seed = seed;
  cfg.straggler_jitter = 0.05;
  return cfg;
}

/// Evaluate twice per epoch (the Fig. 7/8 cadence).
void eval_every_half_epoch(Workload& w) {
  w.config.eval_every_samples = w.spec.train->size() / 2;
}

Workload resnet50_osp(std::uint64_t seed) {
  // 30 epochs (the figure benches' default): at 20, some seeds never reach
  // the 0.85 target. The LR schedule ignores the epoch count, so the
  // time-to-target of a seed that reaches it by epoch 20 is unchanged.
  Workload w{models::resnet50_cifar10(), paper_config(8, 30, seed),
             [] { return std::make_unique<core::OspSync>(); }};
  eval_every_half_epoch(w);
  return w;
}

Workload bert_bsp(std::uint64_t seed) {
  Workload w{models::bertbase_squad(), paper_config(8, 12, seed),
             [] { return std::make_unique<sync::BspSync>(); }};
  // The zoo's F1 target of 0.75 is never reached by BSP in 30 epochs; this
  // is one the run reaches on every seed tried.
  w.spec.target_metric = 0.7;
  eval_every_half_epoch(w);
  return w;
}

Workload mlp256_osp_psfail(std::uint64_t seed) {
  constexpr std::size_t kWorkers = 256;
  Workload w{models::tiny_mlp(), paper_config(kWorkers, 10, seed),
             [] { return std::make_unique<core::OspSync>(); }};
  // Grow the train set (same task, more noise samples) so every worker
  // gets four whole batches per epoch (bench_ext_scaling.cpp grows it to
  // one).
  const auto& img =
      dynamic_cast<const data::SyntheticImageDataset&>(*w.spec.train);
  data::ImageDatasetConfig cfg = img.config();
  cfg.num_examples = 4 * kWorkers * w.spec.batch_size;
  w.spec.train = std::make_shared<data::SyntheticImageDataset>(cfg);
  w.config.cluster.num_ps = 4;
  // Crash PS shard 0 during the first round and bring it back before the
  // first evaluation (about t = 10.3 s), the earliest the target can be
  // reached: the run crosses a promotion, degraded operation and a failback
  // with a catch-up.
  w.config.faults.crash_ps(/*at=*/6.0, /*ps=*/0, /*restart_after=*/3.0);
  eval_every_half_epoch(w);
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "resnet50_osp") return resnet50_osp(seed);
  if (name == "bert_bsp") return bert_bsp(seed);
  if (name == "mlp256_osp_psfail") return mlp256_osp_psfail(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace osp::perfbench
