// The benchmark's workloads: a WorkloadSpec, an EngineConfig and a sync
// model per name, all generated from the workload seed. See README.md for
// why each one is in the set.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "runtime/engine.hpp"

namespace osp::perfbench {

/// The paper configuration's seed (bench/bench_common.hpp paper_config).
inline constexpr std::uint64_t kDefaultSeed = 20230807;

struct Workload {
  runtime::WorkloadSpec spec;
  runtime::EngineConfig config;
  std::function<std::unique_ptr<runtime::SyncModel>()> make_sync;
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

}  // namespace osp::perfbench
