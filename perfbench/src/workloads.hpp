// The benchmark's three workloads: each a fixed list of grid cells made from
// the run's seed, plus the backend that runs them.  Why each workload exists
// is recorded in perfbench/README.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/presets.hpp"
#include "exp/spec.hpp"

namespace perfbench {

enum class Backend { kThread, kTcp };

struct Workload {
  std::string name;
  Backend backend = Backend::kThread;
  std::vector<fedhisyn::exp::ExperimentSpec> specs;
  /// The traced pass drives specs[0, hand_driven) one at a time itself.
  std::size_t hand_driven = 0;
  /// Cells the untraced pass re-runs by hand after measuring, as an oracle
  /// for the sweep's output lines.
  std::vector<std::size_t> reference_cells;
};

/// The named workload for `seed`; check-fails on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Tcp workers the dispatch workload starts, and pool threads in each.
inline constexpr std::size_t kTcpWorkers = 2;
inline constexpr std::size_t kTcpWorkerThreads = 1;

/// One call to the public gemm entry points.  `nested` marks calls the
/// library makes from inside a parallel_for body (conv forward), where the
/// GEMM runs single-threaded.
struct GemmShape {
  char op = 'n';  // 'n' = gemm, 't' = gemm_nt, 'T' = gemm_tn
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
  bool nested = false;
};

/// Every distinct GEMM shape one local-training step (forward + backward)
/// of `spec`'s model performs at its batch size.  Check-fails when the
/// derived layer sizes disagree with the built network's parameter count.
std::vector<GemmShape> training_gemm_shapes(const fedhisyn::exp::ExperimentSpec& spec,
                                            const fedhisyn::core::BuiltExperiment& built);

/// The wide-class GEMM of the CNN workload (its second conv layer's filter
/// gradient), probed on workloads whose own model has no wide GEMM.
GemmShape reference_wide_shape();

}  // namespace perfbench
