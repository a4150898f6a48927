#include "workloads.hpp"

#include "common/check.hpp"
#include "core/registry.hpp"
#include "data/synthetic.hpp"
#include "exp/grid.hpp"
#include "nn/network.hpp"

namespace perfbench {

using fedhisyn::exp::ExperimentGrid;
using fedhisyn::exp::ExperimentSpec;

namespace {

/// Build seed of the thread workloads: bench/table1_main.cpp's.  Their
/// builds (data, partition, device fleet) stay fixed; --seed drives the
/// algorithms' randomness (participant draws, rings, batch order) through a
/// seed of each cell's own, so a sweep averages over as many independent
/// draws as it has cells and its total work varies little between seeds.
constexpr std::uint64_t kBuildSeed = 101;

void seed_each_cell(std::vector<ExperimentSpec>& specs, std::uint64_t seed) {
  for (std::size_t i = 0; i < specs.size(); ++i) specs[i].opts.seed = seed * 1000 + i;
}

/// cifar100 x {IID, Dirichlet(0.3)} x {p50, p10} x the seven Table-1
/// methods, each cell built and configured as bench/table1_main.cpp does it
/// at default scale.  The p100 row of Table 1 is left out so one sweep
/// fits the benchmark's run length.
Workload table1_mlp(std::uint64_t seed) {
  Workload w;
  w.name = "table1_mlp";
  ExperimentGrid grid;
  grid.base().with_seed(kBuildSeed);
  grid.participations({0.5, 0.1})
      .partitions({{true, 0.0}, {false, 0.3}})
      .datasets({"cifar100"})
      .methods(fedhisyn::core::table1_methods())
      .auto_scale(false)
      .override_each([](ExperimentSpec& spec) {
        spec.build.use_cnn = false;
        spec.opts.clusters = spec.opts.participation <= 0.11 ? 1 : 5;
        spec.eval_every = 3;
      });
  w.specs = grid.expand();
  seed_each_cell(w.specs, seed);
  w.hand_driven = w.specs.size();
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    const ExperimentSpec& spec = w.specs[i];
    if (spec.opts.participation <= 0.11 && !spec.build.partition.iid &&
        spec.method == "FedHiSyn") {
      w.reference_cells.push_back(i);
    }
  }
  return w;
}

/// cifar10 on the paper's CNN: 20 devices, K=5, x {IID, Dirichlet(0.3)} x
/// four methods.  Every device takes part in all 3 rounds (evaluated after
/// the third): the same local-training work as p50 over 6 rounds, but with
/// no participant draw, whose seed-to-seed spread over so few rounds would
/// swamp a change to the layers this workload exists to measure.
Workload cnn_conv(std::uint64_t seed) {
  Workload w;
  w.name = "cnn_conv";
  ExperimentGrid grid;
  grid.base().with_seed(kBuildSeed);
  grid.participations({1.0})
      .partitions({{true, 0.0}, {false, 0.3}})
      .datasets({"cifar10"})
      .methods({"FedHiSyn", "FedAvg", "TAFedAvg", "SCAFFOLD"})
      .auto_scale(false)
      .override_each([](ExperimentSpec& spec) {
        spec.build.use_cnn = true;
        spec.build.scale.rounds = 3;
        spec.opts.clusters = 5;
        spec.eval_every = 3;
      });
  w.specs = grid.expand();
  seed_each_cell(w.specs, seed);
  w.hand_driven = w.specs.size();
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    if (!w.specs[i].build.partition.iid && w.specs[i].method == "FedHiSyn") {
      w.reference_cells.push_back(i);
    }
  }
  return w;
}

/// 20k tiny cells (4 devices, 1 round, 10 samples per device, MLP {8}) over
/// the tcp backend.  Build keys interleave: three of every four cells use
/// one of three resident build seeds, the fourth a build seed no other cell
/// uses, so the worker build cache serves hits and builds side by side.
Workload dispatch_small(std::uint64_t seed) {
  constexpr std::size_t kCells = 20000;
  constexpr std::uint64_t kResident = 3;
  const std::vector<std::string> methods = {"FedAvg", "FedProx", "SCAFFOLD", "FedHiSyn"};
  Workload w;
  w.name = "dispatch_small";
  w.backend = Backend::kTcp;
  ExperimentSpec base;
  base.build.scale.devices = 4;
  base.build.scale.train_samples_per_device = 10;
  base.build.scale.test_samples = 40;
  base.build.scale.rounds = 1;
  base.build.mlp_hidden = {8};
  base.opts.local_epochs = 1;
  base.opts.batch_size = 10;
  base.opts.clusters = 1;
  base.target = 0.999f;
  // Seeds of one run stay below the next --seed's range.
  const std::uint64_t seed_base = seed * 100000;
  w.specs.reserve(kCells);
  for (std::size_t i = 0; i < kCells; ++i) {
    ExperimentSpec spec = base;
    spec.method = methods[(i / 4) % methods.size()];
    const std::uint64_t slot = i % 4;
    spec.build.seed = slot < kResident ? seed_base + slot : seed_base + kResident + i;
    spec.opts.seed = seed_base + i;
    w.specs.push_back(std::move(spec));
  }
  w.hand_driven = 256;
  for (std::size_t i = 0; i < kCells; i += kCells / 64) w.reference_cells.push_back(i);
  return w;
}

std::vector<std::int64_t> default_mlp_hidden(std::int64_t n_classes) {
  // Mirrors core::build_experiment's default-scale choice; the parameter
  // count check in training_gemm_shapes catches any drift.
  if (n_classes <= 10) return {32, 16};
  if (n_classes <= 26) return {48, 32};
  return {64, 48};
}

void add_dense(std::vector<GemmShape>& shapes, std::int64_t& params, std::int64_t batch,
               std::int64_t fan_in, std::int64_t units) {
  shapes.push_back({'n', batch, fan_in, units, false});
  shapes.push_back({'T', fan_in, batch, units, false});
  shapes.push_back({'t', batch, units, fan_in, false});
  params += fan_in * units + units;
}

void add_conv(std::vector<GemmShape>& shapes, std::int64_t& params, std::int64_t channels,
              std::int64_t pixels, std::int64_t out_channels) {
  constexpr std::int64_t kTaps = 5 * 5;
  const std::int64_t col_rows = channels * kTaps;
  shapes.push_back({'n', out_channels, col_rows, pixels, true});
  shapes.push_back({'t', out_channels, pixels, col_rows, false});
  shapes.push_back({'T', col_rows, out_channels, pixels, false});
  params += out_channels * col_rows + out_channels;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "table1_mlp") return table1_mlp(seed);
  if (name == "cnn_conv") return cnn_conv(seed);
  if (name == "dispatch_small") return dispatch_small(seed);
  FEDHISYN_CHECK_MSG(false, "unknown workload '" << name << "'");
  return {};
}

std::vector<GemmShape> training_gemm_shapes(const ExperimentSpec& spec,
                                            const fedhisyn::core::BuiltExperiment& built) {
  const auto& data_spec = built.spec;
  const std::int64_t batch =
      std::min<std::int64_t>(spec.opts.batch_size, spec.build.scale.train_samples_per_device);
  std::vector<GemmShape> shapes;
  std::int64_t params = 0;
  std::int64_t fan_in = data_spec.sample_dim();
  std::vector<std::int64_t> dense_units;
  if (spec.build.use_cnn) {
    // nn::make_cnn's defaults: conv 16 and 32 channels (5x5, padding 2, each
    // followed by a 2x2 pool), then dense 98 and 48.
    const std::int64_t pixels = data_spec.height * data_spec.width;
    add_conv(shapes, params, data_spec.channels, pixels, 16);
    add_conv(shapes, params, 16, pixels / 4, 32);
    fan_in = 32 * (pixels / 16);
    dense_units = {98, 48};
  } else {
    dense_units = spec.build.mlp_hidden.empty() ? default_mlp_hidden(data_spec.n_classes)
                                                : spec.build.mlp_hidden;
  }
  dense_units.push_back(data_spec.n_classes);
  for (const std::int64_t units : dense_units) {
    add_dense(shapes, params, batch, fan_in, units);
    fan_in = units;
  }
  FEDHISYN_CHECK_MSG(params == built.network->param_count(),
                     "derived layer sizes give " << params << " parameters, the built "
                     "network has " << built.network->param_count());
  return shapes;
}

GemmShape reference_wide_shape() { return {'t', 32, 16, 400, false}; }

}  // namespace perfbench
