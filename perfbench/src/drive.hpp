// Hand-driven cells: one grid cell run by the benchmark itself through the
// library's public algorithm API (core::make_algorithm, run_round,
// evaluate_test_accuracy) instead of exp::run_grid.  Its JSONL line must
// equal the sweep's line for the same spec byte for byte, which makes it
// the benchmark's oracle for the sweep's output, and it is where the traced
// pass times rounds and evaluations.
#pragma once

#include <cstddef>

#include "core/presets.hpp"
#include "exp/scheduler.hpp"
#include "stats.hpp"

namespace perfbench {

/// RoundGraph schedule totals over the rounds that ran on the graph engine.
struct GraphTotals {
  std::size_t jobs = 0;
  std::size_t dispatch_slots = 0;
};

/// Run `spec` on `built` round by round, evaluating on the spec's cadence.
/// With a non-null `log`, each run_round call is recorded as a span named
/// "round.<method>" and each evaluation as "eval"; with a non-null
/// `graph`, the rounds' RoundGraph statistics are added to it.
fedhisyn::exp::CellResult drive_cell(const fedhisyn::exp::ExperimentSpec& spec,
                                     const fedhisyn::core::BuiltExperiment& built,
                                     SpanLog* log = nullptr, GraphTotals* graph = nullptr);

}  // namespace perfbench
