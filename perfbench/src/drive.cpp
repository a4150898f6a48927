#include "drive.hpp"

#include <algorithm>
#include <optional>

#include "core/registry.hpp"

namespace perfbench {

fedhisyn::exp::CellResult drive_cell(const fedhisyn::exp::ExperimentSpec& spec,
                                     const fedhisyn::core::BuiltExperiment& built,
                                     SpanLog* log, GraphTotals* graph) {
  const double start = now_s();
  auto algorithm = fedhisyn::core::make_algorithm(spec.method, built.context(spec.opts));
  const int rounds = spec.build.scale.rounds;
  const float target = spec.resolved_target();
  const auto& ctx = algorithm->context();
  const double expected_participants =
      std::max(1.0, static_cast<double>(ctx.device_count()) * ctx.opts.participation);
  const std::string round_span = "round." + spec.method;

  fedhisyn::exp::CellResult cell;
  cell.spec = spec;
  fedhisyn::core::ExperimentResult& result = cell.result;
  result.algorithm = algorithm->name();
  for (int round = 1; round <= rounds; ++round) {
    {
      std::optional<SpanLog::Scope> span;
      if (log != nullptr) span.emplace(*log, round_span);
      algorithm->run_round();
    }
    const auto& stats = algorithm->last_round_stats();
    if (graph != nullptr && stats.dispatch_slots > 0) {
      graph->jobs += stats.jobs;
      graph->dispatch_slots += stats.dispatch_slots;
    }
    if (round % spec.eval_every != 0 && round != rounds) continue;

    fedhisyn::core::RoundRecord record;
    record.round = round;
    {
      std::optional<SpanLog::Scope> span;
      if (log != nullptr) span.emplace(*log, "eval");
      record.accuracy = algorithm->evaluate_test_accuracy();
    }
    record.comm_rounds = algorithm->comm().server_model_units() / (2.0 * expected_participants);
    record.d2d_transfers = algorithm->comm().device_to_device_units();
    result.history.push_back(record);
    result.final_accuracy = record.accuracy;
    result.best_accuracy = std::max(result.best_accuracy, record.accuracy);
    if (!result.comm_to_target.has_value() && record.accuracy >= target) {
      result.comm_to_target = record.comm_rounds;
      result.rounds_to_target = round;
    }
  }
  cell.seconds = now_s() - start;
  return cell;
}

}  // namespace perfbench
