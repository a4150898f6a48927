#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <set>

#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "core/aggregate.hpp"
#include "core/registry.hpp"
#include "core/trainer.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "drive.hpp"
#include "exp/sinks.hpp"
#include "nn/update.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_tune.hpp"

namespace perfbench {

namespace fh = fedhisyn;

namespace {

/// Median seconds per call of `fn`: calls are batched until one batch lasts
/// at least 2 ms, then seven batches are timed.
template <class Fn>
double seconds_per_call(Fn&& fn) {
  constexpr int kBatches = 7;
  std::size_t reps = 1;
  for (;;) {
    const double start = now_s();
    for (std::size_t r = 0; r < reps; ++r) fn();
    if (now_s() - start >= 2e-3) break;
    reps *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const double start = now_s();
    for (std::size_t r = 0; r < reps; ++r) fn();
    per_call.push_back((now_s() - start) / static_cast<double>(reps));
  }
  return median(per_call);
}

/// GFLOP/s over `shapes`, as if each were called once: total flops over
/// total median call time.
double gemm_gflops(const std::vector<GemmShape>& shapes) {
  double flops = 0.0;
  double seconds = 0.0;
  for (const GemmShape& s : shapes) {
    std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = 0.01f * static_cast<float>(i % 7);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = 0.02f * static_cast<float>(i % 5);
    const auto call = [&] {
      if (s.op == 'n') fh::gemm(a, b, c, s.m, s.k, s.n);
      if (s.op == 't') fh::gemm_nt(a, b, c, s.m, s.k, s.n);
      if (s.op == 'T') fh::gemm_tn(a, b, c, s.m, s.k, s.n);
    };
    if (s.nested) {
      // A GEMM inside a parallel_for body runs on its caller's thread alone.
      fh::ParallelExecutor single(1);
      const fh::ParallelExecutor::Bind bind(single);
      seconds += seconds_per_call(call);
    } else {
      seconds += seconds_per_call(call);
    }
    flops += 2.0 * static_cast<double>(s.m * s.k * s.n);
  }
  return flops / seconds / 1e9;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

PassResult measure_layers(const Workload& w, const std::string& dir) {
  PassResult pass;
  const bool tcp = w.backend == Backend::kTcp;
  const auto cells = static_cast<double>(w.specs.size());
  MetricSet& m = pass.metrics;

  // Sweeps: the same cells untraced, then with the program's trace plane
  // on (it gates the GEMM pack/kernel counters).  Fresh tcp workers each.
  pass.out_path = dir + "/" + w.name + ".jsonl";
  const auto sweep = [&](const std::string& path) {
    std::unique_ptr<WorkerFleet> fleet;
    if (tcp) fleet = std::make_unique<WorkerFleet>();
    return run_sweep(w, path, fleet.get());
  };
  const Sweep plain = sweep(pass.out_path);
  fh::trace::set_enabled(true);
  const Sweep traced = sweep(dir + "/" + w.name + ".traced.jsonl");
  fh::trace::set_enabled(false);
  for (const Sweep* s : {&plain, &traced}) {
    for (const std::string& problem : check_sweep(w, *s)) pass.errors.push_back(problem);
  }
  if (traced.bytes != plain.bytes) {
    pass.errors.push_back("the traced sweep wrote other bytes than the untraced one");
  }
  pass.attempted += 2 * w.specs.size();

  // Hand-driven cells, one at a time, in benchmark-side spans.
  SpanLog log;
  std::map<std::string, std::shared_ptr<const fh::core::BuiltExperiment>> builds;
  const auto build = [&](const fh::exp::ExperimentSpec& spec) {
    auto& slot = builds[spec.build_key()];
    if (slot == nullptr) {
      const SpanLog::Scope span(log, "build");
      slot = fh::exp::build_for(spec);
    }
    return slot;
  };
  GraphTotals graph;
  const std::vector<std::string> lines = split_lines(plain.bytes);
  const std::size_t driven = std::min(w.hand_driven, w.specs.size());
  for (std::size_t i = 0; i < driven; ++i) {
    const SpanLog::Scope span(log, "cell");
    const auto& spec = w.specs[i];
    const auto cell = drive_cell(spec, *build(spec), &log, &graph);
    if (i >= lines.size() || fh::exp::to_jsonl_line(cell) != lines[i]) {
      pass.errors.push_back("hand-driven cell " + std::to_string(i) + " (" + spec.label() +
                            ") differs from the sweep's line");
    }
  }
  pass.attempted += driven;
  double round_total = 0.0;
  for (const auto& span : log.spans()) {
    if (span.name.rfind("round.", 0) == 0) round_total += span.end_s - span.start_s;
  }
  const std::vector<double> evals = log.durations("eval");
  const double eval_total = std::accumulate(evals.begin(), evals.end(), 0.0);

  // Every workload reports every Table-1 method: methods the workload does
  // not run get up to three rounds on its first build.
  std::set<std::string> run_methods;
  for (const auto& spec : w.specs) run_methods.insert(spec.method);
  for (const std::string& method : fh::core::table1_methods()) {
    if (run_methods.count(method) != 0) continue;
    auto spec = w.specs.front();
    spec.method = method;
    auto algorithm = fh::core::make_algorithm(method, build(spec)->context(spec.opts));
    for (int r = 0; r < std::min(3, spec.build.scale.rounds); ++r) {
      const SpanLog::Scope span(log, "round." + method);
      algorithm->run_round();
    }
  }
  log.write(dir + "/" + w.name + ".spans.jsonl");

  // Probes of public functions at the workload's shapes (its first cell).
  const auto& spec = w.specs.front();
  const auto built = build(spec);
  const fh::nn::Network& network = *built->network;
  fh::Rng init_rng(spec.opts.seed);
  const std::vector<float> weights = network.init_weights(init_rng);
  const fh::data::Shard& shard = built->fed.shards.front();
  const std::vector<std::int64_t> order = shard.make_order();
  const std::int64_t batch = std::min<std::int64_t>(spec.opts.batch_size, shard.size());
  fh::Tensor x;
  std::vector<std::int32_t> y;
  fh::nn::Workspace ws;
  std::vector<float> grad(weights.size());
  std::vector<float> scratch_weights = weights;

  const double gather_s = seconds_per_call([&] { shard.gather(order, 0, batch, x, y); });
  const double forward_s = seconds_per_call([&] { network.forward(weights, x, ws); });
  const double loss_grad_s =
      seconds_per_call([&] { network.loss_and_grad(weights, x, y, grad, ws); });
  const double sgd_s =
      seconds_per_call([&] { fh::nn::sgd_step(scratch_weights, grad, spec.opts.lr); });
  const auto& test = built->fed.test;
  const double accuracy_s =
      seconds_per_call([&] { network.accuracy(weights, test.x, test.y, ws); });

  const auto& scale = spec.build.scale;
  const double generate_s = seconds_per_call([&] {
    fh::Rng rng(spec.build.seed);
    fh::data::generate(built->spec,
                       scale.train_samples_per_device * static_cast<std::int64_t>(scale.devices),
                       scale.test_samples, rng);
  });
  const double partition_s = seconds_per_call([&] {
    fh::Rng rng(spec.build.seed);
    fh::data::make_partition(built->fed.train, scale.devices, spec.build.partition, rng);
  });

  fh::core::TrainScratch train_scratch;
  const double train_job_s = seconds_per_call([&] {
    std::copy(weights.begin(), weights.end(), scratch_weights.begin());
    fh::Rng rng(spec.opts.seed);
    fh::core::train_local(network, scratch_weights, shard, spec.opts.local_epochs,
                          spec.opts.batch_size, spec.opts.lr, fh::core::UpdateKind::kSgd, {},
                          rng, train_scratch);
  });
  const std::vector<std::vector<float>> models(scale.devices, weights);
  const std::vector<std::span<const float>> views(models.begin(), models.end());
  const std::vector<double> uniform = fh::core::uniform_weights(models.size());
  const double aggregate_s = seconds_per_call(
      [&] { fh::core::aggregate_models(views, uniform, scratch_weights); });

  std::vector<GemmShape> narrow;
  std::vector<GemmShape> wide;
  for (const GemmShape& s : training_gemm_shapes(spec, *built)) {
    (s.n <= fh::kGemmWideN ? narrow : wide).push_back(s);
  }
  const bool wide_reference = wide.empty();
  if (wide_reference) wide.push_back(reference_wide_shape());

  const std::size_t codec_n = std::min<std::size_t>(w.specs.size(), 2000);
  for (std::size_t i = 0; i < codec_n; ++i) {
    const auto back = fh::exp::ExperimentSpec::from_json(w.specs[i].to_json());
    if (back.to_key() != w.specs[i].to_key()) {
      pass.errors.push_back("spec " + std::to_string(i) + " does not survive the wire codec");
    }
  }
  const double codec_s = seconds_per_call([&] {
    for (std::size_t i = 0; i < codec_n; ++i) {
      fh::exp::ExperimentSpec::from_json(w.specs[i].to_json());
    }
  }) / static_cast<double>(codec_n);
  const std::string sink_path = dir + "/" + w.name + ".sink.jsonl";
  const std::size_t append_n = std::min<std::size_t>(lines.size(), 2000);
  fh::exp::write_lines_atomic(sink_path, {});
  const double append_s = seconds_per_call([&] {
    for (std::size_t i = 0; i < append_n; ++i) {
      fh::exp::append_result_line(sink_path, lines[i]);
    }
  }) / static_cast<double>(std::max<std::size_t>(append_n, 1));
  const double rewrite_s =
      seconds_per_call([&] { fh::exp::write_lines_atomic(sink_path, lines); });
  std::remove(sink_path.c_str());

  // Sweep-derived layer numbers, from the untraced sweep's counter deltas
  // and cells except where the trace plane is needed.
  const double pool_threads =
      tcp ? static_cast<double>(kTcpWorkers * kTcpWorkerThreads)
          : static_cast<double>(fh::ParallelExecutor::global().thread_count());
  const double busy_cpu = tcp ? plain.worker_cpu_s : plain.cpu_s;
  double cell_seconds = 0.0;
  double cache_hits = 0.0;
  double cache_cells = 0.0;
  for (const auto& cell : plain.cells) {
    cell_seconds += cell.seconds;
    if (cell.cache.valid) {
      cache_cells += 1.0;
      cache_hits += cell.cache.hit ? 1.0 : 0.0;
    }
  }
  const double slots = tcp ? static_cast<double>(kTcpWorkers) : 1.0;
  const auto pc = [&](const char* name) { return static_cast<double>(plain.counter(name)); };
  const auto tc = [&](const char* name) { return static_cast<double>(traced.counter(name)); };
  const double pack_us = tc("gemm.pack_us");
  const double kernel_us = tc("gemm.kernel_us");
  const auto n_cells = w.specs.size();
  const auto n_spans = [&](const std::string& name) { return log.durations(name).size(); };

  m.add("common.pool.busy_ratio", busy_cpu / (plain.wall_s * pool_threads), "ratio", 1,
        "CPU s / (wall s x " + std::to_string(static_cast<int>(pool_threads)) + " threads)");
  m.add("tensor.gemm.calls", pc("gemm.calls"), "count", 1, "one sweep");
  m.add("tensor.gemm.us_per_call", ratio(pack_us + kernel_us, tc("gemm.calls")), "us", 1,
        "(pack + kernel us) / calls, traced sweep; unblocked small calls count 0 us");
  m.add("tensor.gemm.pack_share", ratio(pack_us, pack_us + kernel_us), "ratio", 1,
        "pack us / (pack + kernel us), traced sweep");
  m.add("tensor.gemm.gflops.narrow", gemm_gflops(narrow), "GFLOP/s", narrow.size(),
        "probe, workload shapes with n <= 256");
  m.add("tensor.gemm.gflops.wide", gemm_gflops(wide), "GFLOP/s", wide.size(),
        wide_reference ? "probe, no wide shape here: the cnn_conv reference shape"
                       : "probe, workload shapes with n > 256");
  m.add("nn.forward_us", forward_s * 1e6, "us", 1, "probe, batch " + std::to_string(batch));
  m.add("nn.loss_and_grad_us", loss_grad_s * 1e6, "us", 1, "probe");
  m.add("nn.sgd_step_us", sgd_s * 1e6, "us", 1, "probe");
  m.add("nn.accuracy_ms", accuracy_s * 1e3, "ms", 1,
        "probe, " + std::to_string(test.size()) + "-sample test set");
  m.add("data.generate_ms", generate_s * 1e3, "ms", 1, "probe");
  m.add("data.partition_ms", partition_s * 1e3, "ms", 1, "probe");
  m.add("data.gather_us", gather_s * 1e6, "us", 1, "probe");
  for (const std::string& method : fh::core::table1_methods()) {
    const std::string name = "round." + method;
    m.add("core.round_ms_p50." + method, median(log.durations(name)) * 1e3, "ms",
          n_spans(name), run_methods.count(method) != 0 ? "hand-driven cells"
                                                        : "up to 3 rounds on its first build");
  }
  m.add("core.eval_share", ratio(eval_total, eval_total + round_total), "ratio",
        n_spans("eval"), "eval s / (eval + round s), hand-driven cells");
  m.add("core.train_job_ms", train_job_s * 1e3, "ms", 1, "probe, one local job");
  m.add("core.aggregate_us", aggregate_s * 1e6, "us", 1,
        "probe, " + std::to_string(models.size()) + " models");
  m.add("core.round_graph.jobs", pc("round_graph.jobs"), "count", 1, "one sweep");
  m.add("core.round_graph.spec_accept_ratio",
        ratio(pc("round_graph.accepted"), pc("round_graph.speculated")), "ratio", 1,
        "accepted / speculated (0 when nothing speculated)");
  m.add("core.round_graph.rerun_share",
        ratio(pc("round_graph.reruns"), pc("round_graph.jobs")), "ratio", 1,
        "reruns / jobs");
  m.add("core.round_graph.overlap",
        ratio(static_cast<double>(graph.jobs), static_cast<double>(graph.dispatch_slots)),
        "ratio", graph.dispatch_slots, "jobs / dispatch slots, hand-driven cells");
  m.add("exp.build_ms", median(log.durations("build")) * 1e3, "ms", n_spans("build"),
        "hand-driven build_for");
  m.add("exp.build_cache.builds", pc("build_cache.misses"), "count", 1, "one sweep");
  m.add("exp.build_cache.hit_ratio", ratio(cache_hits, cache_cells), "ratio",
        static_cast<std::size_t>(cache_cells), "cells served a resident build");
  m.add("exp.dispatch.overhead_ms_per_cell",
        (plain.wall_s * slots - cell_seconds) / cells * 1e3, "ms", n_cells,
        "(wall x " + std::to_string(static_cast<int>(slots)) + " slots - cell s) / cells");
  m.add("exp.dispatch.affinity_hit_ratio",
        ratio(pc("dispatch.affinity_hits"), pc("dispatch.cells")), "ratio", 1,
        "0 on the thread backend");
  m.add("exp.dispatch.retries", pc("dispatch.retries"), "count", 1, "one sweep");
  m.add("exp.dispatch.timeouts", pc("dispatch.timeouts"), "count", 1, "one sweep");
  m.add("exp.wire.spec_codec_us", codec_s * 1e6, "us", codec_n,
        "probe, to_json + from_json per spec");
  m.add("exp.sink.append_us", append_s * 1e6, "us", append_n, "probe, per line");
  m.add("exp.sink.rewrite_ms", rewrite_s * 1e3, "ms", 1,
        "probe, " + std::to_string(lines.size()) + " lines");
  m.add("common.trace.overhead_ratio", ratio(plain.wall_s, traced.wall_s), "ratio", 2,
        "traced / untraced cells_per_s");

  const double failures = pc("dispatch.retries") + pc("dispatch.timeouts") +
                          tc("dispatch.retries") + tc("dispatch.timeouts");
  pass.failed = pass.errors.empty()
                    ? std::min(pass.attempted, static_cast<std::size_t>(failures))
                    : pass.attempted;
  return pass;
}

}  // namespace perfbench
