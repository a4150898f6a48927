// The traced pass: per-layer numbers for one workload, taken from outside
// the program.  It runs one untraced and one traced sweep (counter-registry
// deltas, with the program's trace plane on for the second so GEMM pack and
// kernel time are counted), drives the workload's cells by hand inside
// benchmark-side spans, and probes each module's public functions at the
// workload's shapes.  No end-to-end metric comes from this pass.
#pragma once

#include <string>

#include "sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Run the traced pass; spans are written to `dir`/<workload>.spans.jsonl.
PassResult measure_layers(const Workload& w, const std::string& dir);

}  // namespace perfbench
