// Per-layer measurements of one workload (the --trace 1 metrics).
//
// Every layer is timed from the benchmark's own code, around calls into the
// module's public functions: a replay of the workflow through the core
// operators, the workflow's first MapReduce job through mr::MapReduce,
// sortlib on the workload's keys, empty and traffic-matrix mp::Runtime runs,
// one engine run with an obs::Recorder and three with an obs::TraceRecorder.
// Repeated probes report medians; for per-rank calls the slowest rank
// counts. Nothing is instrumented inside the library.
#pragma once

#include <optional>
#include <vector>

#include "metrics.hpp"
#include "workload.hpp"

namespace perfbench {

struct LayerContext {
  const WorkloadDef& workload;
  const Inputs& inputs;
  /// The set-up engine and runtime the timed runs used.
  Engine& engine;
  const papar::core::EngineOptions& options;
  const std::optional<papar::mp::FaultPlan>& plan;
  const Reference& reference;
  /// Median host wall of the untraced engine runs.
  double engine_wall_s;
  /// Stage reports of the untraced engine runs.
  const std::vector<papar::obs::StageReport>& reports;
};

/// Records every kLayer metric into `out`. Returns false (after printing
/// why to stderr) when a probe's partitions differ from the reference or
/// the critical-path stage fractions do not sum to 1.
bool measure_layers(const LayerContext& ctx, MetricSet& out);

}  // namespace perfbench
