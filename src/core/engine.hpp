// Workflow engine: resolves, plans, and executes a PaPar workflow.
//
// This is the code-generation stage of the paper realized as runtime
// planning: the engine parses the two configuration files (InputData +
// Workflow), resolves every $reference against the launch-time arguments
// and upstream operators, binds each operator to the backend implementation
// (the MapReduce-over-message-passing operators in operators.hpp), and runs
// the jobs in order on a simulated cluster — one job per operator, with all
// intermediate data held in rank memory.
//
// The paper's evaluation workflow is exactly this pipeline: configuration
// in, partitions out, with the same partitions as the hand-written
// application partitioners and the job sequence mapped onto MR-MPI.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/operators.hpp"
#include "core/registry.hpp"
#include "core/workflow.hpp"
#include "mpsim/runtime.hpp"
#include "obs/obs.hpp"
#include "schema/input_config.hpp"

namespace papar::core {

struct EngineOptions {
  /// Reducer range-splitter selection for sort jobs (§III-D sampling).
  mr::SplitterMethod splitter = mr::SplitterMethod::kSampled;
  /// CSC compression of packed groups (§III-D compression).
  bool compress_packed = false;
  /// Where stage checkpoints additionally spill to disk. Checkpointing
  /// itself is controlled by the runtime: when a FaultInjector is attached,
  /// every rank checkpoints its inter-job datasets at each stage boundary
  /// (in memory; plus here when non-empty) so crash recovery re-executes
  /// only the interrupted stage. Checkpoint files from a clean run are
  /// removed on engine exit; a failed run keeps them for post-mortem.
  std::string checkpoint_dir;
  /// Per-rank hard budget on tracked working bytes (parse with
  /// parse_byte_size; 0 = ungoverned). Non-zero attaches a MemoryBudget to
  /// the runtime for the run: the soft watermark sits at 80% of the hard
  /// limit (shuffle/sort phases spill to disk past it), and mailboxes are
  /// capped at a quarter of it under credit-based flow control. Runs that
  /// genuinely cannot fit fail with a typed BudgetExceededError naming the
  /// rank, stage, and high-water mark — never an OOM kill, never a hang.
  std::size_t mem_budget = 0;
  /// Spill directory for budget-governed runs; empty picks a directory
  /// under the system temp dir named for the run, which the run removes
  /// when it ends. Spill files are removed as soon as each operation
  /// completes.
  std::string spill_dir;
  /// How the rank fibers are scheduled: worker-pool size (`--workers K`,
  /// default hardware concurrency) and run-queue seed (DESIGN.md §13).
  /// Case-study entry points that build their own Runtime pass this through.
  mp::SchedulerOptions scheduler;
  /// Continuous telemetry (DESIGN.md §15). Any of the three knobs below
  /// being set attaches a TelemetrySampler for the run: per-rank time-series
  /// rings of stage / blocked state / mailbox / budget / sort progress.
  /// `telemetry` alone keeps the rings in memory (exported as gauge
  /// timelines into the attached Recorder's registry).
  bool telemetry = false;
  /// JSONL live-stream file a concurrent `papar_top <file>` tails
  /// (--telemetry <file>); empty = no stream.
  std::string telemetry_stream;
  /// Flight recorder (--flight-rec <dir>): on DeadlockError,
  /// BudgetExceededError, PeerFailureError, or TimeoutError, the last N
  /// samples per rank plus the error text are dumped to <dir>/flight.json
  /// for offline replay with `papar_top` before the error is rethrown.
  std::string flight_rec_dir;
  /// Crash-recovery strategy (--recovery=stage|local, DESIGN.md §16).
  /// kStage re-executes the interrupted stage on every rank (the behavior
  /// described at checkpoint_dir above). kLocal repairs a fail-stop crash
  /// by replaying only the crashed rank: its stage checkpoint slice
  /// restores its datasets, consumed shuffle segments are retained per
  /// rank until the stage boundary so the replay re-fetches lost inbound
  /// data without live peers re-executing, and replayed sends are
  /// suppressed. When segment retention was evicted under memory pressure
  /// (RecoveryOptions::retention_limit, or the budget's mailbox limit),
  /// recovery degrades to the full-stage ladder rung. The spill directory
  /// for retained segments defaults to `spill_dir`.
  mp::RecoveryOptions recovery;
};

/// The materialized output of a workflow run.
struct PartitionResult {
  schema::Schema schema;
  /// partitions[p] = wire-encoded records of partition p, in output order.
  std::vector<std::vector<std::string>> partitions;
  mp::RunStats stats;
  /// Per-operator stage breakdown: one record per workflow job, measured
  /// between job barriers. Stage shuffle bytes/messages sum exactly to
  /// stats.remote_bytes/remote_messages.
  obs::StageReport report;

  std::size_t total_records() const;
  std::vector<std::vector<schema::Record>> decode() const;
};

class WorkflowEngine {
 public:
  /// `input_specs` is keyed by InputSpec id (the `format` attribute of
  /// workflow arguments). `args` binds argument names to launch-time values
  /// (file keys, partition counts, thresholds).
  WorkflowEngine(WorkflowConfig config,
                 std::map<std::string, schema::InputSpec> input_specs,
                 std::map<std::string, std::string> args, EngineOptions options = {},
                 const OperatorRegistry* registry = &OperatorRegistry::global());

  /// Resolves a parameter value: launch args, then workflow argument
  /// defaults, then "$op.param" references, then "$op.$attr" attribute
  /// references. Non-$ strings resolve to themselves.
  std::string resolve(const std::string& value) const;

  /// Runs the workflow on the runtime. `input_files` maps resolved
  /// file-argument values to file content (in-memory inputs; the paper's
  /// measurements exclude I/O time).
  PartitionResult run(mp::Runtime& runtime,
                      const std::map<std::string, std::string>& input_files);

  const WorkflowConfig& config() const { return config_; }

 private:
  std::string resolve_ref(const std::string& ref) const;

  WorkflowConfig config_;
  std::map<std::string, schema::InputSpec> input_specs_;
  std::map<std::string, std::string> args_;
  EngineOptions options_;
  const OperatorRegistry* registry_;
};

}  // namespace papar::core
