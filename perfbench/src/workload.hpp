// Workloads, inputs, reference partitions and engine runs of the benchmark.
//
// The benchmark drives PaPar only through its public library API: the
// configuration parsers, core::WorkflowEngine on an mp::Runtime, and (in
// probes.hpp) the core operators, mr::MapReduce and sortlib directly. Input
// generation and the reference partitions belong to the benchmark and are
// excluded from every timing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "blast/db.hpp"
#include "core/engine.hpp"
#include "graph/graph.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/runtime.hpp"

namespace perfbench {

/// Host threads the benchmark uses at once: the fiber workers of every
/// runtime, and the thread pools of sortlib and the PowerLyra reference.
inline constexpr int kHostThreads = 4;

enum class Family { kBlast, kHybrid };

struct WorkloadDef {
  std::string_view name;
  Family family;
  int ranks;
  std::size_t partitions;
  /// Per-rank memory budget, seeded fault plan and localized recovery.
  bool governed;
};

/// nullptr when `name` is not a workload.
const WorkloadDef* find_workload(std::string_view name);
std::vector<std::string_view> workload_names();

/// One workload's generated input plus the configuration that drives it.
struct Inputs {
  std::string spec_xml;
  std::string workflow_xml;
  std::string spec_id;
  std::map<std::string, std::string> args;
  std::map<std::string, std::string> files;
  std::size_t records = 0;
  std::size_t input_bytes = 0;
  /// Field the workflow's first operator sorts or groups by.
  std::string key_field;
  std::vector<papar::blast::IndexEntry> index;  // BLAST workloads
  papar::graph::Graph graph;                    // hybrid-cut workloads
};

/// Generates the workload's dataset from `seed` (blast::GeneratorOptions::seed,
/// google_like(seed) or pokec_like(seed)); `scale` < 1 shrinks it.
Inputs make_inputs(const WorkloadDef& w, std::uint64_t seed, double scale);

/// Fingerprint of a partition set: one hash over every record in partition
/// order, plus an order-insensitive (hash sum, count) per partition.
struct Digest {
  std::uint64_t ordered = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> multiset;
};

Digest digest_partitions(const std::vector<std::vector<std::string>>& partitions);

/// What every run's partitions must equal.
class Reference {
 public:
  /// From the independent implementations: blast::partition_reference fixes
  /// each partition's record order; graph::powerlyra_partition fixes only
  /// which records each partition holds.
  static Reference compute(const WorkloadDef& w, const Inputs& in);

  bool matches(const Digest& d) const;
  bool order_known() const { return ordered_.has_value(); }
  /// Fixes the record order to `d`'s once a run has matched the multisets,
  /// so every later run must be byte-identical to it.
  void pin_order(const Digest& d) { ordered_ = d.ordered; }

 private:
  std::optional<std::uint64_t> ordered_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> multiset_;
};

struct ParsedConfig {
  papar::core::WorkflowConfig workflow;
  papar::schema::InputSpec spec;
};

/// xml::parse + schema::parse_input_spec + core::parse_workflow.
ParsedConfig parse_config(const Inputs& in);

/// The simulated fabric (RDMA model, one rank = one 16-core node) and the
/// executor (fibers over 4 workers) every workload runs on.
papar::mp::NetworkModel fabric();
papar::core::EngineOptions engine_options(const WorkloadDef& w, std::size_t mem_budget,
                                          const std::string& spill_dir);

/// The governed workload's fault plan, seeded by `seed`; nullopt otherwise.
std::optional<papar::mp::FaultPlan> fault_plan(const WorkloadDef& w, std::uint64_t seed);

/// Attaches an observer (recorder, tracer, fault injector) to a runtime for
/// one scope.
template <typename T>
class Attached {
 public:
  Attached(papar::mp::Runtime& rt, void (papar::mp::Runtime::*set)(T*), T* observer)
      : rt_(rt), set_(set) {
    (rt_.*set_)(observer);
  }
  ~Attached() { (rt_.*set_)(nullptr); }
  Attached(const Attached&) = delete;
  Attached& operator=(const Attached&) = delete;

 private:
  papar::mp::Runtime& rt_;
  void (papar::mp::Runtime::*set_)(T*);
};

/// A parsed configuration bound into an engine, plus the runtime it runs on.
struct Engine {
  std::unique_ptr<papar::core::WorkflowEngine> engine;
  std::unique_ptr<papar::mp::Runtime> runtime;
};

Engine build_engine(const WorkloadDef& w, const Inputs& in,
                    const papar::core::EngineOptions& options);

struct RunResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process user + system CPU
  papar::core::PartitionResult result;
};

/// One WorkflowEngine::run. With a plan, a fresh injector is attached for
/// the run only, so every run sees the same fault schedule.
RunResult run_engine(Engine& e, const Inputs& in,
                     const std::optional<papar::mp::FaultPlan>& plan);

}  // namespace perfbench
