#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <span>
#include <string>

#include "core/operators.hpp"
#include "mapreduce/mapreduce.hpp"
#include "obs/critpath.hpp"
#include "obs/trace.hpp"
#include "schema/input_config.hpp"
#include "sortlib/sort.hpp"
#include "util/membudget.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace papar;

namespace {

constexpr int kProbeReps = 3;
constexpr int kSpawnReps = 5;

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-rank host-wall and virtual durations of consecutive phases of one
/// Runtime::run body. Every phase ends at a barrier, so the phases tile the
/// body; each rank writes only its own slots.
class PhaseTable {
 public:
  PhaseTable(std::vector<std::string> names, int nranks)
      : names_(std::move(names)),
        wall_(names_.size(), std::vector<double>(static_cast<std::size_t>(nranks), 0.0)),
        virt_(wall_) {}

  /// Rank-side stopwatch; construction synchronizes all ranks.
  class Stopwatch {
   public:
    Stopwatch(PhaseTable& table, mp::Comm& comm) : table_(table), comm_(comm) {
      comm_.barrier();
      wall0_ = now_seconds();
      virt0_ = comm_.vtime();
    }

    /// Closes phase `phase` at a barrier and opens the next one.
    void lap(std::size_t phase) {
      comm_.barrier();
      const double wall = now_seconds();
      const double virt = comm_.vtime();
      const auto r = static_cast<std::size_t>(comm_.rank());
      table_.wall_.at(phase)[r] = wall - wall0_;
      table_.virt_.at(phase)[r] = virt - virt0_;
      wall0_ = wall;
      virt0_ = virt;
    }

   private:
    PhaseTable& table_;
    mp::Comm& comm_;
    double wall0_ = 0.0;
    double virt0_ = 0.0;
  };

  /// Slowest rank's time in phase `name` (0 when the phase never ran).
  double max_wall(std::string_view name) const { return max_of(wall_, name); }
  double max_virtual(std::string_view name) const { return max_of(virt_, name); }

 private:
  double max_of(const std::vector<std::vector<double>>& v, std::string_view name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return *std::max_element(v[i].begin(), v[i].end());
    }
    return 0.0;
  }

  std::vector<std::string> names_;
  std::vector<std::vector<double>> wall_;
  std::vector<std::vector<double>> virt_;
};

/// Per-metric samples over probe repetitions; medians go to the MetricSet.
class Samples {
 public:
  void add(const std::string& name, double v) { samples_[name].push_back(v); }
  void emit(MetricSet& out) const {
    for (const auto& [name, v] : samples_) out.set(name, median(v));
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Attaches a memory budget configured like the engine's governed runs
/// (soft watermark at 80%, mailboxes capped at a quarter) for one scope.
class ScopedBudget {
 public:
  ScopedBudget(mp::Runtime& rt, const core::EngineOptions& o) : rt_(rt) {
    if (o.mem_budget == 0) return;
    MemoryBudgetConfig cfg;
    cfg.hard_limit = o.mem_budget;
    cfg.soft_limit = o.mem_budget / 5 * 4;
    cfg.mailbox_limit = o.mem_budget / 4;
    cfg.spill_dir = o.spill_dir;
    budget_ = std::make_unique<MemoryBudget>(std::move(cfg));
    rt_.set_memory_budget(budget_.get());
  }
  ~ScopedBudget() {
    if (budget_) rt_.set_memory_budget(nullptr);
  }
  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;

 private:
  mp::Runtime& rt_;
  std::unique_ptr<MemoryBudget> budget_;
};

/// The workload's input opened and split exactly as the engine does.
struct OpenInput {
  std::unique_ptr<schema::InputFormat> format;
  std::vector<schema::FileSplit> splits;
};

OpenInput open_input(const LayerContext& ctx, const schema::InputSpec& spec) {
  OpenInput o;
  o.format = schema::open_input_from_memory(spec, ctx.inputs.files.begin()->second);
  o.splits = o.format->splits(ctx.workload.ranks);
  return o;
}

/// Operator arguments of the workload's workflow (Fig. 8 or Fig. 10).
struct ReplayArgs {
  core::SortArgs sort;
  core::GroupArgs group;
  core::SplitArgs split;
  core::DistributeArgs dist;
};

ReplayArgs replay_args(const LayerContext& ctx, const schema::Schema& schema) {
  ReplayArgs a;
  a.dist.num_partitions = ctx.workload.partitions;
  a.dist.output_schema = schema;
  if (ctx.workload.family == Family::kBlast) {
    a.sort.key = ctx.inputs.key_field;
    a.dist.policy = core::parse_distr_policy("roundRobin");
    return a;
  }
  const std::string threshold = ctx.inputs.args.at("threshold");
  a.group.key = ctx.inputs.key_field;
  a.group.addon = core::AddOnSpec{core::AddOnKind::kCount, ctx.inputs.key_field, "indegree"};
  a.group.output_format = core::DataFormat::kPacked;
  a.split.key = "indegree";
  a.split.conditions = {core::parse_split_condition("{>=, " + threshold + "}"),
                        core::parse_split_condition("{<, " + threshold + "}")};
  a.split.output_formats = {core::DataFormat::kOrig, std::nullopt};
  a.dist.policy = core::parse_distr_policy("graphVertexCut");
  return a;
}

/// The workflow replayed through the core operators, one phase per
/// operator. Returns false when its partitions differ from the reference.
bool replay_workflow(const LayerContext& ctx, const schema::InputSpec& spec,
                     Samples& samples) {
  const ReplayArgs args = replay_args(ctx, spec.schema);
  const bool blast = ctx.workload.family == Family::kBlast;
  mp::Runtime& rt = *ctx.engine.runtime;
  bool ok = true;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    WallTimer open_timer;
    const OpenInput input = open_input(ctx, spec);
    const double open_s = open_timer.seconds();

    enum Phase : std::size_t { kLoad, kSort, kGroup, kSplit, kDistribute, kMaterialize };
    PhaseTable table({"load", "sort", "group", "split", "distribute", "materialize"},
                     ctx.workload.ranks);
    std::vector<std::vector<std::string>> partitions;
    {
      ScopedBudget budget(rt, ctx.options);
      rt.run([&](mp::Comm& comm) {
        PhaseTable::Stopwatch watch(table, comm);
        core::Dataset ds;
        ds.schema = input.format->schema();
        input.format->for_each_wire(input.splits[static_cast<std::size_t>(comm.rank())],
                                    [&ds](std::string_view wire) { ds.page.add("", wire); });
        watch.lap(kLoad);
        std::vector<core::Dataset> outs;
        std::vector<core::Dataset*> dist_in;
        if (blast) {
          core::sort_op(comm, ds, args.sort);
          watch.lap(kSort);
          dist_in.push_back(&ds);
        } else {
          core::group_op(comm, ds, args.group);
          watch.lap(kGroup);
          outs = core::split_op(comm, std::move(ds), args.split);
          watch.lap(kSplit);
          for (auto& o : outs) dist_in.push_back(&o);
        }
        const core::DistributedDataset dist = core::distribute_op(comm, dist_in, args.dist);
        watch.lap(kDistribute);
        auto parts = core::materialize_partitions(comm, dist);
        watch.lap(kMaterialize);
        if (comm.rank() == 0) partitions = std::move(parts);
      });
    }
    if (!ctx.reference.matches(digest_partitions(partitions))) {
      std::fprintf(stderr, "perfbench: operator replay partitions differ from the reference\n");
      ok = false;
    }
    samples.add("schema.parse_s", open_s + table.max_wall("load"));
    for (const char* op : {"sort", "group", "split", "distribute", "materialize"}) {
      samples.add(std::string("op.") + op + "_s", table.max_wall(op));
      samples.add(std::string("op.") + op + "_vs", table.max_virtual(op));
    }
  }
  return ok;
}

/// The workflow's first MapReduce job on mr::MapReduce directly: the
/// sample sort of the BLAST workflow, or the re-key + hash aggregate +
/// reduce of hybrid-cut's group.
void probe_mapreduce(const LayerContext& ctx, const schema::InputSpec& spec,
                     Samples& samples) {
  const bool blast = ctx.workload.family == Family::kBlast;
  const schema::Schema& schema = spec.schema;
  const std::size_t key = schema.required_index(ctx.inputs.key_field);
  const OpenInput input = open_input(ctx, spec);
  mp::Runtime& rt = *ctx.engine.runtime;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    enum Phase : std::size_t { kLoad, kSampleSort, kRekey, kAggregate, kReduce };
    PhaseTable table({"load", "sample_sort", "rekey", "aggregate", "reduce"},
                     ctx.workload.ranks);
    {
      ScopedBudget budget(rt, ctx.options);
      rt.run([&](mp::Comm& comm) {
        PhaseTable::Stopwatch watch(table, comm);
        mr::MapReduce job(comm);
        input.format->for_each_wire(
            input.splits[static_cast<std::size_t>(comm.rank())],
            [&job](std::string_view wire) { job.mutable_local().add("", wire); });
        watch.lap(kLoad);
        if (blast) {
          job.sample_sort_u64(
              [&schema, key](std::string_view, std::string_view value) {
                return schema::project_field(schema, value, key);
              },
              /*ascending=*/true, mr::SplitterMethod::kSampled, /*oversample=*/32,
              /*tie_break_bytes=*/true);
          watch.lap(kSampleSort);
          return;
        }
        job.map_kv([&schema, key](std::string_view, std::string_view value,
                                  mr::KvEmitter& emit) {
          emit.emit(schema::wire_string_field(schema, value, key), value);
        });
        watch.lap(kRekey);
        job.aggregate();
        watch.lap(kAggregate);
        job.reduce([](std::string_view k, std::span<const std::string_view> values,
                      mr::KvEmitter& emit) {
          const std::uint64_t n = values.size();
          emit.emit(k, std::string_view(reinterpret_cast<const char*>(&n), sizeof(n)));
        });
        watch.lap(kReduce);
      });
    }
    samples.add("mr.sample_sort_s", table.max_wall("sample_sort"));
    samples.add("mr.sample_sort_vs", table.max_virtual("sample_sort"));
    samples.add("mr.aggregate_vs", table.max_virtual("aggregate"));
    samples.add("mr.reduce_vs", table.max_virtual("reduce"));
  }
}

/// sortlib on the workload's keys (u64 projections of the first operator's
/// key field): all of them on a 4-thread pool, and each rank's share alone.
bool probe_sortlib(const LayerContext& ctx, const schema::InputSpec& spec,
                   Samples& samples) {
  const std::size_t key = spec.schema.required_index(ctx.inputs.key_field);
  const OpenInput input = open_input(ctx, spec);
  std::vector<std::vector<std::uint64_t>> shares(input.splits.size());
  std::vector<std::uint64_t> all;
  for (std::size_t r = 0; r < input.splits.size(); ++r) {
    input.format->for_each_wire(input.splits[r], [&](std::string_view wire) {
      shares[r].push_back(schema::project_field(spec.schema, wire, key));
    });
    all.insert(all.end(), shares[r].begin(), shares[r].end());
  }
  bool ok = true;
  ThreadPool pool(kHostThreads);
  ThreadPool single(1);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    auto v = all;
    WallTimer timer;
    sortlib::parallel_sort(std::span<std::uint64_t>(v), std::less<std::uint64_t>(), pool);
    samples.add("sortlib.parallel_sort_s", timer.seconds());
    ok = ok && std::is_sorted(v.begin(), v.end());
    double slowest = 0.0;
    for (const auto& share : shares) {
      auto s = share;
      WallTimer rank_timer;
      sortlib::parallel_sort(std::span<std::uint64_t>(s), std::less<std::uint64_t>(), single);
      slowest = std::max(slowest, rank_timer.seconds());
      ok = ok && std::is_sorted(s.begin(), s.end());
    }
    samples.add("sortlib.rank_sort_s", slowest);
  }
  if (!ok) std::fprintf(stderr, "perfbench: sortlib probe output is not sorted\n");
  return ok;
}

/// Runtime::run with an empty body, and one alltoallv carrying the traced
/// run's traffic matrix.
void probe_mpsim(const LayerContext& ctx,
                 const std::vector<std::vector<std::uint64_t>>& matrix, Samples& samples) {
  mp::Runtime& rt = *ctx.engine.runtime;
  for (int rep = 0; rep < kSpawnReps; ++rep) {
    WallTimer timer;
    rt.run([](mp::Comm&) {});
    samples.add("mpsim.spawn_s", timer.seconds());
  }
  for (int rep = 0; rep < kProbeReps; ++rep) {
    PhaseTable table({"alltoallv"}, ctx.workload.ranks);
    rt.run([&](mp::Comm& comm) {
      const auto& row = matrix.at(static_cast<std::size_t>(comm.rank()));
      std::vector<std::vector<unsigned char>> bufs(row.size());
      for (std::size_t d = 0; d < row.size(); ++d) bufs[d].resize(row[d]);
      PhaseTable::Stopwatch watch(table, comm);
      comm.alltoallv(std::move(bufs));
      watch.lap(0);
    });
    samples.add("mpsim.alltoallv_s", table.max_wall("alltoallv"));
    samples.add("mpsim.alltoallv_vs", table.max_virtual("alltoallv"));
  }
}

/// Medians of StageReport quantities over the untraced engine runs.
void report_metrics(const LayerContext& ctx, MetricSet& out) {
  auto med = [&](const std::function<double(const obs::StageReport&)>& f) {
    std::vector<double> v;
    for (const auto& r : ctx.reports) v.push_back(f(r));
    return median(v);
  };
  for (const char* id : {"sort", "group", "split", "distr"}) {
    auto stage = [id](const obs::StageReport& r) -> const obs::StageRecord* {
      for (const auto& s : r.stages) {
        if (s.id == id) return &s;
      }
      return nullptr;
    };
    out.set(std::string("engine.stage_vs.") + id, med([&](const obs::StageReport& r) {
              const auto* s = stage(r);
              return s ? s->seconds : 0.0;
            }));
    out.set(std::string("engine.stage_skew.") + id, med([&](const obs::StageReport& r) {
              const auto* s = stage(r);
              return s ? s->reducer_skew : 0.0;
            }));
  }
  const auto mb = [](std::uint64_t bytes) { return static_cast<double>(bytes) / 1e6; };
  const auto n = [](std::uint64_t count) { return static_cast<double>(count); };
  out.set("mpsim.remote_mb", med([&](const obs::StageReport& r) { return mb(r.remote_bytes); }));
  out.set("mpsim.remote_msgs", med([&](const obs::StageReport& r) { return n(r.remote_messages); }));
  out.set("mem.high_water_mb",
          med([&](const obs::StageReport& r) { return mb(r.memory.high_water_bytes); }));
  out.set("mem.spill_mb", med([&](const obs::StageReport& r) { return mb(r.memory.spill_bytes); }));
  out.set("mem.backpressure_stalls",
          med([&](const obs::StageReport& r) { return n(r.memory.backpressure_stalls); }));
  out.set("fault.retries", med([&](const obs::StageReport& r) { return n(r.faults.retries); }));
  out.set("recovery.rank_replays",
          med([&](const obs::StageReport& r) { return n(r.faults.rank_replays); }));
  out.set("recovery.refetched_mb",
          med([&](const obs::StageReport& r) { return mb(r.faults.bytes_refetched); }));
  out.set("ckpt.saves", med([&](const obs::StageReport& r) { return n(r.faults.checkpoint_saves); }));
  if (ctx.workload.governed &&
      (out.get("mem.backpressure_stalls") == 0.0 || out.get("recovery.rank_replays") == 0.0)) {
    std::fprintf(stderr,
                 "perfbench: warning: the governed workload no longer stalls on credits "
                 "or replays a rank; it has stopped exercising the governed path\n");
  }
}

/// One engine run with an obs::Recorder attached: sort-engine dispatch and
/// shuffle wire bytes.
bool counters_run(const LayerContext& ctx, MetricSet& out) {
  obs::Recorder recorder;
  RunResult run;
  {
    Attached<obs::Recorder> attach(*ctx.engine.runtime, &mp::Runtime::set_recorder, &recorder);
    run = run_engine(ctx.engine, ctx.inputs, ctx.plan);
  }
  const double radix = static_cast<double>(recorder.counter("sort.engine_radix"));
  const double merge = static_cast<double>(recorder.counter("sort.engine_merge"));
  out.set("sort.radix_frac", radix + merge > 0.0 ? radix / (radix + merge) : 0.0);
  const double wire = static_cast<double>(recorder.counter("mr.shuffle.wire_bytes"));
  out.set("mr.shuffle_wire_mb", wire / 1e6);
  out.set("mr.bytes_per_input_byte", wire / static_cast<double>(ctx.inputs.input_bytes));
  if (!ctx.reference.matches(digest_partitions(run.result.partitions))) {
    std::fprintf(stderr, "perfbench: recorded run partitions differ from the reference\n");
    return false;
  }
  return true;
}

/// Engine runs with an obs::TraceRecorder attached. The critical-path
/// metrics come from the run with the median critical-path length, so its
/// stage fractions still sum to 1; the tracing overhead is the median over
/// runs. Fills `matrix` with that run's link traffic.
bool traced_runs(const LayerContext& ctx, MetricSet& out,
                 std::vector<std::vector<std::uint64_t>>& matrix) {
  struct Traced {
    std::map<std::string, double> values;
    std::vector<std::vector<std::uint64_t>> matrix;
  };
  std::vector<Traced> runs;
  std::vector<double> overhead;
  bool ok = true;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    obs::TraceRecorder tracer;
    RunResult run;
    obs::TraceData trace;
    {
      Attached<obs::TraceRecorder> attach(*ctx.engine.runtime, &mp::Runtime::set_tracer,
                                          &tracer);
      run = run_engine(ctx.engine, ctx.inputs, ctx.plan);
      trace = tracer.snapshot();
    }
    if (!ctx.reference.matches(digest_partitions(run.result.partitions))) {
      std::fprintf(stderr, "perfbench: traced run partitions differ from the reference\n");
      ok = false;
    }
    overhead.push_back(run.wall_s / ctx.engine_wall_s - 1.0);

    const obs::CriticalPath path = obs::critical_path(trace);
    Traced t;
    t.matrix = obs::link_matrix(trace);
    const double makespan = run.result.stats.makespan;
    t.values["engine.traced_makespan_vs"] = makespan;
    t.values["critpath.total_vs"] = path.total;
    t.values["engine.output_gap_vs"] = path.total - makespan;
    for (const char* stage : {"setup", "sort", "group", "split", "distr", "output", "other"}) {
      t.values[std::string("critpath.") + stage + "_frac"] = 0.0;
    }
    double stage_sum = 0.0;
    for (const auto& [stage, seconds] : path.by_stage) {
      const double frac = path.total > 0.0 ? seconds / path.total : 0.0;
      std::string key = "critpath." + (stage.rfind("job:", 0) == 0 ? stage.substr(4) : stage) +
                        "_frac";
      if (!t.values.count(key)) key = "critpath.other_frac";
      t.values[key] += frac;
      stage_sum += frac;
    }
    for (const char* kind : {"compute", "comm", "barrier", "retry", "recovery"}) {
      const auto it = path.by_kind.find(kind);
      const double seconds = it == path.by_kind.end() ? 0.0 : it->second;
      t.values[std::string("critpath.") + kind + "_frac"] =
          path.total > 0.0 ? seconds / path.total : 0.0;
    }
    if (std::abs(stage_sum - 1.0) > 0.01) {
      std::fprintf(stderr, "perfbench: critical-path stage fractions sum to %.4f, not 1\n",
                   stage_sum);
      ok = false;
    }
    runs.push_back(std::move(t));
  }
  std::sort(runs.begin(), runs.end(), [](const Traced& a, const Traced& b) {
    return a.values.at("critpath.total_vs") < b.values.at("critpath.total_vs");
  });
  Traced& mid = runs[runs.size() / 2];
  for (const auto& [name, value] : mid.values) out.set(name, value);
  out.set("obs.trace_overhead_frac", median(overhead));
  matrix = std::move(mid.matrix);
  return ok;
}

}  // namespace

bool measure_layers(const LayerContext& ctx, MetricSet& out) {
  Samples samples;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    WallTimer timer;
    parse_config(ctx.inputs);
    samples.add("config.parse_s", timer.seconds());
  }
  const schema::InputSpec spec = parse_config(ctx.inputs).spec;

  report_metrics(ctx, out);
  bool ok = counters_run(ctx, out);
  std::vector<std::vector<std::uint64_t>> matrix;
  ok = traced_runs(ctx, out, matrix) && ok;
  ok = replay_workflow(ctx, spec, samples) && ok;
  probe_mapreduce(ctx, spec, samples);
  ok = probe_sortlib(ctx, spec, samples) && ok;
  probe_mpsim(ctx, matrix, samples);
  samples.emit(out);

  double attributed = out.get("schema.parse_s") + out.get("mpsim.spawn_s");
  for (const char* op : {"sort", "group", "split", "distribute", "materialize"}) {
    attributed += out.get(std::string("op.") + op + "_s");
  }
  out.set("engine.unattributed_frac", 1.0 - attributed / ctx.engine_wall_s);
  return ok;
}

}  // namespace perfbench
