#include "workload.hpp"

#include <sys/resource.h>

#include "blast/generator.hpp"
#include "blast/partitioner.hpp"
#include "core/workflow.hpp"
#include "graph/generator.hpp"
#include "graph/papar_hybrid.hpp"
#include "graph/powerlyra.hpp"
#include "schema/input_config.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "xml/xml.hpp"

namespace perfbench {

using namespace papar;

namespace {

// One simulated rank stands in for one 16-core node at ~70% parallel
// efficiency: the node model of the repository's figure benches.
constexpr double kNodeScale = 1.0 / 11.2;
constexpr std::uint32_t kHybridThreshold = 200;

const std::vector<WorkloadDef>& defs() {
  static const std::vector<WorkloadDef> d = {
      {"blast-cyclic", Family::kBlast, 16, 32, false},
      {"hybrid-cut", Family::kHybrid, 16, 16, false},
      {"blast-cyclic-64r", Family::kBlast, 64, 32, false},
      {"hybrid-governed", Family::kHybrid, 16, 16, true},
  };
  return d;
}

/// Accumulates a Digest record by record, partition by partition.
class DigestBuilder {
 public:
  explicit DigestBuilder(std::size_t partitions) : digest_{0, {partitions, {0, 0}}} {}

  void add(std::size_t partition, std::string_view record) {
    if (partition != current_) {
      current_ = partition;
      digest_.ordered = mix64(digest_.ordered ^ (0x9e3779b97f4a7c15ULL * (partition + 1)));
    }
    const std::uint64_t h = key_hash(record);
    digest_.ordered = mix64(digest_.ordered ^ h);
    digest_.multiset.at(partition).first += h;
    digest_.multiset.at(partition).second += 1;
  }

  Digest take() { return std::move(digest_); }

 private:
  Digest digest_;
  std::size_t current_ = static_cast<std::size_t>(-1);
};

/// Process user + system CPU seconds so far.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace

const WorkloadDef* find_workload(std::string_view name) {
  for (const auto& w : defs()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string_view> workload_names() {
  std::vector<std::string_view> names;
  for (const auto& w : defs()) names.push_back(w.name);
  return names;
}

Inputs make_inputs(const WorkloadDef& w, std::uint64_t seed, double scale) {
  Inputs in;
  in.args["output_path"] = "partitions";
  in.args["num_partitions"] = std::to_string(w.partitions);
  if (w.family == Family::kBlast) {
    blast::GeneratorOptions opt = blast::nr_like();
    opt.seed = seed;
    opt.sequence_count =
        static_cast<std::size_t>(static_cast<double>(opt.sequence_count) * scale);
    blast::Database db = blast::generate_database(opt);
    in.spec_xml = blast::blast_input_spec_xml();
    in.workflow_xml = blast::blast_workflow_xml(blast::Policy::kCyclic);
    in.spec_id = "blast_db";
    in.args["input_path"] = "db.index";
    in.files["db.index"] = blast::index_file_image(db);
    in.records = db.index.size();
    in.input_bytes = in.files["db.index"].size();
    in.key_field = "seq_size";
    in.index = std::move(db.index);
  } else {
    graph::Graph g = w.governed ? graph::google_like(seed) : graph::pokec_like(seed);
    if (scale < 1.0) {
      g.edges.resize(static_cast<std::size_t>(static_cast<double>(g.edges.size()) * scale));
    }
    in.spec_xml = graph::edge_input_spec_xml();
    in.workflow_xml = graph::hybrid_workflow_xml();
    in.spec_id = "graph_edge";
    in.args["input_file"] = "edges.txt";
    in.args["threshold"] = std::to_string(kHybridThreshold);
    in.files["edges.txt"] = graph::to_edge_list_text(g);
    in.records = g.edges.size();
    in.input_bytes = in.files["edges.txt"].size();
    in.key_field = "vertex_b";
    in.graph = std::move(g);
  }
  return in;
}

Digest digest_partitions(const std::vector<std::vector<std::string>>& partitions) {
  DigestBuilder b(partitions.size());
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    for (const auto& rec : partitions[p]) b.add(p, rec);
  }
  return b.take();
}

Reference Reference::compute(const WorkloadDef& w, const Inputs& in) {
  Reference ref;
  DigestBuilder b(w.partitions);
  if (w.family == Family::kBlast) {
    const auto parts =
        blast::partition_reference(in.index, w.partitions, blast::Policy::kCyclic);
    for (std::size_t p = 0; p < parts.partitions.size(); ++p) {
      for (const auto& e : parts.partitions[p]) {
        b.add(p, std::string_view(reinterpret_cast<const char*>(&e), sizeof(e)));
      }
    }
    Digest d = b.take();
    ref.ordered_ = d.ordered;
    ref.multiset_ = std::move(d.multiset);
    return ref;
  }
  // Hybrid-cut: PowerLyra's edge -> partition assignment, each edge
  // rendered as the (vertex_a, vertex_b) record the workflow outputs.
  const schema::Schema schema = parse_config(in).spec.schema;
  ThreadPool pool(kHostThreads);
  const auto assignment =
      graph::powerlyra_partition(in.graph, w.partitions, kHybridThreshold, pool);
  for (std::size_t i = 0; i < in.graph.edges.size(); ++i) {
    const auto& e = in.graph.edges[i];
    const schema::Record rec(
        {schema::Value(std::to_string(e.src)), schema::Value(std::to_string(e.dst))});
    b.add(assignment.edge_partition[i], rec.encode(schema));
  }
  ref.multiset_ = b.take().multiset;
  return ref;
}

bool Reference::matches(const Digest& d) const {
  if (d.multiset != multiset_) return false;
  return !ordered_ || *ordered_ == d.ordered;
}

ParsedConfig parse_config(const Inputs& in) {
  ParsedConfig c{core::parse_workflow(xml::parse(in.workflow_xml)),
                 schema::parse_input_spec(xml::parse(in.spec_xml))};
  return c;
}

mp::NetworkModel fabric() { return mp::NetworkModel::rdma().with_compute_scale(kNodeScale); }

core::EngineOptions engine_options(const WorkloadDef& w, std::size_t mem_budget,
                                   const std::string& spill_dir) {
  core::EngineOptions o;
  o.scheduler.mode = mp::SchedulerMode::kFibers;
  o.scheduler.workers = kHostThreads;
  o.spill_dir = spill_dir;
  o.mem_budget = mem_budget;
  if (w.governed) o.recovery.mode = mp::RecoveryMode::kLocal;
  return o;
}

std::optional<mp::FaultPlan> fault_plan(const WorkloadDef& w, std::uint64_t seed) {
  if (!w.governed) return std::nullopt;
  mp::FaultPlan plan = mp::FaultPlan::parse("drop=0.02,crash=3@20");
  plan.seed = seed;
  return plan;
}

Engine build_engine(const WorkloadDef& w, const Inputs& in,
                    const core::EngineOptions& options) {
  ParsedConfig c = parse_config(in);
  Engine e;
  e.engine = std::make_unique<core::WorkflowEngine>(
      std::move(c.workflow),
      std::map<std::string, schema::InputSpec>{{in.spec_id, std::move(c.spec)}}, in.args,
      options);
  e.runtime = std::make_unique<mp::Runtime>(w.ranks, fabric(), options.scheduler);
  return e;
}

RunResult run_engine(Engine& e, const Inputs& in, const std::optional<mp::FaultPlan>& plan) {
  std::optional<mp::FaultInjector> injector;
  std::optional<Attached<mp::FaultInjector>> attach;
  if (plan) {
    injector.emplace(*plan);
    attach.emplace(*e.runtime, &mp::Runtime::set_fault_injector, &*injector);
  }

  RunResult r;
  const double cpu0 = process_cpu_seconds();
  WallTimer timer;
  r.result = e.engine->run(*e.runtime, in.files);
  r.wall_s = timer.seconds();
  r.cpu_s = process_cpu_seconds() - cpu0;
  return r;
}

}  // namespace perfbench
