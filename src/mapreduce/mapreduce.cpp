#include "mapreduce/mapreduce.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "mapreduce/sort_column.hpp"
#include "mapreduce/spill.hpp"
#include "util/hash.hpp"
#include "util/membudget.hpp"

namespace papar::mr {

using detail::be_bytes;
using detail::KeyedIndex;
using detail::SampleView;
using detail::sample_less;

namespace {

std::uint32_t read_seg_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void write_seg_u32(unsigned char* p, std::uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

/// True when the budget is configured for disk spill (soft watermark and a
/// spill directory): the signal to route sort/rewrite phases through the
/// bounded-memory paths.
bool spill_ready(const MemoryBudget* budget) {
  return budget != nullptr && budget->config().soft_limit > 0 &&
         !budget->config().spill_dir.empty();
}

SpillConfig make_spill_config(MemoryBudget* budget, int rank) {
  SpillConfig cfg;
  cfg.budget = budget;
  cfg.rank = rank;
  cfg.dir = budget->config().spill_dir;
  // Small floor so tiny budgets stay feasible: the external sort's scratch
  // charge is min(run_bytes, page size), and a run must fit under the hard
  // limit for the sort to start at all.
  cfg.run_bytes =
      std::max<std::size_t>(16u * 1024, budget->config().soft_limit / 4);
  return cfg;
}

/// The spool map_kv and reduce emit through. Under a spill-ready budget it
/// spills past the soft watermark, checked after every emitted record, and
/// the source page is freed before the output materializes, so the peak is
/// max(input, output) + one spool buffer instead of input + output.
/// Otherwise it only buffers.
SpillConfig spool_config(MemoryBudget* budget, int rank) {
  return spill_ready(budget) ? make_spill_config(budget, rank) : SpillConfig{};
}

/// reduce()'s fixed-width key: bytes 0-7 of the group key, then bytes 8-14
/// above the key's length capped at 16. Big-endian and zero-padded, it
/// never contradicts byte order, and a key shorter than 16 bytes is the
/// only key with its SortKey.
SortKey group_sort_key(std::string_view key) {
  return SortKey{be_bytes(key, 0, 8),
                 (be_bytes(key, 8, 7) << 8) | std::min<std::size_t>(key.size(), 16)};
}

/// True when a group SortKey belongs to exactly one key.
bool group_key_exact(const SortKey& k) { return (k.minor & 0xFF) < 16; }

/// Byte order of two records with equal SortKeys under `tie`.
bool tie_less(TieBreak tie, const KvPair& a, const KvPair& b) {
  switch (tie) {
    case TieBreak::kNone:
      return false;
    case TieBreak::kValue:
      return a.value < b.value;
    case TieBreak::kKeyValue: {
      const int by_key = a.key.compare(b.key);
      return by_key != 0 ? by_key < 0 : a.value < b.value;
    }
  }
  return false;
}

/// The full (key, tie) order as a record comparator: the comparator and
/// external-sort paths of MapReduce::sort_by_key.
std::function<bool(const KvPair&, const KvPair&)> key_less(const MapReduce::SortKeyFn& key,
                                                           TieBreak tie) {
  return [&key, tie](const KvPair& a, const KvPair& b) {
    const SortKey ka = key(a);
    const SortKey kb = key(b);
    if (ka.major != kb.major) return ka.major < kb.major;
    if (ka.minor != kb.minor) return ka.minor < kb.minor;
    return tie_less(tie, a, b);
  };
}

/// Records one kSpan trace event per rank for a MapReduce phase. Costs one
/// vtime() read at each end when a tracer is attached, nothing otherwise.
class PhaseSpan {
 public:
  PhaseSpan(mp::Comm* comm, const char* name) : comm_(comm), name_(name) {
    if (comm_->tracing()) {
      active_ = true;
      begin_ = comm_->vtime();
    }
  }
  ~PhaseSpan() {
    if (active_) comm_->record_span(name_, begin_);
  }

  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  mp::Comm* comm_;
  const char* name_;
  bool active_ = false;
  double begin_ = 0.0;
};

}  // namespace

void MapReduce::map(int nmap, const MapTaskFn& fn) {
  PhaseSpan span(comm_, "mr.map");
  KvEmitter emitter(page_);
  for (int itask = comm_->rank(); itask < nmap; itask += comm_->size()) {
    fn(itask, emitter);
  }
}

void MapReduce::map_kv(const MapKvFn& fn) {
  PhaseSpan span(comm_, "mr.map_kv");
  RewriteSpool spool(spool_config(budget_, comm_->rank()));
  KvEmitter emitter(spool);
  page_.for_each([&](std::string_view k, std::string_view v) { fn(k, v, emitter); });
  { auto old = page_.take_bytes(); }
  spool.finish(page_);
}

void MapReduce::shuffle_by(const std::function<int(const KvPair&)>& route) {
  PhaseSpan span(comm_, "mr.shuffle");
  const int p = comm_->size();
  const std::uint64_t routed = page_.count();

  // Sizing pass: run the routing function exactly once per record (it may
  // be stateful — sample_sort's tie spreader is), remember the destination,
  // and accumulate exact per-destination byte counts.
  std::vector<int> dests;
  dests.reserve(routed);
  std::vector<std::size_t> dest_bytes(static_cast<std::size_t>(p), 0);
  page_.for_each_record(
      [&](std::span<const unsigned char> framed, std::string_view k, std::string_view v) {
        const int dest = route(KvPair{k, v});
        PAPAR_CHECK_MSG(dest >= 0 && dest < p, "partitioner returned an invalid rank");
        dests.push_back(dest);
        dest_bytes[static_cast<std::size_t>(dest)] += framed.size();
      });
  obs::Recorder* rec = comm_->recorder();
  if (rec != nullptr) rec->add_counter("mr.shuffle.records", routed);

  // Credit-governed runtimes take the segmented path: many bounded
  // segments per destination instead of one page-sized buffer per rank,
  // so neither the send side nor any mailbox ever holds the whole stage.
  if (budget_ != nullptr && budget_->config().mailbox_limit > 0) {
    shuffle_segmented(dests, dest_bytes);
    return;
  }

  // Fill pass: bulk-copy each framed record into its destination page.
  // With a (non-credit) budget attached, the pages count as tracked
  // working memory: a stage that cannot fit fails typed, not OOM.
  std::size_t total_bytes = 0;
  for (const std::size_t b : dest_bytes) total_bytes += b;
  BudgetScope pages_scope(budget_, comm_->rank(), total_bytes);
  std::vector<std::vector<unsigned char>> pages(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    pages[static_cast<std::size_t>(r)].reserve(dest_bytes[static_cast<std::size_t>(r)]);
  }
  std::size_t i = 0;
  page_.for_each_record(
      [&](std::span<const unsigned char> framed, std::string_view, std::string_view) {
        auto& buf = pages[static_cast<std::size_t>(dests[i++])];
        buf.insert(buf.end(), framed.begin(), framed.end());
      });
  page_.clear();
  if (rec != nullptr) rec->add_counter("mr.shuffle.wire_bytes", total_bytes);

  // Ownership-transfer shuffle: the pages move into the destination
  // mailboxes uncopied, and each received buffer is freed once appended.
  auto received = comm_->alltoallv(std::move(pages));
  for (auto& part : received) {
    page_.append_page(part.data(), part.size());
    part = std::vector<unsigned char>();
  }
}

void MapReduce::shuffle_segmented(const std::vector<int>& dests,
                                  const std::vector<std::size_t>& dest_bytes) {
  const int p = comm_->size();
  const int self = comm_->rank();
  constexpr std::size_t kSegHeader = 2 * sizeof(std::uint32_t);

  // Segment payload target: small enough that p in-flight segments stay
  // well under the soft watermark and two fit in a mailbox, large enough
  // to amortize per-message latency.
  const std::size_t soft = budget_->config().soft_limit;
  const std::size_t cap = budget_->config().mailbox_limit;
  std::size_t chunk =
      std::max<std::size_t>(soft / (4 * static_cast<std::size_t>(p)), 4096);
  chunk = std::min(chunk, std::max<std::size_t>(cap / 2, 256));
  // No segment needs to be larger than the biggest destination's data: a
  // generous budget must not inflate the staging buffers (or the measured
  // high water) past what the exchange actually moves.
  std::size_t max_dest = 0;
  for (const std::size_t b : dest_bytes) max_dest = std::max(max_dest, b);
  chunk = std::min(chunk, std::max<std::size_t>(max_dest, 256));

  // Sizing pass: per-destination segment totals under the greedy cut. The
  // final (possibly frame-less) segment every destination receives carries
  // the count, so receivers always learn when a source is done.
  std::vector<std::uint32_t> total(static_cast<std::size_t>(p), 1);
  {
    std::vector<std::size_t> fill(static_cast<std::size_t>(p), 0);
    std::size_t i = 0;
    page_.for_each_record(
        [&](std::span<const unsigned char> framed, std::string_view, std::string_view) {
          const auto d = static_cast<std::size_t>(dests[i++]);
          if (fill[d] > 0 && fill[d] + framed.size() > chunk) {
            ++total[d];
            fill[d] = 0;
          }
          fill[d] += framed.size();
        });
  }

  // Receiver state: segments from one source arrive in sequence order
  // (per-source FIFO), and the done mask stops consumption at the
  // announced count so a fast peer's *next* collective cannot be stolen.
  std::vector<std::uint32_t> expect(static_cast<std::size_t>(p), 0);  // 0 = unknown
  std::vector<std::uint32_t> got(static_cast<std::size_t>(p), 0);
  std::vector<char> done(static_cast<std::size_t>(p), 0);
  std::vector<std::vector<std::vector<unsigned char>>> store(
      static_cast<std::size_t>(p));
  int open = p;
  auto note_segment = [&](mp::Envelope& env) {
    const auto src = static_cast<std::size_t>(env.source);
    PAPAR_CHECK_MSG(env.payload.size() >= kSegHeader, "shuffle segment too short");
    const std::uint32_t seq = read_seg_u32(env.payload.data());
    const std::uint32_t announced = read_seg_u32(env.payload.data() + 4);
    PAPAR_CHECK_MSG(seq == got[src], "shuffle segments out of order");
    if (expect[src] == 0) {
      expect[src] = announced;
    } else {
      PAPAR_CHECK_MSG(expect[src] == announced,
                      "shuffle segment count changed mid-stream");
    }
    env.payload.erase(env.payload.begin(),
                      env.payload.begin() + static_cast<std::ptrdiff_t>(kSegHeader));
    store[src].push_back(std::move(env.payload));
    if (++got[src] == expect[src]) {
      done[src] = 1;
      --open;
    }
  };

  // Fill-and-stream pass. The p open segment buffers (≤ p * chunk bytes,
  // about a quarter of the soft watermark) are this path's tracked
  // transient; received segments replace the source page byte-for-byte.
  std::vector<std::vector<unsigned char>> seg(static_cast<std::size_t>(p));
  std::vector<std::uint32_t> seq_no(static_cast<std::size_t>(p), 0);
  auto start_segment = [&](std::size_t d) {
    auto& b = seg[d];
    b.clear();
    b.resize(kSegHeader);
    write_seg_u32(b.data(), seq_no[d]);
    write_seg_u32(b.data() + 4, total[d]);
  };
  // Tracked charge for the open buffers: each destination stages at most
  // min(chunk, its data) + header, so the charge follows the data, not the
  // worst-case p * chunk.
  const std::size_t staged = [&] {
    std::size_t sum = 0;
    for (const std::size_t b : dest_bytes) sum += std::min(chunk, b) + kSegHeader;
    return sum;
  }();
  BudgetScope scratch(budget_, self, staged);
  for (std::size_t d = 0; d < static_cast<std::size_t>(p); ++d) start_segment(d);
  mp::Envelope env;
  auto flush_segment = [&](std::size_t d) {
    comm_->shuffle_send(static_cast<int>(d), std::move(seg[d]));
    ++seq_no[d];
    start_segment(d);
    // Drain whatever already arrived: returning credits here is what
    // keeps the whole exchange flowing without watchdog stalls.
    while (open > 0 && comm_->try_shuffle_recv(done, env)) note_segment(env);
  };
  std::size_t i = 0;
  page_.for_each_record(
      [&](std::span<const unsigned char> framed, std::string_view, std::string_view) {
        const auto d = static_cast<std::size_t>(dests[i++]);
        auto& b = seg[d];
        if (b.size() > kSegHeader && b.size() - kSegHeader + framed.size() > chunk) {
          flush_segment(d);
        }
        b.insert(b.end(), framed.begin(), framed.end());
      });
  // Free the source page before the final sends: the peak is then open
  // segments + received store, never + the outgoing page as well.
  { auto old = page_.take_bytes(); }
  for (std::size_t d = 0; d < static_cast<std::size_t>(p); ++d) {
    comm_->shuffle_send(static_cast<int>(d), std::move(seg[d]));
    while (open > 0 && comm_->try_shuffle_recv(done, env)) note_segment(env);
  }
  seg.clear();
  seg.shrink_to_fit();
  // Counted after the last send, so a rank that crashes mid-stream and
  // replays counts the stream once.
  if (obs::Recorder* rec = comm_->recorder()) {
    std::uint64_t wire_bytes = 0;
    for (const std::size_t b : dest_bytes) wire_bytes += b;
    rec->add_counter("mr.shuffle.wire_bytes", wire_bytes);
  }

  // Drain stragglers, blocking per still-open source (FIFO makes a
  // source-targeted blocking receive safe).
  while (open > 0) {
    if (comm_->try_shuffle_recv(done, env)) {
      note_segment(env);
      continue;
    }
    std::size_t src = 0;
    while (done[src] != 0) ++src;
    env = comm_->shuffle_recv(static_cast<int>(src));
    note_segment(env);
  }

  // Rebuild in (source rank asc, sequence asc) order — byte-identical to
  // the monolithic alltoallv result — freeing each segment as it lands.
  for (auto& source_segs : store) {
    for (auto& part : source_segs) {
      page_.append_page(part.data(), part.size());
      part = std::vector<unsigned char>();
    }
    source_segs.clear();
  }
}

void MapReduce::aggregate() {
  const int p = comm_->size();
  shuffle_by([p](const KvPair& kv) {
    return static_cast<int>(key_hash(kv.key) % static_cast<std::uint64_t>(p));
  });
}

void MapReduce::aggregate(const PartitionFn& part) {
  shuffle_by([&part](const KvPair& kv) { return part(kv.key, kv.value); });
}

void MapReduce::reduce(const ReduceFn& fn) {
  reduce([](const KvPair& kv) { return kv.key; }, fn);
}

void MapReduce::reduce(const GroupKeyFn& group_key, const ReduceFn& fn) {
  PhaseSpan span(comm_, "mr.reduce");
  // Stable order of record offsets by group-key bytes, so equal keys are
  // adjacent and values keep their page order within each group. Only keys
  // of 16 bytes or more can share a SortKey with another key, so only they
  // are compared byte by byte, in the sort and in the group cut.
  const SortKeyFn sort_key = [&group_key](const KvPair& kv) {
    return group_sort_key(group_key(kv));
  };
  std::vector<SortKey> keys;
  const auto offs = sorted_offsets(
      sort_key,
      [&](const SortKey& k, std::size_t a, std::size_t b) {
        return !group_key_exact(k) && group_key(page_.at(a)) < group_key(page_.at(b));
      },
      &keys);
  BudgetScope key_column(budget_, comm_->rank(), keys.size() * sizeof(SortKey));
  const auto key_at = [&](std::size_t i) {
    return keys.empty() ? sort_key(page_.at(offs[i])) : keys[i];
  };

  RewriteSpool spool(spool_config(budget_, comm_->rank()));
  KvEmitter emitter(spool);
  std::vector<std::string_view> values;
  std::size_t i = 0;
  while (i < offs.size()) {
    const KvPair head = page_.at(offs[i]);
    const std::string_view head_key = group_key(head);
    const SortKey hk = key_at(i);
    values.clear();
    values.push_back(head.value);
    std::size_t j = i + 1;
    for (; j < offs.size(); ++j) {
      const SortKey k = key_at(j);
      if (k.major != hk.major || k.minor != hk.minor) break;
      const KvPair kv = page_.at(offs[j]);
      if (!group_key_exact(hk) && group_key(kv) != head_key) break;
      values.push_back(kv.value);
    }
    fn(head_key, std::span<const std::string_view>(values.data(), values.size()), emitter);
    i = j;
  }
  { auto old = page_.take_bytes(); }
  spool.finish(page_);
}

void MapReduce::local_sort(
    const std::function<bool(const KvPair&, const KvPair&)>& less) {
  if (obs::Recorder* rec = comm_->recorder()) {
    rec->add_counter("sort.records", page_.count());
    rec->add_counter("sort.engine_merge", 1);
  }
  comm_->note_sort_progress(page_.count());
  // reorder() materializes a full second copy of the page; when that copy
  // would push the rank past its soft watermark, sort externally instead:
  // sorted runs spill to disk and a streaming merge rebuilds the page,
  // byte-identical to the in-memory result.
  if (spill_ready(budget_) &&
      budget_->should_spill(comm_->rank(), page_.byte_size())) {
    external_stable_sort(page_, less, make_spill_config(budget_, comm_->rank()));
    return;
  }
  auto offs = page_.offsets();
  std::stable_sort(offs.begin(), offs.end(), [&](std::size_t a, std::size_t b) {
    return less(page_.at(a), page_.at(b));
  });
  BudgetScope copy(budget_, comm_->rank(), page_.byte_size());
  page_.reorder(offs);
}

void MapReduce::sort_by_key(const SortKeyFn& key, TieBreak tie) {
  // Budget-governed ranks past the watermark sort externally (runs spill to
  // disk): the key column and the reordered page would be exactly the
  // second in-memory copy that path exists to avoid.
  if (spill_ready(budget_) && budget_->should_spill(comm_->rank(), page_.byte_size())) {
    local_sort(key_less(key, tie));
    return;
  }
  // The key column is freed inside sorted_offsets, before the page copy.
  const auto order = sorted_offsets(
      key, tie == TieBreak::kNone
               ? TieFn()
               : [this, tie](const SortKey&, std::size_t a, std::size_t b) {
                   return tie_less(tie, page_.at(a), page_.at(b));
                 });
  BudgetScope copy(budget_, comm_->rank(), page_.byte_size());
  page_.reorder(order);
}

std::vector<std::size_t> MapReduce::sorted_offsets(const SortKeyFn& key, const TieFn& tie,
                                                   std::vector<SortKey>* keys) {
  const std::size_t n = page_.count();
  const std::size_t column_bytes = detail::column_bytes(n);
  auto offs = page_.offsets();
  comm_->note_sort_progress(n);
  if (spill_ready(budget_) && budget_->should_spill(comm_->rank(), column_bytes)) {
    if (obs::Recorder* rec = comm_->recorder()) {
      rec->add_counter("sort.records", n);
      rec->add_counter("sort.engine_merge", 1);
    }
    std::stable_sort(offs.begin(), offs.end(), [&](std::size_t a, std::size_t b) {
      const SortKey ka = key(page_.at(a));
      const SortKey kb = key(page_.at(b));
      if (ka.major != kb.major) return ka.major < kb.major;
      if (ka.minor != kb.minor) return ka.minor < kb.minor;
      return tie != nullptr && tie(ka, a, b);
    });
    return offs;
  }

  // Radix path, for every page: one contiguous {key, offset} column in page
  // order, sorted by detail::sort_column in O(passes * n). Stability keeps
  // equal keys in page order, the same permutation the stable comparator
  // sort produces; the tie-break then stable-sorts only the equal-key runs
  // by bytes.
  detail::ColumnStats stats;
  {
    BudgetScope charge(budget_, comm_->rank(), column_bytes);
    std::vector<KeyedIndex> column;
    column.reserve(n);
    for (const std::size_t off : offs) column.push_back(KeyedIndex{key(page_.at(off)), off});
    stats = tie == nullptr ? detail::sort_column(column)
                           : detail::sort_column(column, [&](const KeyedIndex& a,
                                                             const KeyedIndex& b) {
                               return tie(a.key, a.at, b.at);
                             });
    for (std::size_t i = 0; i < n; ++i) offs[i] = column[i].at;
    if (keys != nullptr) {
      keys->resize(n);
      for (std::size_t i = 0; i < n; ++i) (*keys)[i] = column[i].key;
    }
  }
  if (obs::Recorder* rec = comm_->recorder()) {
    rec->add_counter("sort.records", n);
    rec->add_counter("sort.engine_radix", 1);
    rec->add_counter("sort.radix_passes", stats.passes);
    rec->add_counter("sort.radix_passes_skipped", stats.skipped_passes);
  }
  return offs;
}

namespace {

/// Sample wire format: [u64 proj], then for composite samples
/// [u32 key length][key][u32 value length][value], with the lengths at the
/// width of a KvBuffer frame's.
void put_sample(ByteWriter& w, const SampleView& s, bool composite) {
  w.put<std::uint64_t>(s.proj);
  if (!composite) return;
  w.put_string(s.key);
  w.put_string(s.value);
}

/// Appends the samples in `bytes` to `out` as views into `bytes`.
void read_samples(const std::vector<unsigned char>& bytes, bool composite,
                  std::vector<SampleView>& out) {
  ByteReader r(bytes);
  while (!r.done()) {
    SampleView s;
    s.proj = r.get<std::uint64_t>();
    if (composite) {
      s.key = r.get_bytes(r.get<std::uint32_t>());
      s.value = r.get_bytes(r.get<std::uint32_t>());
    }
    out.push_back(s);
  }
}

}  // namespace

std::vector<SampleView> detail::pick_splitters(std::vector<SampleView> sample, int p,
                                               bool composite, MemoryBudget* budget,
                                               int rank) {
  const std::size_t n = sample.size();
  const auto rank_of = [n, p](int i) {
    return static_cast<std::size_t>(i) * n / static_cast<std::size_t>(p);
  };
  const auto splitters = static_cast<std::size_t>(std::max(p - 1, 0));
  if (n == 0) {
    return std::vector<SampleView>(
        splitters, SampleView{std::numeric_limits<std::uint64_t>::max(), {}, {}});
  }
  std::vector<SampleView> picked;
  picked.reserve(splitters);
  if (spill_ready(budget) && budget->should_spill(rank, column_bytes(n))) {
    std::sort(sample.begin(), sample.end(), sample_less);
    for (int i = 1; i < p; ++i) picked.push_back(sample[rank_of(i)]);
    return picked;
  }
  BudgetScope charge(budget, rank, column_bytes(n));
  std::vector<KeyedIndex> column;
  column.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const SampleView& s = sample[i];
    column.push_back(
        KeyedIndex{SortKey{s.proj, composite ? byte_prefix(s.key, s.value) : 0}, i});
  }
  if (composite) {
    sort_column(column, [&sample](const KeyedIndex& a, const KeyedIndex& b) {
      return sample_less(sample[a.at], sample[b.at]);
    });
  } else {
    sort_column(column);
  }
  for (int i = 1; i < p; ++i) picked.push_back(sample[column[rank_of(i)].at]);
  return picked;
}

void MapReduce::sample_sort_u64(const KeyProjection& proj, bool ascending,
                                SplitterMethod method, int oversample,
                                bool tie_break_bytes) {
  PhaseSpan phase(comm_, "mr.sample_sort");
  const int p = comm_->size();
  // Work with a monotone transform so the routing logic is ascending-only.
  auto directed = [&proj, ascending](const KvPair& kv) {
    const std::uint64_t x = proj(kv.key, kv.value);
    return ascending ? x : ~x;
  };

  // Degenerate-key handling: with heavy key duplication the sorted sample is
  // a run of equal values, so adjacent splitters coincide and a plain
  // upper_bound routes every duplicate to the highest rank of the run — in
  // the all-equal extreme, the whole dataset lands on rank p-1 and p-1 ranks
  // receive nothing. Two complementary fixes below:
  //   * tie_break_bytes + kSampled uses composite splitters (projection, key
  //     bytes, value bytes): duplicate projections still split by bytes, and
  //     only fully identical records — interchangeable under the promised
  //     total order — remain tied.
  //   * records that compare equal to a run of coinciding splitters are
  //     spread round-robin across the run's ranks instead of all landing on
  //     the last one. Global sortedness is preserved because every boundary
  //     in the run equals the record.
  // The naive splitter with tie_break_bytes keeps the deterministic
  // upper_bound: interpolated boundaries cannot see byte order, and the mode
  // exists as the ablation's imbalanced baseline.
  if (p > 1) {
    const bool composite = method == SplitterMethod::kSampled && tie_break_bytes;
    std::vector<std::uint64_t> splitters;       // p-1 boundaries (plain)
    std::vector<unsigned char> splitter_bytes;  // the bytes csplitters view
    std::vector<SampleView> csplitters;         // p-1 boundaries (composite)
    if (method == SplitterMethod::kSampled) {
      // Evenly spaced local sample of up to oversample*p records.
      const auto offs = page_.offsets();
      const std::size_t want =
          std::min<std::size_t>(offs.size(), static_cast<std::size_t>(oversample) *
                                                 static_cast<std::size_t>(p));
      ByteWriter w;
      for (std::size_t i = 0; i < want; ++i) {
        const std::size_t idx = i * offs.size() / want;
        const auto kv = page_.at(offs[idx]);
        put_sample(w, SampleView{directed(kv), kv.key, kv.value}, composite);
      }
      // Rank 0 alone orders the gathered sample through a radix column
      // (detail::pick_splitters) and broadcasts the p-1 splitters at ranks
      // i*n/p. The same gather-then-bcast an allgather makes, so message
      // counts and fault event numbering do not depend on this choice.
      ByteWriter picked;
      {
        const auto gathered = comm_->gather(0, w.take());
        if (comm_->rank() == 0) {
          std::vector<SampleView> sample;
          for (const auto& part : gathered) read_samples(part, composite, sample);
          for (const SampleView& s :
               detail::pick_splitters(std::move(sample), p, composite, budget_, 0)) {
            put_sample(picked, s, composite);
          }
        }
      }
      splitter_bytes = comm_->bcast(0, picked.take());
      read_samples(splitter_bytes, composite, csplitters);
      if (!composite) {
        splitters.reserve(csplitters.size());
        for (const auto& c : csplitters) splitters.push_back(c.proj);
        csplitters.clear();
      }
    } else {
      // Naive: interpolate between the global extremes.
      std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
      std::uint64_t hi = 0;
      page_.for_each([&](std::string_view k, std::string_view v) {
        const std::uint64_t x = directed(KvPair{k, v});
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      });
      lo = comm_->allreduce(std::vector<std::uint64_t>{lo},
                            [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); })[0];
      hi = comm_->allreduce(std::vector<std::uint64_t>{hi},
                            [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); })[0];
      if (lo > hi) {  // no records anywhere
        lo = 0;
        hi = 0;
      }
      const double span = static_cast<double>(hi - lo);
      for (int i = 1; i < p; ++i) {
        splitters.push_back(lo + static_cast<std::uint64_t>(span * i / p));
      }
    }

    // Splitters must be non-decreasing or routing would break sortedness.
    if (composite) {
      for (std::size_t i = 1; i < csplitters.size(); ++i) {
        PAPAR_CHECK_MSG(!sample_less(csplitters[i], csplitters[i - 1]),
                        "sample-sort splitters must be non-decreasing");
      }
    } else {
      for (std::size_t i = 1; i < splitters.size(); ++i) {
        PAPAR_CHECK_MSG(splitters[i - 1] <= splitters[i],
                        "sample-sort splitters must be non-decreasing");
      }
    }

    // Records equal to coinciding splitters may go to any rank of the run;
    // spread them unless byte order must stay deterministic (naive +
    // tie_break_bytes, see above).
    const bool spread_ties = composite || !tie_break_bytes;
    std::size_t spread = 0;
    shuffle_by([&](const KvPair& kv) {
      const std::uint64_t x = directed(kv);
      std::size_t lo_idx;
      std::size_t hi_idx;
      if (composite) {
        const SampleView r{x, kv.key, kv.value};
        lo_idx = static_cast<std::size_t>(
            std::lower_bound(csplitters.begin(), csplitters.end(), r, sample_less) -
            csplitters.begin());
        hi_idx = static_cast<std::size_t>(
            std::upper_bound(csplitters.begin(), csplitters.end(), r, sample_less) -
            csplitters.begin());
      } else {
        lo_idx = static_cast<std::size_t>(
            std::lower_bound(splitters.begin(), splitters.end(), x) - splitters.begin());
        hi_idx = static_cast<std::size_t>(
            std::upper_bound(splitters.begin(), splitters.end(), x) - splitters.begin());
      }
      if (lo_idx == hi_idx || !spread_ties) return static_cast<int>(hi_idx);
      return static_cast<int>(lo_idx + spread++ % (hi_idx - lo_idx + 1));
    });
  }

  // Final stable local sort by the directed projection (full-byte
  // tie-break makes the order total when requested). Under the tie-break
  // the minor key is detail::byte_prefix, which never contradicts (key
  // bytes, value bytes) order, so only records equal in both words reach
  // the byte comparator.
  sort_by_key(
      [&directed, tie_break_bytes](const KvPair& kv) {
        return SortKey{directed(kv),
                       tie_break_bytes ? detail::byte_prefix(kv.key, kv.value) : 0};
      },
      tie_break_bytes ? TieBreak::kKeyValue : TieBreak::kNone);
}

void MapReduce::gather(int root) {
  auto page = page_.take_bytes();
  page_.clear();
  auto parts = comm_->gather(root, page);
  if (comm_->rank() == root) {
    for (const auto& part : parts) page_.append_page(part.data(), part.size());
  }
}

std::uint64_t MapReduce::global_count() {
  return comm_->allreduce_sum<std::uint64_t>(page_.count());
}

std::vector<std::uint64_t> MapReduce::rank_counts() {
  ByteWriter w;
  w.put<std::uint64_t>(page_.count());
  auto all = comm_->allgather(w.take());
  std::vector<std::uint64_t> counts;
  counts.reserve(all.size());
  for (const auto& part : all) {
    ByteReader r(part);
    counts.push_back(r.get<std::uint64_t>());
  }
  return counts;
}

void MapReduce::checkpoint(CheckpointStore& store, std::uint64_t stage) const {
  store.save(stage, comm_->rank(), page_.bytes());
}

bool MapReduce::restore(CheckpointStore& store, std::uint64_t stage) {
  auto bytes = store.load(stage, comm_->rank());
  if (!bytes) return false;
  page_.adopt_bytes(std::move(*bytes));
  return true;
}

}  // namespace papar::mr
