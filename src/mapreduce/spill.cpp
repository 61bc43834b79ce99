#include "mapreduce/spill.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <new>
#include <vector>

#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace papar::mr {

namespace {

std::uint32_t read_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Translates an allocation failure inside a spill path into the typed
/// budget error so callers see one failure vocabulary for "out of memory".
[[noreturn]] void rethrow_as_budget_error(const SpillConfig& cfg) {
  if (cfg.budget != nullptr) {
    throw BudgetExceededError(cfg.rank, cfg.budget->stage(cfg.rank), 0,
                              cfg.budget->used(cfg.rank),
                              cfg.budget->config().hard_limit,
                              cfg.budget->high_water(cfg.rank));
  }
  throw BudgetExceededError(cfg.rank, "spill", 0, 0, 0, 0);
}

/// Streaming cursor over one sorted run inside a spill file. Holds only the
/// current record in memory; advance() reads the next frame.
class RunReader {
 public:
  RunReader(SpillFile& file, std::size_t begin, std::size_t end)
      : file_(&file), pos_(begin), end_(end) {
    advance();
  }

  bool done() const { return done_; }

  KvPair current() const {
    const unsigned char* base = rec_.data();
    const std::uint32_t klen = read_u32(base);
    const std::uint32_t vlen = read_u32(base + 4);
    return KvPair{
        std::string_view(reinterpret_cast<const char*>(base + 8), klen),
        std::string_view(reinterpret_cast<const char*>(base + 8 + klen), vlen)};
  }

  std::span<const unsigned char> framed() const {
    return std::span<const unsigned char>(rec_.data(), rec_.size());
  }

  void advance() {
    if (pos_ >= end_) {
      done_ = true;
      rec_.clear();
      return;
    }
    unsigned char header[8];
    file_->read_exact(pos_, header, sizeof(header));
    const std::size_t body =
        std::size_t{read_u32(header)} + std::size_t{read_u32(header + 4)};
    PAPAR_CHECK_MSG(pos_ + 8 + body <= end_, "spill run frame overruns its run");
    rec_.resize(8 + body);
    std::memcpy(rec_.data(), header, sizeof(header));
    file_->read_exact(pos_ + 8, rec_.data() + 8, body);
    pos_ += 8 + body;
  }

 private:
  SpillFile* file_;
  std::size_t pos_;
  std::size_t end_;
  bool done_ = false;
  std::vector<unsigned char> rec_;
};

std::atomic<std::uint64_t> g_spill_seq{0};

}  // namespace

// ---------------------------------------------------------------------------
// SpillFile

struct SpillFile::Impl {
  std::FILE* f = nullptr;
};

SpillFile::SpillFile(const std::string& dir, int rank) : impl_(new Impl) {
  PAPAR_CHECK_MSG(!dir.empty(), "spill requires a spill directory");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw DataError("cannot create spill directory `" + dir + "`: " + ec.message());
  }
  const std::uint64_t seq = g_spill_seq.fetch_add(1, std::memory_order_relaxed);
  path_ = (std::filesystem::path(dir) /
           ("spill-rank" + std::to_string(rank) + "-" + std::to_string(seq)))
              .string();
  impl_->f = std::fopen(path_.c_str(), "wb+");
  if (impl_->f == nullptr) {
    throw DataError("cannot create spill file `" + path_ + "`");
  }
}

SpillFile::~SpillFile() {
  if (impl_->f != nullptr) std::fclose(impl_->f);
  std::error_code ec;
  std::filesystem::remove(path_, ec);  // best effort; never throws
}

void SpillFile::append(const unsigned char* data, std::size_t n) {
  if (n == 0) return;
  if (std::fseek(impl_->f, 0, SEEK_END) != 0 ||
      std::fwrite(data, 1, n, impl_->f) != n) {
    throw DataError("short write to spill file `" + path_ + "`");
  }
  crc_ = crc32c_extend(crc_, data, n);
  bytes_written_ += n;
}

void SpillFile::seal() {
  if (std::fflush(impl_->f) != 0) {
    throw DataError("cannot flush spill file `" + path_ + "`");
  }
  // End-to-end integrity over the disk round trip: what read_exact will
  // serve must hash to what append accumulated. The extra sequential read
  // is bounded by the spill itself and only paid on spilling paths.
  if (std::fseek(impl_->f, 0, SEEK_SET) != 0) {
    throw DataError("cannot rewind spill file `" + path_ + "`");
  }
  std::uint32_t crc = 0;
  unsigned char buf[1u << 16];
  std::size_t left = bytes_written_;
  while (left > 0) {
    const std::size_t n = std::min(left, sizeof(buf));
    if (std::fread(buf, 1, n, impl_->f) != n) {
      throw DataError("short read verifying spill file `" + path_ + "`");
    }
    crc = crc32c_extend(crc, buf, n);
    left -= n;
  }
  if (crc != crc_) {
    throw DataError("spill file `" + path_ + "` failed its CRC32C check");
  }
}

void SpillFile::read_exact(std::size_t off, unsigned char* dst, std::size_t n) {
  if (n == 0) return;
  if (std::fseek(impl_->f, static_cast<long>(off), SEEK_SET) != 0 ||
      std::fread(dst, 1, n, impl_->f) != n) {
    throw DataError("short read from spill file `" + path_ + "`");
  }
}

// ---------------------------------------------------------------------------
// external_stable_sort

SpillStats external_stable_sort(
    KvBuffer& page,
    const std::function<bool(const KvPair&, const KvPair&)>& less,
    const SpillConfig& cfg) {
  SpillStats stats;
  if (page.count() <= 1) return stats;

  try {
    const std::size_t run_bytes = std::max<std::size_t>(cfg.run_bytes, 4096);
    // The chunk-sort scratch (offset vector + merge cursors) is the tracked
    // working set of this operation; it is also the seeded injection point
    // for allocation-failure tests.
    BudgetScope scratch(cfg.budget, cfg.rank,
                        std::min(run_bytes, page.byte_size()));

    SpillFile file(cfg.dir, cfg.rank);
    // Runs are cut from *consecutive* page spans, so run order == original
    // record order and lowest-run-wins merging reproduces stable_sort.
    struct Run {
      std::size_t begin;
      std::size_t end;
    };
    std::vector<Run> runs;
    std::vector<std::size_t> chunk;  // record offsets of the current chunk
    std::size_t chunk_begin = 0;     // page offset where the chunk starts
    std::size_t off = 0;
    const std::size_t page_bytes = page.byte_size();
    while (off < page_bytes) {
      std::size_t next = 0;
      (void)page.at(off, &next);
      if (!chunk.empty() && next - chunk_begin > run_bytes) {
        // Seal the chunk before this record.
        std::stable_sort(chunk.begin(), chunk.end(),
                         [&](std::size_t a, std::size_t b) {
                           return less(page.at(a), page.at(b));
                         });
        const std::size_t run_begin = file.bytes_written();
        for (std::size_t rec : chunk) {
          std::size_t rec_next = 0;
          (void)page.at(rec, &rec_next);
          file.append(page.bytes().data() + rec, rec_next - rec);
        }
        runs.push_back({run_begin, file.bytes_written()});
        if (cfg.budget != nullptr) {
          cfg.budget->note_spill(cfg.rank, file.bytes_written() - run_begin);
        }
        chunk.clear();
        chunk_begin = off;
      }
      chunk.push_back(off);
      off = next;
    }
    if (!chunk.empty()) {
      std::stable_sort(chunk.begin(), chunk.end(),
                       [&](std::size_t a, std::size_t b) {
                         return less(page.at(a), page.at(b));
                       });
      const std::size_t run_begin = file.bytes_written();
      for (std::size_t rec : chunk) {
        std::size_t rec_next = 0;
        (void)page.at(rec, &rec_next);
        file.append(page.bytes().data() + rec, rec_next - rec);
      }
      runs.push_back({run_begin, file.bytes_written()});
      if (cfg.budget != nullptr) {
        cfg.budget->note_spill(cfg.rank, file.bytes_written() - run_begin);
      }
      chunk.clear();
      chunk.shrink_to_fit();
    }
    file.seal();
    stats.spilled_bytes = file.bytes_written();
    stats.runs = runs.size();

    // Free the source page *before* rebuilding, so peak memory is one copy
    // plus the merge cursors, not two copies.
    {
      std::vector<unsigned char> old = page.take_bytes();
      old = std::vector<unsigned char>();
    }

    // Streaming k-way merge. Linear min-scan with strict-less replacement:
    // on ties the lowest run index wins, which is exactly what stability
    // requires.
    std::vector<RunReader> readers;
    readers.reserve(runs.size());
    for (const Run& r : runs) readers.emplace_back(file, r.begin, r.end);
    for (;;) {
      int best = -1;
      for (int i = 0; i < static_cast<int>(readers.size()); ++i) {
        if (readers[static_cast<std::size_t>(i)].done()) continue;
        if (best < 0 ||
            less(readers[static_cast<std::size_t>(i)].current(),
                 readers[static_cast<std::size_t>(best)].current())) {
          best = i;
        }
      }
      if (best < 0) break;
      RunReader& win = readers[static_cast<std::size_t>(best)];
      const auto framed = win.framed();
      page.append_page(framed.data(), framed.size());
      win.advance();
    }
    return stats;
  } catch (const std::bad_alloc&) {
    rethrow_as_budget_error(cfg);
  }
}

// ---------------------------------------------------------------------------
// RewriteSpool

KvEmitter::KvEmitter(RewriteSpool& spool)
    : sink_(&spool.buffer()), spool_(spool.budgeted() ? &spool : nullptr) {}

void KvEmitter::flush_spool() { spool_->maybe_flush(); }

RewriteSpool::RewriteSpool(const SpillConfig& cfg) : cfg_(cfg) {}

RewriteSpool::~RewriteSpool() {
  if (cfg_.budget != nullptr && tracked_ > 0) {
    cfg_.budget->release(cfg_.rank, tracked_);
  }
}

void RewriteSpool::track_growth() {
  if (cfg_.budget == nullptr) return;
  const std::size_t now = buf_.byte_size();
  if (now > tracked_) {
    cfg_.budget->acquire(cfg_.rank, now - tracked_);
    tracked_ = now;
  }
}

void RewriteSpool::maybe_flush() {
  try {
    track_growth();
    if (cfg_.budget == nullptr || buf_.empty()) return;
    if (!cfg_.budget->should_spill(cfg_.rank, 0)) return;
    if (file_ == nullptr) {
      file_ = std::make_unique<SpillFile>(cfg_.dir, cfg_.rank);
    }
    file_->append(buf_.bytes().data(), buf_.byte_size());
    stats_.spilled_bytes += buf_.byte_size();
    stats_.runs += 1;
    cfg_.budget->note_spill(cfg_.rank, buf_.byte_size());
    // take_bytes (not clear) so the flushed capacity is actually returned.
    { auto flushed = buf_.take_bytes(); }
    cfg_.budget->release(cfg_.rank, tracked_);
    tracked_ = 0;
  } catch (const std::bad_alloc&) {
    rethrow_as_budget_error(cfg_);
  }
}

void RewriteSpool::finish(KvBuffer& out) {
  try {
    if (file_ == nullptr) {
      out = std::move(buf_);
      buf_ = KvBuffer();
    } else {
      file_->seal();
      const std::size_t disk = file_->bytes_written();
      std::vector<unsigned char> bytes;
      bytes.resize(disk + buf_.byte_size());
      file_->read_exact(0, bytes.data(), disk);
      if (!buf_.empty()) {
        std::memcpy(bytes.data() + disk, buf_.bytes().data(), buf_.byte_size());
      }
      out = KvBuffer();
      out.adopt_bytes(std::move(bytes));
      buf_ = KvBuffer();
      file_.reset();  // removes the temp file
    }
    if (cfg_.budget != nullptr && tracked_ > 0) {
      cfg_.budget->release(cfg_.rank, tracked_);
      tracked_ = 0;
    }
  } catch (const std::bad_alloc&) {
    rethrow_as_budget_error(cfg_);
  }
}

}  // namespace papar::mr
