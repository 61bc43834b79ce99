// Disk spill paths for budget-governed MapReduce phases.
//
// Two building blocks, both operating on sealed KvBuffer wire frames
// ([u32 key-len][u32 value-len][key][value]) so spilled bytes round-trip
// byte-identically:
//
//  - external_stable_sort: bounded-memory replacement for
//    stable_sort(offsets) + KvBuffer::reorder. Consecutive page chunks of
//    at most `run_bytes` are stable-sorted and written to a temp file as
//    sorted runs, the source page is freed, and a streaming k-way merge
//    rebuilds the page. Ties resolve to the lowest run index, which, with
//    runs cut from consecutive page spans, makes the result byte-identical
//    to the in-memory stable sort while never holding two full copies of
//    the page.
//
//  - RewriteSpool: bounded-memory sink for phases that rewrite the page
//    record-by-record (map_kv, reduce). Emitted records accumulate in an
//    in-memory buffer; after every emitted record, when the rank is over
//    its soft watermark, the sealed frames are appended to a spill file and
//    the buffer resets, so no one callback's output has to fit in memory.
//    finish() streams everything back in emission order (fast path: never
//    spilled -> plain move), so output is byte-identical to the unspooled
//    rewrite. A spool without a budget only buffers.
//
// Spill files are created lazily under SpillConfig::dir (created on
// demand) and removed by RAII — on success and on every exception path —
// so failed runs never leak temp files.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "mapreduce/kvbuffer.hpp"
#include "util/membudget.hpp"

namespace papar::mr {

struct SpillConfig {
  /// Directory spill files land in; created on first use.
  std::string dir;
  /// Rank the spill belongs to (file naming, budget accounting, errors).
  int rank = 0;
  /// Target bytes per sorted run / spool flush.
  std::size_t run_bytes = 1u << 20;
  /// Optional budget: spilled bytes are counted (papar_memory_spill_*
  /// metrics) and working buffers are acquired against the watermarks.
  MemoryBudget* budget = nullptr;
};

/// RAII temp file under the spill directory: unique name per (rank, file),
/// removed on destruction whether or not the operation succeeded.
class SpillFile {
 public:
  SpillFile(const std::string& dir, int rank);
  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends raw bytes (accumulating the file's CRC32C); throws DataError
  /// on I/O failure.
  void append(const unsigned char* data, std::size_t n);

  /// Flushes buffered writes so read_exact sees everything appended, then
  /// re-reads the file and verifies it against the CRC32C accumulated
  /// across appends — end-to-end integrity over the disk round trip.
  /// Throws DataError on a mismatch.
  void seal();

  /// Reads exactly [off, off+n) into dst; throws DataError on short reads.
  void read_exact(std::size_t off, unsigned char* dst, std::size_t n);

  std::size_t bytes_written() const { return bytes_written_; }
  /// CRC32C over everything appended so far.
  std::uint32_t crc() const { return crc_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::size_t bytes_written_ = 0;
  std::uint32_t crc_ = 0;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Statistics of one spill-backed operation.
struct SpillStats {
  std::uint64_t spilled_bytes = 0;
  std::uint64_t runs = 0;
};

/// Sorts `page` by `less` in bounded memory (see file comment). The page is
/// replaced by the sorted sequence; output bytes equal what
/// stable_sort + reorder would have produced. std::bad_alloc raised while
/// spilling (including injected allocation failures) is translated into
/// BudgetExceededError naming the rank and stage.
SpillStats external_stable_sort(
    KvBuffer& page,
    const std::function<bool(const KvPair&, const KvPair&)>& less,
    const SpillConfig& cfg);

class RewriteSpool {
 public:
  explicit RewriteSpool(const SpillConfig& cfg);
  ~RewriteSpool();

  /// The in-memory buffer user callbacks emit into.
  KvBuffer& buffer() { return buf_; }

  /// True when the spool accounts to a budget and may spill.
  bool budgeted() const { return cfg_.budget != nullptr; }

  /// Flushes the buffer to disk if this rank is over its soft watermark.
  /// Call between records (never mid-record: frames must stay sealed); a
  /// KvEmitter over the spool calls it after every record it emits.
  void maybe_flush();

  /// Replaces `out` with the full emitted sequence (spilled frames first,
  /// then the in-memory tail — i.e. exact emission order). The spool is
  /// empty afterwards. Callers should free their source page *before*
  /// calling this so peak memory is one copy, not two.
  void finish(KvBuffer& out);

  bool spilled() const { return file_ != nullptr; }
  const SpillStats& stats() const { return stats_; }

 private:
  void track_growth();

  SpillConfig cfg_;
  KvBuffer buf_;
  std::unique_ptr<SpillFile> file_;
  std::size_t tracked_ = 0;  // buffer bytes currently acquired from budget
  SpillStats stats_;
};

}  // namespace papar::mr
