// Key-value page used by the MapReduce engine.
//
// Records are packed back-to-back as [u32 key-len][u32 value-len][key][value]
// in one growable byte page, matching the byte-string KV model of MR-MPI
// (Plimpton & Devine), the backend the paper maps PaPar onto. A page can be
// shipped across the simulated fabric wholesale, which is exactly what the
// shuffle does.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace papar::mr {

struct KvPair {
  std::string_view key;
  std::string_view value;
};

class KvBuffer {
 public:
  KvBuffer() = default;

  /// Appends one record.
  void add(std::string_view key, std::string_view value);

  /// Appends a POD value under a POD key.
  template <typename K, typename V>
  void add_pod(const K& key, const V& value) {
    static_assert(std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<V>);
    add(std::string_view(reinterpret_cast<const char*>(&key), sizeof(K)),
        std::string_view(reinterpret_cast<const char*>(&value), sizeof(V)));
  }

  /// Appends every record of `page` (a raw byte page in this format).
  void append_page(const unsigned char* data, std::size_t n);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::size_t byte_size() const { return bytes_.size(); }
  const std::vector<unsigned char>& bytes() const { return bytes_; }

  void clear() {
    bytes_.clear();
    count_ = 0;
  }

  /// Record located at byte offset `off`; also returns the offset of the
  /// next record via `next`.
  KvPair at(std::size_t off, std::size_t* next = nullptr) const {
    constexpr std::size_t kHeader = 2 * sizeof(std::uint32_t);
    PAPAR_CHECK_MSG(off + kHeader <= bytes_.size(), "KV offset out of range");
    std::uint32_t klen;
    std::uint32_t vlen;
    std::memcpy(&klen, bytes_.data() + off, sizeof(klen));
    std::memcpy(&vlen, bytes_.data() + off + sizeof(klen), sizeof(vlen));
    const std::size_t kbegin = off + kHeader;
    PAPAR_CHECK_MSG(kbegin + klen + vlen <= bytes_.size(), "KV record out of range");
    const auto* base = reinterpret_cast<const char*>(bytes_.data()) + kbegin;
    if (next != nullptr) *next = kbegin + klen + vlen;
    return KvPair{std::string_view(base, klen), std::string_view(base + klen, vlen)};
  }

  /// Byte offsets of all records, in page order. O(count).
  std::vector<std::size_t> offsets() const;

  /// Calls fn(key, value) for every record in page order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::size_t off = 0;
    while (off < bytes_.size()) {
      std::size_t next = 0;
      KvPair kv = at(off, &next);
      fn(kv.key, kv.value);
      off = next;
    }
  }

  /// Calls fn(framed, key, value) for every record in page order, where
  /// `framed` spans the record's full wire encoding
  /// ([u32 key-len][u32 value-len][key][value]). Because page bytes ARE the
  /// wire format, a consumer can relocate a record with one bulk copy of
  /// `framed` — the shuffle's serialization path relies on this.
  template <typename Fn>
  void for_each_record(Fn&& fn) const {
    std::size_t off = 0;
    while (off < bytes_.size()) {
      std::size_t next = 0;
      KvPair kv = at(off, &next);
      fn(std::span<const unsigned char>(bytes_.data() + off, next - off), kv.key,
         kv.value);
      off = next;
    }
  }

  /// Rebuilds the page so records appear in the order given by `order`
  /// (a permutation of offsets()).
  void reorder(const std::vector<std::size_t>& order);

  /// Moves the raw page out, leaving the buffer empty.
  std::vector<unsigned char> take_bytes();

  /// Replaces the page with `bytes` (must be a valid page).
  void adopt_bytes(std::vector<unsigned char> bytes);

 private:
  std::vector<unsigned char> bytes_;
  std::size_t count_ = 0;
};

class RewriteSpool;

/// Write-only view of a KvBuffer handed to user map/reduce callbacks.
class KvEmitter {
 public:
  explicit KvEmitter(KvBuffer& sink) : sink_(&sink) {}
  /// Emits into `spool`'s buffer. A spool that watches a budget may spill
  /// after every emitted record; with none, an emit pays one pointer check
  /// more. Defined with RewriteSpool, in spill.cpp.
  explicit KvEmitter(RewriteSpool& spool);

  void emit(std::string_view key, std::string_view value) {
    sink_->add(key, value);
    if (spool_ != nullptr) flush_spool();
  }

  template <typename K, typename V>
  void emit_pod(const K& key, const V& value) {
    sink_->add_pod(key, value);
    if (spool_ != nullptr) flush_spool();
  }

 private:
  void flush_spool();

  KvBuffer* sink_;
  RewriteSpool* spool_ = nullptr;
};

}  // namespace papar::mr
