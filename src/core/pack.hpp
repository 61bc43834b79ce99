// Packed-group encoding and the CSR/CSC-style compression (paper §III-D).
//
// The `pack` format operator turns a group of records that share a key field
// into one value. Two encodings exist behind a leading format byte:
//
//   plain: [u8 0][u32 count][record bytes]...
//   csc:   [u8 1][u32 count][shared key-field bytes][record-minus-key bytes]...
//
// The csc form is the paper's "Data Compression" optimization: grouped edges
// all repeat the in-vertex, so the shared field is stored once — the same
// idea as the column/row-pointer factoring of CSR/CSC sparse layouts. The
// value (attribute) array is never compressed, exactly as the paper states,
// because attribute values may differ within a group.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "schema/record.hpp"
#include "schema/schema.hpp"

namespace papar::core {

/// Serializes a group. `records` are wire-encoded under `schema`; when
/// `compress` is set, `key_field` is stored once (every record must carry
/// identical bytes in that field — guaranteed by grouping).
std::string encode_group(const schema::Schema& schema, std::size_t key_field,
                         std::span<const std::string_view> records, bool compress);

/// Number of records in a packed group without decoding them.
std::uint32_t group_size(std::string_view packed);

/// Expands a packed group back to its wire-encoded records (reinserting the
/// shared key field when the group is compressed).
std::vector<std::string> decode_group(const schema::Schema& schema,
                                      std::size_t key_field, std::string_view packed);

/// Byte ranges [offset, length] of each field of one wire record — the
/// splice table used to drop/reinsert the key field.
std::vector<std::pair<std::size_t, std::size_t>> field_ranges(
    const schema::Schema& schema, std::string_view wire);

/// Same, reusing the caller's buffer (cleared first) — for per-record loops.
void field_ranges_into(const schema::Schema& schema, std::string_view wire,
                       std::vector<std::pair<std::size_t, std::size_t>>& out);

/// Byte range of a single field, without building the full table.
std::pair<std::size_t, std::size_t> field_range(const schema::Schema& schema,
                                                std::string_view wire,
                                                std::size_t index);

/// A field's value bytes: its wire bytes, less a string's u32 length
/// prefix. The group shuffle and graphVertexCut both hash these, so a
/// vertex's group is reduced on the rank that owns its partition whenever
/// the rank count divides the partition count.
std::string_view field_value(const schema::Schema& schema, std::string_view wire,
                             std::size_t index);

/// View of the first record of a packed group. Plain groups return a view
/// into `packed`; compressed groups reconstruct into `scratch` (the view is
/// valid while `scratch` lives and is unmodified).
std::string_view group_head(const schema::Schema& schema, std::size_t key_field,
                            std::string_view packed, std::string& scratch);

/// Streams every record of a packed group without per-record allocation:
/// plain groups hand out views into `packed`; compressed groups reuse one
/// internal scratch buffer (each view is valid only during its callback).
void for_each_group_record(const schema::Schema& schema, std::size_t key_field,
                           std::string_view packed,
                           const std::function<void(std::string_view)>& fn);

/// Incremental group encoder: feeds records one at a time (each optionally
/// extended by `attr` trailing bytes) and produces the same packed bytes as
/// encode_group, without materializing the extended records.
class GroupEncoder {
 public:
  /// `expected` is a capacity hint in records.
  GroupEncoder(const schema::Schema& schema, std::size_t key_field, bool compress);

  /// Appends one wire record with `attr` appended after its last field.
  void add(std::string_view record, std::string_view attr);

  /// Finishes the group and returns the packed bytes; the encoder resets
  /// and can be reused for the next group.
  std::string take();

 private:
  const schema::Schema* schema_;
  std::size_t key_field_;
  bool compress_;
  std::uint32_t count_ = 0;
  std::string body_;      // reduced records (csc candidate)
  std::string raw_body_;  // full records (plain fallback; compress mode only)
  std::string key_bytes_;
};

}  // namespace papar::core
