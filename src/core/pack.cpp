#include "core/pack.hpp"

#include <cstring>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace papar::core {

namespace {
constexpr unsigned char kPlain = 0;
constexpr unsigned char kCsc = 1;
}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> field_ranges(
    const schema::Schema& schema, std::string_view wire) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  field_ranges_into(schema, wire, out);
  return out;
}

void field_ranges_into(const schema::Schema& schema, std::string_view wire,
                       std::vector<std::pair<std::size_t, std::size_t>>& out) {
  out.clear();
  out.reserve(schema.field_count());
  ByteReader r(wire.data(), wire.size());
  for (std::size_t i = 0; i < schema.field_count(); ++i) {
    const std::size_t begin = r.position();
    switch (schema.field(i).type) {
      case schema::FieldType::kInt32: (void)r.get<std::int32_t>(); break;
      case schema::FieldType::kInt64: (void)r.get<std::int64_t>(); break;
      case schema::FieldType::kFloat64: (void)r.get<double>(); break;
      case schema::FieldType::kString: {
        const auto len = r.get<std::uint32_t>();
        (void)r.get_bytes(len);
        break;
      }
    }
    out.emplace_back(begin, r.position() - begin);
  }
}

std::pair<std::size_t, std::size_t> field_range(const schema::Schema& schema,
                                                std::string_view wire,
                                                std::size_t index) {
  ByteReader r(wire.data(), wire.size());
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= index; ++i) {
    begin = r.position();
    switch (schema.field(i).type) {
      case schema::FieldType::kInt32: (void)r.get<std::int32_t>(); break;
      case schema::FieldType::kInt64: (void)r.get<std::int64_t>(); break;
      case schema::FieldType::kFloat64: (void)r.get<double>(); break;
      case schema::FieldType::kString: {
        const auto len = r.get<std::uint32_t>();
        (void)r.get_bytes(len);
        break;
      }
    }
  }
  return {begin, r.position() - begin};
}

std::string_view field_value(const schema::Schema& schema, std::string_view wire,
                             std::size_t index) {
  auto [off, len] = field_range(schema, wire, index);
  if (schema.field(index).type == schema::FieldType::kString) {
    off += sizeof(std::uint32_t);
    len -= sizeof(std::uint32_t);
  }
  return wire.substr(off, len);
}

std::string encode_group(const schema::Schema& schema, std::size_t key_field,
                         std::span<const std::string_view> records, bool compress) {
  PAPAR_CHECK_MSG(!records.empty(), "cannot pack an empty group");
  // Adaptive compression: the CSC form pays a 4-byte length prefix plus one
  // key copy and saves (count-1) key copies; fall back to plain when that
  // is not a win (singleton and tiny groups). The paper calls the benefit
  // "highly dependent on the input data" — this keeps it nonnegative.
  if (compress) {
    PAPAR_CHECK_MSG(key_field < schema.field_count(), "bad group key field");
    const auto [koff, klen] = field_range(schema, records[0], key_field);
    (void)koff;
    if ((records.size() - 1) * klen <= sizeof(std::uint32_t)) compress = false;
  }
  ByteWriter w;
  if (!compress) {
    w.put(kPlain);
    w.put<std::uint32_t>(static_cast<std::uint32_t>(records.size()));
    for (auto rec : records) w.put_bytes(rec.data(), rec.size());
  } else {
    PAPAR_CHECK_MSG(key_field < schema.field_count(), "bad group key field");
    w.put(kCsc);
    w.put<std::uint32_t>(static_cast<std::uint32_t>(records.size()));
    // Shared key-field bytes come from the first record, length-prefixed so
    // the decoder need not re-derive the field width.
    const auto head_ranges = field_ranges(schema, records[0]);
    const auto [koff, klen] = head_ranges[key_field];
    w.put<std::uint32_t>(static_cast<std::uint32_t>(klen));
    w.put_bytes(records[0].data() + koff, klen);
    for (auto rec : records) {
      const auto ranges = field_ranges(schema, rec);
      const auto [ko, kl] = ranges[key_field];
      if (rec.substr(ko, kl) != records[0].substr(koff, klen)) {
        throw DataError("csc pack: records disagree on the group key field");
      }
      // Record minus the key field, fields kept in schema order.
      w.put_bytes(rec.data(), ko);
      w.put_bytes(rec.data() + ko + kl, rec.size() - ko - kl);
    }
  }
  const auto& bytes = w.bytes();
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

std::uint32_t group_size(std::string_view packed) {
  ByteReader r(packed.data(), packed.size());
  (void)r.get<unsigned char>();
  return r.get<std::uint32_t>();
}

namespace {

/// Sequentially decodes the fields of one record whose key field was
/// removed, returning the byte length consumed.
std::size_t reduced_record_length(const schema::Schema& schema, std::size_t key_field,
                                  std::string_view bytes) {
  ByteReader r(bytes.data(), bytes.size());
  for (std::size_t i = 0; i < schema.field_count(); ++i) {
    if (i == key_field) continue;
    switch (schema.field(i).type) {
      case schema::FieldType::kInt32: (void)r.get<std::int32_t>(); break;
      case schema::FieldType::kInt64: (void)r.get<std::int64_t>(); break;
      case schema::FieldType::kFloat64: (void)r.get<double>(); break;
      case schema::FieldType::kString: {
        const auto len = r.get<std::uint32_t>();
        (void)r.get_bytes(len);
        break;
      }
    }
  }
  return r.position();
}

/// Byte offset where the key field would sit inside a reduced record.
std::size_t reduced_key_offset(const schema::Schema& schema, std::size_t key_field,
                               std::string_view reduced) {
  ByteReader r(reduced.data(), reduced.size());
  for (std::size_t i = 0; i < key_field; ++i) {
    switch (schema.field(i).type) {
      case schema::FieldType::kInt32: (void)r.get<std::int32_t>(); break;
      case schema::FieldType::kInt64: (void)r.get<std::int64_t>(); break;
      case schema::FieldType::kFloat64: (void)r.get<double>(); break;
      case schema::FieldType::kString: {
        const auto len = r.get<std::uint32_t>();
        (void)r.get_bytes(len);
        break;
      }
    }
  }
  return r.position();
}

}  // namespace

void for_each_group_record(const schema::Schema& schema, std::size_t key_field,
                           std::string_view packed,
                           const std::function<void(std::string_view)>& fn) {
  ByteReader r(packed.data(), packed.size());
  const auto format = r.get<unsigned char>();
  const auto count = r.get<std::uint32_t>();
  if (format == kPlain) {
    std::string_view rest = packed.substr(r.position());
    std::size_t pos = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto tail = rest.substr(pos);
      const auto [off, len] = field_range(schema, tail, schema.field_count() - 1);
      fn(tail.substr(0, off + len));
      pos += off + len;
    }
    if (pos != rest.size()) throw DataError("trailing bytes in packed group");
  } else if (format == kCsc) {
    PAPAR_CHECK_MSG(key_field < schema.field_count(), "bad group key field");
    const auto klen = r.get<std::uint32_t>();
    const auto key_bytes = r.get_bytes(klen);
    std::string_view rest = packed.substr(r.position());
    // Plain local, reused across the loop: callbacks may suspend the rank
    // fiber, so no scratch here may outlive the call or live in a
    // thread_local shared with other ranks (DESIGN.md §13).
    std::string scratch;
    std::size_t pos = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::string_view tail = rest.substr(pos);
      const std::size_t len = reduced_record_length(schema, key_field, tail);
      const std::string_view reduced = tail.substr(0, len);
      const std::size_t insert_at = reduced_key_offset(schema, key_field, reduced);
      scratch.clear();
      scratch.reserve(len + klen);
      scratch.append(reduced.substr(0, insert_at));
      scratch.append(key_bytes);
      scratch.append(reduced.substr(insert_at));
      fn(scratch);
      pos += len;
    }
    if (pos != rest.size()) throw DataError("trailing bytes in packed group");
  } else {
    throw DataError("unknown packed-group format byte");
  }
}

std::string_view group_head(const schema::Schema& schema, std::size_t key_field,
                            std::string_view packed, std::string& scratch) {
  ByteReader r(packed.data(), packed.size());
  const auto format = r.get<unsigned char>();
  (void)r.get<std::uint32_t>();
  if (format == kPlain) {
    const std::string_view rest = packed.substr(r.position());
    const auto [off, len] = field_range(schema, rest, schema.field_count() - 1);
    return rest.substr(0, off + len);
  }
  if (format != kCsc) throw DataError("unknown packed-group format byte");
  const auto klen = r.get<std::uint32_t>();
  const auto key_bytes = r.get_bytes(klen);
  const std::string_view rest = packed.substr(r.position());
  const std::size_t len = reduced_record_length(schema, key_field, rest);
  const std::string_view reduced = rest.substr(0, len);
  const std::size_t insert_at = reduced_key_offset(schema, key_field, reduced);
  scratch.clear();
  scratch.reserve(len + klen);
  scratch.append(reduced.substr(0, insert_at));
  scratch.append(key_bytes);
  scratch.append(reduced.substr(insert_at));
  return scratch;
}

GroupEncoder::GroupEncoder(const schema::Schema& schema, std::size_t key_field,
                           bool compress)
    : schema_(&schema), key_field_(key_field), compress_(compress) {
  PAPAR_CHECK_MSG(key_field < schema.field_count(), "bad group key field");
}

void GroupEncoder::add(std::string_view record, std::string_view attr) {
  if (!compress_) {
    body_.append(record);
    body_.append(attr);
  } else {
    const auto [koff, klen] = field_range(*schema_, record, key_field_);
    if (count_ == 0) {
      key_bytes_.assign(record.substr(koff, klen));
    } else if (record.substr(koff, klen) != key_bytes_) {
      throw DataError("csc pack: records disagree on the group key field");
    }
    // Keep both forms so take() can pick the smaller encoding (adaptive
    // compression; see encode_group).
    raw_body_.append(record);
    raw_body_.append(attr);
    body_.append(record.substr(0, koff));
    body_.append(record.substr(koff + klen));
    body_.append(attr);
  }
  ++count_;
}

std::string GroupEncoder::take() {
  PAPAR_CHECK_MSG(count_ > 0, "cannot pack an empty group");
  const bool csc =
      compress_ &&
      (static_cast<std::size_t>(count_) - 1) * key_bytes_.size() > sizeof(std::uint32_t);
  std::string out;
  out.reserve(1 + sizeof(std::uint32_t) * 2 + key_bytes_.size() +
              (csc ? body_.size() : std::max(body_.size(), raw_body_.size())));
  out.push_back(static_cast<char>(csc ? kCsc : kPlain));
  const std::uint32_t count = count_;
  out.append(reinterpret_cast<const char*>(&count), sizeof(count));
  if (csc) {
    const auto klen = static_cast<std::uint32_t>(key_bytes_.size());
    out.append(reinterpret_cast<const char*>(&klen), sizeof(klen));
    out.append(key_bytes_);
    out.append(body_);
  } else {
    out.append(compress_ ? raw_body_ : body_);
  }
  count_ = 0;
  body_.clear();
  raw_body_.clear();
  key_bytes_.clear();
  return out;
}

std::vector<std::string> decode_group(const schema::Schema& schema,
                                      std::size_t key_field, std::string_view packed) {
  ByteReader r(packed.data(), packed.size());
  const auto format = r.get<unsigned char>();
  const auto count = r.get<std::uint32_t>();
  std::vector<std::string> out;
  out.reserve(count);
  if (format == kPlain) {
    // Records are self-delimiting; walk them with the full schema.
    std::string_view rest(packed.data() + r.position(), packed.size() - r.position());
    std::size_t pos = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto tail = rest.substr(pos);
      const auto ranges = field_ranges(schema, tail);
      const std::size_t len = ranges.back().first + ranges.back().second;
      out.emplace_back(tail.substr(0, len));
      pos += len;
    }
    if (pos != rest.size()) throw DataError("trailing bytes in packed group");
  } else if (format == kCsc) {
    PAPAR_CHECK_MSG(key_field < schema.field_count(), "bad group key field");
    const auto klen = r.get<std::uint32_t>();
    const auto key_bytes = r.get_bytes(klen);
    std::string_view rest(packed.data() + r.position(), packed.size() - r.position());
    std::size_t pos = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string_view tail = rest.substr(pos);
      const std::size_t len = reduced_record_length(schema, key_field, tail);
      std::string_view reduced = tail.substr(0, len);
      const std::size_t insert_at = reduced_key_offset(schema, key_field, reduced);
      std::string rec;
      rec.reserve(len + klen);
      rec.append(reduced.substr(0, insert_at));
      rec.append(key_bytes);
      rec.append(reduced.substr(insert_at));
      out.push_back(std::move(rec));
      pos += len;
    }
    if (pos != rest.size()) throw DataError("trailing bytes in packed group");
  } else {
    throw DataError("unknown packed-group format byte");
  }
  return out;
}

}  // namespace papar::core
