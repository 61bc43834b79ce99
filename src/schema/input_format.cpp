#include "schema/input_format.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>

namespace papar::schema {

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw DataError("cannot open input file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// -- Binary reader -----------------------------------------------------------

class BinaryRecordReader : public RecordReader {
 public:
  BinaryRecordReader(const Schema& schema, const char* base, std::size_t begin,
                     std::size_t end, std::size_t width)
      : schema_(&schema), base_(base), pos_(begin), end_(end), width_(width) {}

  bool next(Record& out) override {
    if (pos_ + width_ > end_) return false;
    ByteReader r(base_ + pos_, width_);
    out = Record::decode(*schema_, r);
    pos_ += width_;
    return true;
  }

 private:
  const Schema* schema_;
  const char* base_;
  std::size_t pos_;
  std::size_t end_;
  std::size_t width_;
};

// -- Text reader --------------------------------------------------------------

/// One numeric token of `field`; `type_name` names T in the DataError.
template <typename T>
T parse_number_token(const Field& field, std::string_view token, const char* type_name) {
  T v{};
  auto [p, ec] = std::from_chars(token.begin(), token.end(), v);
  if (ec != std::errc() || p != token.end()) {
    throw DataError(std::string("bad ") + type_name + " token `" + std::string(token) +
                    "` for field `" + field.name + "`");
  }
  return v;
}

Value parse_text_value(const Field& field, std::string_view token) {
  switch (field.type) {
    case FieldType::kString: return std::string(token);
    case FieldType::kInt32: return parse_number_token<std::int32_t>(field, token, "int32");
    case FieldType::kInt64: return parse_number_token<std::int64_t>(field, token, "int64");
    case FieldType::kFloat64: return parse_number_token<double>(field, token, "double");
  }
  throw InternalError("corrupt FieldType");
}

/// The token of `field` starting at `pos`; advances `pos` past the field's
/// delimiter, or throws DataError when the delimiter never comes.
std::string_view next_token(std::string_view content, std::size_t& pos, const Field& field) {
  const std::string& delim = field.delimiter;
  const auto at = delim.size() == 1 ? content.find(delim[0], pos) : content.find(delim, pos);
  if (at == std::string_view::npos) {
    throw DataError("unterminated field `" + field.name + "` in text input");
  }
  const std::string_view token = content.substr(pos, at - pos);
  pos = at + delim.size();
  return token;
}

template <typename T>
void append_pod(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

class TextRecordReader : public RecordReader {
 public:
  TextRecordReader(const Schema& schema, std::string_view content, std::size_t begin,
                   std::size_t end)
      : schema_(&schema), content_(content), pos_(begin), end_(end) {}

  bool next(Record& out) override {
    // Records that *start* before end_ belong to this reader.
    if (pos_ >= end_ || pos_ >= content_.size()) return false;
    std::vector<Value> values;
    values.reserve(schema_->field_count());
    for (const Field& field : schema_->fields()) {
      values.push_back(parse_text_value(field, next_token(content_, pos_, field)));
    }
    out = Record(std::move(values));
    return true;
  }

 private:
  const Schema* schema_;
  std::string_view content_;
  std::size_t pos_;
  std::size_t end_;
};

}  // namespace

// -- BinaryFixedInput ---------------------------------------------------------

BinaryFixedInput::BinaryFixedInput(Schema schema, std::string content,
                                   std::size_t start_position)
    : BinaryFixedInput(std::move(schema), std::string_view(content), start_position) {
  owned_ = std::move(content);
  content_ = owned_;
}

BinaryFixedInput::BinaryFixedInput(Schema schema, std::string_view content,
                                   std::size_t start_position)
    : InputFormat(std::move(schema)), content_(content), start_(start_position) {
  if (!schema_.fixed_width()) {
    throw ConfigError("binary input requires a fixed-width schema");
  }
  width_ = schema_.record_width();
  PAPAR_CHECK_MSG(width_ > 0, "empty binary schema");
  if (content_.size() < start_) {
    throw DataError("binary input shorter than its start_position");
  }
  if ((content_.size() - start_) % width_ != 0) {
    throw DataError("binary input size is not a whole number of records");
  }
}

std::unique_ptr<BinaryFixedInput> BinaryFixedInput::from_file(
    Schema schema, const std::string& path, std::size_t start_position) {
  return std::make_unique<BinaryFixedInput>(std::move(schema), slurp(path),
                                            start_position);
}

std::size_t BinaryFixedInput::record_count() const {
  return (content_.size() - start_) / width_;
}

std::vector<FileSplit> BinaryFixedInput::splits(int nsplits) const {
  PAPAR_CHECK_MSG(nsplits >= 1, "nsplits must be positive");
  const std::size_t n = record_count();
  const auto s = static_cast<std::size_t>(nsplits);
  std::vector<FileSplit> out;
  out.reserve(s);
  for (std::size_t i = 0; i < s; ++i) {
    const std::size_t lo = start_ + (i * n / s) * width_;
    const std::size_t hi = start_ + ((i + 1) * n / s) * width_;
    out.push_back(FileSplit{lo, hi});
  }
  return out;
}

std::unique_ptr<RecordReader> BinaryFixedInput::reader(const FileSplit& split) const {
  return std::make_unique<BinaryRecordReader>(schema_, content_.data(), split.begin,
                                              split.end, width_);
}

void BinaryFixedInput::for_each_wire(
    const FileSplit& split, const std::function<void(std::string_view)>& fn) const {
  // The on-disk layout *is* the wire layout for fixed-width schemas:
  // hand out zero-copy slices.
  for (std::size_t pos = split.begin; pos + width_ <= split.end; pos += width_) {
    fn(std::string_view(content_.data() + pos, width_));
  }
}

// -- TextDelimitedInput -------------------------------------------------------

TextDelimitedInput::TextDelimitedInput(Schema schema, std::string content)
    : TextDelimitedInput(std::move(schema), std::string_view(content)) {
  owned_ = std::move(content);
  content_ = owned_;
}

TextDelimitedInput::TextDelimitedInput(Schema schema, std::string_view content)
    : InputFormat(std::move(schema)), content_(content) {
  for (const auto& f : schema_.fields()) {
    if (f.delimiter.empty()) {
      throw ConfigError("text schema field `" + f.name + "` lacks a delimiter");
    }
  }
}

std::unique_ptr<TextDelimitedInput> TextDelimitedInput::from_file(
    Schema schema, const std::string& path) {
  return std::make_unique<TextDelimitedInput>(std::move(schema), slurp(path));
}

std::size_t TextDelimitedInput::record_count() const {
  // A record ends with the final field's delimiter.
  const std::string& terminator = schema_.fields().back().delimiter;
  std::size_t n = 0;
  std::size_t pos = 0;
  while ((pos = content_.find(terminator, pos)) != std::string::npos) {
    ++n;
    pos += terminator.size();
  }
  return n;
}

std::vector<FileSplit> TextDelimitedInput::splits(int nsplits) const {
  PAPAR_CHECK_MSG(nsplits >= 1, "nsplits must be positive");
  // Hadoop semantics: cut at equal byte offsets, then advance each cut to
  // the next record boundary so every record starts in exactly one split.
  const std::string& terminator = schema_.fields().back().delimiter;
  const auto s = static_cast<std::size_t>(nsplits);
  std::vector<std::size_t> cuts;
  cuts.reserve(s + 1);
  cuts.push_back(0);
  for (std::size_t i = 1; i < s; ++i) {
    std::size_t target = i * content_.size() / s;
    if (target <= cuts.back()) {
      cuts.push_back(cuts.back());
      continue;
    }
    // Scan forward from target to the end of the current record.
    const auto at = content_.find(terminator, target);
    const std::size_t boundary =
        at == std::string::npos ? content_.size() : at + terminator.size();
    cuts.push_back(std::max(boundary, cuts.back()));
  }
  cuts.push_back(content_.size());
  std::vector<FileSplit> out;
  out.reserve(s);
  for (std::size_t i = 0; i < s; ++i) {
    out.push_back(FileSplit{cuts[i], cuts[i + 1]});
  }
  return out;
}

std::unique_ptr<RecordReader> TextDelimitedInput::reader(const FileSplit& split) const {
  return std::make_unique<TextRecordReader>(schema_, content_, split.begin, split.end);
}

void TextDelimitedInput::for_each_wire(
    const FileSplit& split, const std::function<void(std::string_view)>& fn) const {
  // The reader's records and errors, encoded straight from the tokens.
  const std::string_view content = content_;
  const std::size_t end = std::min(split.end, content.size());
  std::string wire;
  for (std::size_t pos = split.begin; pos < end;) {
    wire.clear();
    for (const Field& field : schema_.fields()) {
      const std::string_view token = next_token(content, pos, field);
      switch (field.type) {
        case FieldType::kString:
          append_pod(wire, static_cast<std::uint32_t>(token.size()));
          wire.append(token);
          break;
        case FieldType::kInt32:
          append_pod(wire, parse_number_token<std::int32_t>(field, token, "int32"));
          break;
        case FieldType::kInt64:
          append_pod(wire, parse_number_token<std::int64_t>(field, token, "int64"));
          break;
        case FieldType::kFloat64:
          append_pod(wire, parse_number_token<double>(field, token, "double"));
          break;
      }
    }
    fn(wire);
  }
}

// -- Writers ------------------------------------------------------------------

void write_binary_file(const std::string& path, const Schema& schema,
                       const std::vector<Record>& records, std::size_t start_position,
                       const std::string& header) {
  if (!schema.fixed_width()) {
    throw ConfigError("binary output requires a fixed-width schema");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw DataError("cannot open output file: " + path);
  std::string head = header;
  head.resize(start_position, '\0');
  out.write(head.data(), static_cast<std::streamsize>(head.size()));
  ByteWriter w;
  for (const auto& rec : records) rec.encode(schema, w);
  out.write(reinterpret_cast<const char*>(w.data()),
            static_cast<std::streamsize>(w.size()));
  if (!out) throw DataError("write failed: " + path);
}

std::string format_text_record(const Schema& schema, const Record& record) {
  if (record.size() != schema.field_count()) {
    throw DataError("record arity does not match schema");
  }
  std::string line;
  for (std::size_t i = 0; i < schema.field_count(); ++i) {
    const Field& field = schema.field(i);
    const Value& v = record.value(i);
    switch (field.type) {
      case FieldType::kString: line += std::get<std::string>(v); break;
      case FieldType::kInt32: line += std::to_string(std::get<std::int32_t>(v)); break;
      case FieldType::kInt64: line += std::to_string(std::get<std::int64_t>(v)); break;
      case FieldType::kFloat64: {
        std::ostringstream os;
        os << std::get<double>(v);
        line += os.str();
        break;
      }
    }
    line += field.delimiter;
  }
  return line;
}

void write_text_file(const std::string& path, const Schema& schema,
                     const std::vector<Record>& records) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw DataError("cannot open output file: " + path);
  for (const auto& rec : records) {
    const std::string line = format_text_record(schema, rec);
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
  }
  if (!out) throw DataError("write failed: " + path);
}

std::vector<Record> read_all(const InputFormat& input) {
  std::vector<Record> out;
  out.reserve(input.record_count());
  for (const auto& split : input.splits(1)) {
    auto reader = input.reader(split);
    Record rec;
    while (reader->next(rec)) out.push_back(rec);
  }
  return out;
}

}  // namespace papar::schema
