// InputFormat: Hadoop-style split + record-reader abstraction.
//
// The paper adopts Hadoop's InputFormat design (getSplits / getRecordReader)
// as the programming-level interface and layers the programming-free
// InputData configuration on top. This header provides both binary
// fixed-width inputs (BLAST index files: a header to skip, then fixed
// records) and delimited text inputs (edge lists). Splits are byte ranges;
// text splits follow Hadoop semantics — a reader consumes records that
// *start* inside its range, scanning forward to the first record boundary
// when the range begins mid-record.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "schema/record.hpp"
#include "schema/schema.hpp"

namespace papar::schema {

/// Half-open byte range of the underlying content.
struct FileSplit {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Sequential reader over one split.
class RecordReader {
 public:
  virtual ~RecordReader() = default;
  /// Reads the next record; returns false at end of split.
  virtual bool next(Record& out) = 0;
};

class InputFormat {
 public:
  virtual ~InputFormat() = default;
  InputFormat(const InputFormat&) = delete;
  InputFormat& operator=(const InputFormat&) = delete;

  const Schema& schema() const { return schema_; }

  /// Number of records in the whole input.
  virtual std::size_t record_count() const = 0;

  /// Partitions the input into at most `nsplits` non-overlapping ranges
  /// covering every record exactly once.
  virtual std::vector<FileSplit> splits(int nsplits) const = 0;

  virtual std::unique_ptr<RecordReader> reader(const FileSplit& split) const = 0;

  /// Streams each record of the split in its *wire* encoding (the byte form
  /// records take inside the engine; see record.hpp): the records reader()
  /// yields, encoded, with the same errors, and no Record built. Fixed-width
  /// binary inputs hand out zero-copy slices of the file content; text
  /// inputs encode each line from its tokens.
  virtual void for_each_wire(const FileSplit& split,
                             const std::function<void(std::string_view)>& fn) const = 0;

 protected:
  explicit InputFormat(Schema schema) : schema_(std::move(schema)) {}
  Schema schema_;
};

/// Fixed-width binary input: `start_position` header bytes, then packed
/// records of schema.record_width() bytes each. Owns its bytes when given a
/// string or a file; reads a string_view in place.
class BinaryFixedInput : public InputFormat {
 public:
  BinaryFixedInput(Schema schema, std::string content, std::size_t start_position);
  /// Reads `content` in place: the bytes must outlive the input.
  BinaryFixedInput(Schema schema, std::string_view content, std::size_t start_position);

  static std::unique_ptr<BinaryFixedInput> from_file(Schema schema,
                                                     const std::string& path,
                                                     std::size_t start_position);

  std::size_t record_count() const override;
  std::vector<FileSplit> splits(int nsplits) const override;
  std::unique_ptr<RecordReader> reader(const FileSplit& split) const override;
  void for_each_wire(const FileSplit& split,
                     const std::function<void(std::string_view)>& fn) const override;

 private:
  std::string owned_;
  std::string_view content_;
  std::size_t start_ = 0;
  std::size_t width_ = 0;
};

/// Delimited text input: fields terminated by their schema delimiters, the
/// last field's delimiter ends the record (e.g. "\t" then "\n"). Owns its
/// bytes when given a string or a file; reads a string_view in place.
class TextDelimitedInput : public InputFormat {
 public:
  TextDelimitedInput(Schema schema, std::string content);
  /// Reads `content` in place: the bytes must outlive the input.
  TextDelimitedInput(Schema schema, std::string_view content);

  static std::unique_ptr<TextDelimitedInput> from_file(Schema schema,
                                                       const std::string& path);

  std::size_t record_count() const override;
  std::vector<FileSplit> splits(int nsplits) const override;
  std::unique_ptr<RecordReader> reader(const FileSplit& split) const override;
  void for_each_wire(const FileSplit& split,
                     const std::function<void(std::string_view)>& fn) const override;

 private:
  std::string owned_;
  std::string_view content_;
};

// -- Writers ----------------------------------------------------------------

/// Writes a fixed-width binary file: `header` (padded/truncated to
/// `start_position` bytes) followed by the packed records.
void write_binary_file(const std::string& path, const Schema& schema,
                       const std::vector<Record>& records,
                       std::size_t start_position = 0,
                       const std::string& header = "");

/// Writes a delimited text file per the schema's delimiters.
void write_text_file(const std::string& path, const Schema& schema,
                     const std::vector<Record>& records);

/// Renders one record as delimited text (used by the text writer and by
/// partition-output formatting).
std::string format_text_record(const Schema& schema, const Record& record);

/// Reads every record of an input sequentially (test/bench convenience).
std::vector<Record> read_all(const InputFormat& input);

}  // namespace papar::schema
