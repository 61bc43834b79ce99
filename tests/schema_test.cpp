// Tests for the schema module: typed fields, wire encoding, projections,
// binary/text InputFormats with Hadoop-style splits, and the InputData XML
// binding from the paper's Figs. 4 and 5.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <tuple>

#include "schema/input_config.hpp"
#include "schema/input_format.hpp"
#include "schema/record.hpp"
#include "schema/schema.hpp"
#include "util/rng.hpp"
#include "xml/xml.hpp"

namespace papar::schema {
namespace {

Schema blast_schema() {
  Schema s;
  s.add_field("seq_start", FieldType::kInt32)
      .add_field("seq_size", FieldType::kInt32)
      .add_field("desc_start", FieldType::kInt32)
      .add_field("desc_size", FieldType::kInt32);
  return s;
}

Schema edge_schema() {
  Schema s;
  s.add_field("vertex_a", FieldType::kString, "\t")
      .add_field("vertex_b", FieldType::kString, "\n");
  return s;
}

TEST(Schema, FixedWidthAndOffsets) {
  const Schema s = blast_schema();
  EXPECT_TRUE(s.fixed_width());
  EXPECT_EQ(s.record_width(), 16u);
  EXPECT_EQ(s.field_offset(0), 0u);
  EXPECT_EQ(s.field_offset(3), 12u);
}

TEST(Schema, StringsBreakFixedWidth) {
  EXPECT_FALSE(edge_schema().fixed_width());
  EXPECT_THROW((void)edge_schema().record_width(), DataError);
}

TEST(Schema, DuplicateFieldRejected) {
  Schema s;
  s.add_field("x", FieldType::kInt32);
  EXPECT_THROW(s.add_field("x", FieldType::kInt64), ConfigError);
}

TEST(Schema, IndexLookup) {
  const Schema s = blast_schema();
  EXPECT_EQ(s.required_index("seq_size"), 1u);
  EXPECT_FALSE(s.index_of("nope").has_value());
  EXPECT_THROW((void)s.required_index("nope"), ConfigError);
}

TEST(Schema, TypeNamesRoundTrip) {
  for (auto t : {FieldType::kInt32, FieldType::kInt64, FieldType::kFloat64,
                 FieldType::kString}) {
    EXPECT_EQ(parse_field_type(field_type_name(t)), t);
  }
  EXPECT_THROW(parse_field_type("quaternion"), ConfigError);
}

TEST(Projections, IntOrderPreserved) {
  const std::vector<std::int64_t> xs{std::numeric_limits<std::int64_t>::min(), -5, -1,
                                     0, 1, 7, std::numeric_limits<std::int64_t>::max()};
  for (std::size_t i = 1; i < xs.size(); ++i) {
    EXPECT_LT(project_i64(xs[i - 1]), project_i64(xs[i]));
  }
}

TEST(Projections, DoubleOrderPreserved) {
  const std::vector<double> xs{-1e308, -2.5, -0.0, 0.5, 3.25, 1e308};
  for (std::size_t i = 1; i < xs.size(); ++i) {
    EXPECT_LT(project_f64(xs[i - 1]), project_f64(xs[i]));
  }
  // -0.0 and +0.0 must not invert order with tiny positives.
  EXPECT_LE(project_f64(-0.0), project_f64(0.0));
}

TEST(Projections, StringPrefixMonotone) {
  EXPECT_LT(project_string("abc"), project_string("abd"));
  EXPECT_LT(project_string("ab"), project_string("abc"));
  EXPECT_LT(project_string(""), project_string("a"));
  // Equal 8-byte prefixes collide (resolved by full comparison downstream).
  EXPECT_EQ(project_string("12345678a"), project_string("12345678b"));
}

TEST(Record, EncodeDecodeFixed) {
  const Schema s = blast_schema();
  Record rec({std::int32_t{10}, std::int32_t{94}, std::int32_t{0}, std::int32_t{74}});
  const std::string wire = rec.encode(s);
  EXPECT_EQ(wire.size(), 16u);
  const Record back = Record::decode(s, wire);
  EXPECT_EQ(back, rec);
  EXPECT_EQ(back.as_int(1), 94);
}

TEST(Record, EncodeDecodeStrings) {
  const Schema s = edge_schema();
  Record rec({std::string("alpha"), std::string("beta")});
  const Record back = Record::decode(s, rec.encode(s));
  EXPECT_EQ(back.as_string(0), "alpha");
  EXPECT_EQ(back.as_string(1), "beta");
}

TEST(Record, TypeMismatchThrows) {
  const Schema s = blast_schema();
  Record rec({std::int32_t{1}, std::int64_t{2}, std::int32_t{3}, std::int32_t{4}});
  ByteWriter w;
  EXPECT_THROW(rec.encode(s, w), DataError);
}

TEST(Record, TrailingBytesRejected) {
  const Schema s = blast_schema();
  Record rec({std::int32_t{1}, std::int32_t{2}, std::int32_t{3}, std::int32_t{4}});
  std::string wire = rec.encode(s);
  wire += 'x';
  EXPECT_THROW((void)Record::decode(s, wire), DataError);
}

TEST(Record, ProjectFieldWithoutDecode) {
  const Schema s = blast_schema();
  Record a({std::int32_t{0}, std::int32_t{51}, std::int32_t{0}, std::int32_t{1}});
  Record b({std::int32_t{0}, std::int32_t{94}, std::int32_t{0}, std::int32_t{1}});
  EXPECT_LT(project_field(s, a.encode(s), 1), project_field(s, b.encode(s), 1));
}

TEST(Record, ProjectStringField) {
  const Schema s = edge_schema();
  Record a({std::string("aaa"), std::string("x")});
  Record b({std::string("bbb"), std::string("x")});
  EXPECT_LT(project_field(s, a.encode(s), 0), project_field(s, b.encode(s), 0));
  EXPECT_EQ(wire_string_field(s, a.encode(s), 1), "x");
}

TEST(BinaryInput, ReadsRecordsAfterHeader) {
  const Schema s = blast_schema();
  std::vector<Record> recs;
  for (int i = 0; i < 10; ++i) {
    recs.emplace_back(std::vector<Value>{std::int32_t{i * 100}, std::int32_t{50 + i},
                                         std::int32_t{i * 10}, std::int32_t{i}});
  }
  ByteWriter w;
  for (int i = 0; i < 32; ++i) w.put<char>('h');
  for (const auto& r : recs) r.encode(s, w);
  std::string content(reinterpret_cast<const char*>(w.data()), w.size());

  BinaryFixedInput input(s, content, 32);
  EXPECT_EQ(input.record_count(), 10u);
  const auto all = read_all(input);
  ASSERT_EQ(all.size(), 10u);
  EXPECT_EQ(all[3].as_int(1), 53);
}

TEST(BinaryInput, RejectsRaggedFile) {
  const Schema s = blast_schema();
  EXPECT_THROW(BinaryFixedInput(s, std::string(31, 'x'), 32), DataError);
  EXPECT_THROW(BinaryFixedInput(s, std::string(40, 'x'), 32), DataError);
  EXPECT_NO_THROW(BinaryFixedInput(s, std::string(48, 'x'), 32));
}

class BinarySplits : public ::testing::TestWithParam<int> {};

TEST_P(BinarySplits, SplitsCoverEveryRecordOnce) {
  const Schema s = blast_schema();
  ByteWriter w;
  const int n = 103;
  for (int i = 0; i < n; ++i) {
    Record({std::int32_t{i}, std::int32_t{i}, std::int32_t{i}, std::int32_t{i}})
        .encode(s, w);
  }
  BinaryFixedInput input(s, std::string(reinterpret_cast<const char*>(w.data()), w.size()),
                         0);
  std::vector<int> seen;
  for (const auto& split : input.splits(GetParam())) {
    auto reader = input.reader(split);
    Record rec;
    while (reader->next(rec)) seen.push_back(static_cast<int>(rec.as_int(0)));
  }
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

INSTANTIATE_TEST_SUITE_P(Counts, BinarySplits, ::testing::Values(1, 2, 3, 7, 16, 103, 200));

TEST(TextInput, ParsesEdgeList) {
  const Schema s = edge_schema();
  TextDelimitedInput input(s, std::string("1\t2\n3\t4\n5\t6\n"));
  EXPECT_EQ(input.record_count(), 3u);
  const auto all = read_all(input);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[1].as_string(0), "3");
  EXPECT_EQ(all[1].as_string(1), "4");
}

TEST(TextInput, ParsesNumericTextFields) {
  Schema s;
  s.add_field("a", FieldType::kInt64, "\t").add_field("b", FieldType::kFloat64, "\n");
  TextDelimitedInput input(s, std::string("42\t2.5\n-7\t0.25\n"));
  const auto all = read_all(input);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].as_int(0), 42);
  EXPECT_DOUBLE_EQ(all[1].as_double(1), 0.25);
}

TEST(TextInput, BadNumericTokenThrows) {
  Schema s;
  s.add_field("a", FieldType::kInt32, "\n");
  TextDelimitedInput input(s, std::string("12x\n"));
  auto reader = input.reader(input.splits(1)[0]);
  Record rec;
  EXPECT_THROW((void)reader->next(rec), DataError);
}

TEST(TextInput, UnterminatedRecordThrows) {
  const Schema s = edge_schema();
  TextDelimitedInput input(s, std::string("1\t2\n3\t4"));  // missing trailing \n
  auto splits = input.splits(1);
  auto reader = input.reader(splits[0]);
  Record rec;
  EXPECT_TRUE(reader->next(rec));
  EXPECT_THROW((void)reader->next(rec), DataError);
}

class TextSplits : public ::testing::TestWithParam<int> {};

TEST_P(TextSplits, HadoopSemanticsCoverEveryRecordOnce) {
  const Schema s = edge_schema();
  Rng rng(71);
  std::string content;
  const int n = 157;
  for (int i = 0; i < n; ++i) {
    // Variable-length tokens so byte cuts land mid-record.
    content += std::to_string(rng.next_below(1000000)) + "\t" + std::to_string(i) + "\n";
  }
  TextDelimitedInput input(s, content);
  std::vector<int> seen;
  for (const auto& split : input.splits(GetParam())) {
    auto reader = input.reader(split);
    Record rec;
    while (reader->next(rec)) seen.push_back(std::stoi(rec.as_string(1)));
  }
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

INSTANTIATE_TEST_SUITE_P(Counts, TextSplits, ::testing::Values(1, 2, 3, 8, 16, 64));

// -- Text straight to wire: differential against the Record path -------------

/// The wire records of every split, in order, and the DataError text that
/// ended the pass (empty when none was raised).
struct WireOutcome {
  std::vector<std::string> wires;
  std::string error;
};

WireOutcome via_reader(const InputFormat& input, int nsplits) {
  WireOutcome out;
  try {
    for (const auto& split : input.splits(nsplits)) {
      auto reader = input.reader(split);
      Record rec;
      while (reader->next(rec)) out.wires.push_back(rec.encode(input.schema()));
    }
  } catch (const DataError& e) {
    out.error = e.what();
  }
  return out;
}

WireOutcome via_for_each_wire(const InputFormat& input, int nsplits) {
  WireOutcome out;
  try {
    for (const auto& split : input.splits(nsplits)) {
      input.for_each_wire(split, [&](std::string_view w) { out.wires.emplace_back(w); });
    }
  } catch (const DataError& e) {
    out.error = e.what();
  }
  return out;
}

/// A text schema of 1-5 fields of random types with delimiters of 1-3
/// bytes: field delimiters from ",;|\t", the record terminator from
/// "\n\r".
Schema random_text_schema(Rng& rng) {
  static constexpr FieldType kTypes[] = {FieldType::kString, FieldType::kInt32,
                                         FieldType::kInt64, FieldType::kFloat64};
  const std::size_t nfields = 1 + rng.next_below(5);
  Schema s;
  for (std::size_t i = 0; i < nfields; ++i) {
    const std::string_view alphabet = i + 1 == nfields ? "\n\r" : ",;|\t";
    std::string delim(1 + rng.next_below(3), ' ');
    for (auto& c : delim) c = alphabet[rng.next_below(alphabet.size())];
    s.add_field("f" + std::to_string(i), kTypes[rng.next_below(4)], delim);
  }
  return s;
}

/// One token of `field`: strings of 0-6 bytes (a third of them empty) that
/// may hold field-delimiter bytes but never a record-terminator byte, and
/// whose field's delimiter first matches right after them; integers and
/// doubles of either sign.
std::string random_token(const Field& field, Rng& rng) {
  switch (field.type) {
    case FieldType::kString: {
      std::string t;
      do {
        t.assign(rng.next_below(3) == 0 ? 0 : rng.next_below(7), ' ');
        for (auto& c : t) c = "ab-.09 ,;|\t"[rng.next_below(11)];
      } while ((t + field.delimiter).find(field.delimiter) != t.size());
      return t;
    }
    case FieldType::kInt32:
      return std::to_string(rng.next_below(2) == 0
                                ? static_cast<std::int32_t>(rng.next_below(200)) - 100
                                : static_cast<std::int32_t>(rng.next_u64()));
    case FieldType::kInt64:
      return std::to_string(static_cast<std::int64_t>(rng.next_u64()));
    case FieldType::kFloat64: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", (rng.next_double() - 0.5) * 1e6);
      return buf;
    }
  }
  return {};
}

TEST(TextWire, ForEachWireMatchesReaderOnRandomSchemas) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const Schema s = random_text_schema(rng);
    const std::size_t rows = rng.next_below(40);
    std::string content;
    for (std::size_t r = 0; r < rows; ++r) {
      for (const auto& f : s.fields()) content += random_token(f, rng) + f.delimiter;
    }
    const TextDelimitedInput input(s, content);
    for (int k = 1; k <= 7; ++k) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << ", " << k << " splits");
      const WireOutcome want = via_reader(input, k);
      const WireOutcome got = via_for_each_wire(input, k);
      EXPECT_EQ(want.error, "");
      EXPECT_EQ(want.wires.size(), rows);
      EXPECT_EQ(got.wires, want.wires);
      EXPECT_EQ(got.error, want.error);
    }
  }
}

TEST(TextWire, MalformedInputRaisesTheReadersError) {
  Schema s;
  s.add_field("a", FieldType::kString, "\t").add_field("n", FieldType::kInt32, "\n");
  const std::pair<std::string, std::string> cases[] = {
      {"x\t1\ny\t2", "data error: unterminated field `n` in text input"},
      {"x\t1\ny\t12x\n", "data error: bad int32 token `12x` for field `n`"},
      {"x\t2147483648\n", "data error: bad int32 token `2147483648` for field `n`"},
  };
  for (const auto& [content, error] : cases) {
    const TextDelimitedInput input(s, content);
    for (int k = 1; k <= 3; ++k) {
      SCOPED_TRACE(testing::Message() << error << ", " << k << " splits");
      const WireOutcome want = via_reader(input, k);
      const WireOutcome got = via_for_each_wire(input, k);
      EXPECT_EQ(want.error, error);
      EXPECT_EQ(got.error, want.error);
      EXPECT_EQ(got.wires, want.wires);
    }
  }
}

TEST(Writers, BinaryRoundTripThroughDisk) {
  const Schema s = blast_schema();
  std::vector<Record> recs;
  for (int i = 0; i < 5; ++i) {
    recs.emplace_back(std::vector<Value>{std::int32_t{i}, std::int32_t{i * 2},
                                         std::int32_t{i * 3}, std::int32_t{i * 4}});
  }
  const std::string path = ::testing::TempDir() + "/blast_roundtrip.bin";
  write_binary_file(path, s, recs, 32, "HDR");
  auto input = BinaryFixedInput::from_file(s, path, 32);
  EXPECT_EQ(read_all(*input), recs);
}

TEST(Writers, TextRoundTripThroughDisk) {
  const Schema s = edge_schema();
  std::vector<Record> recs{Record({std::string("1"), std::string("2")}),
                           Record({std::string("30"), std::string("40")})};
  const std::string path = ::testing::TempDir() + "/edges_roundtrip.txt";
  write_text_file(path, s, recs);
  auto input = TextDelimitedInput::from_file(s, path);
  EXPECT_EQ(read_all(*input), recs);
}

TEST(InputConfig, ParsesPaperFig4) {
  const auto spec = parse_input_spec(xml::parse(R"(
    <input id="blast_db" name="BLAST Database file">
      <input_format>binary</input_format>
      <start_position>32</start_position>
      <element>
        <value name="seq_start" type="integer"/>
        <value name="seq_size" type="integer"/>
        <value name="desc_start" type="integer"/>
        <value name="desc_size" type="integer"/>
      </element>
    </input>)"));
  EXPECT_EQ(spec.id, "blast_db");
  EXPECT_EQ(spec.kind, InputKind::kBinary);
  EXPECT_EQ(spec.start_position, 32u);
  EXPECT_EQ(spec.schema.field_count(), 4u);
  EXPECT_EQ(spec.schema.record_width(), 16u);
}

TEST(InputConfig, ParsesPaperFig5) {
  const auto spec = parse_input_spec(xml::parse(R"(
    <input id="graph_edge" name="edge lists">
      <input_format>text</input_format>
      <element>
        <value name="vertex_a" type="String"/>
        <delimiter value="\t"/>
        <value name="vertex_b" type="String"/>
        <delimiter value="\n"/>
      </element>
    </input>)"));
  EXPECT_EQ(spec.kind, InputKind::kText);
  EXPECT_EQ(spec.schema.field(0).delimiter, "\t");
  EXPECT_EQ(spec.schema.field(1).delimiter, "\n");
}

TEST(InputConfig, RejectsBinaryWithStrings) {
  EXPECT_THROW(parse_input_spec(xml::parse(R"(
    <input id="x"><input_format>binary</input_format>
      <element><value name="s" type="String"/></element>
    </input>)")),
               ConfigError);
}

TEST(InputConfig, RejectsTextWithoutDelimiters) {
  EXPECT_THROW(parse_input_spec(xml::parse(R"(
    <input id="x"><input_format>text</input_format>
      <element><value name="s" type="String"/></element>
    </input>)")),
               ConfigError);
}

TEST(InputConfig, UnescapesDelimiters) {
  EXPECT_EQ(unescape_delimiter("\\t"), "\t");
  EXPECT_EQ(unescape_delimiter("\\n"), "\n");
  EXPECT_EQ(unescape_delimiter("\\\\"), "\\");
  EXPECT_EQ(unescape_delimiter(","), ",");
  EXPECT_THROW(unescape_delimiter("\\q"), ConfigError);
  EXPECT_THROW(unescape_delimiter(""), ConfigError);
}

TEST(InputConfig, OpenInputFromMemoryDispatches) {
  const auto spec = parse_input_spec(xml::parse(R"(
    <input id="graph_edge"><input_format>text</input_format>
      <element>
        <value name="a" type="String"/><delimiter value="\t"/>
        <value name="b" type="String"/><delimiter value="\n"/>
      </element>
    </input>)"));
  auto input = open_input_from_memory(spec, "x\ty\n");
  EXPECT_EQ(input->record_count(), 1u);
}

TEST(InputConfig, OpenInputViewReadsTheContentInPlace) {
  // A view input copies nothing: binary wire slices point into the caller's
  // bytes, and both kinds yield what an owning input over a copy yields.
  const auto binary = parse_input_spec(xml::parse(R"(
    <input id="pairs"><input_format>binary</input_format><start_position>4</start_position>
      <element><value name="a" type="int32"/><value name="b" type="int32"/></element>
    </input>)"));
  const auto text = parse_input_spec(xml::parse(R"(
    <input id="graph_edge"><input_format>text</input_format>
      <element>
        <value name="a" type="String"/><delimiter value="\t"/>
        <value name="b" type="String"/><delimiter value="\n"/>
      </element>
    </input>)"));
  const std::string bin_content = std::string("head") + std::string(24, '\x5a');
  const std::string text_content = "x\ty\nlonger field\tz\n";
  for (const auto& [spec, content, records] :
       {std::tuple{&binary, &bin_content, 3u}, std::tuple{&text, &text_content, 2u}}) {
    const auto view = open_input_view(*spec, *content);
    const auto copy = open_input_from_memory(*spec, *content);
    std::vector<std::string> from_view;
    std::vector<std::string> from_copy;
    for (const FileSplit& split : view->splits(2)) {
      view->for_each_wire(split, [&](std::string_view wire) {
        from_view.emplace_back(wire);
        if (spec == &binary) {
          EXPECT_GE(wire.data(), content->data());
          EXPECT_LE(wire.data() + wire.size(), content->data() + content->size());
        }
      });
    }
    for (const FileSplit& split : copy->splits(2)) {
      copy->for_each_wire(split, [&](std::string_view wire) { from_copy.emplace_back(wire); });
    }
    EXPECT_EQ(from_view, from_copy);
    EXPECT_EQ(from_view.size(), records);
  }
}

}  // namespace
}  // namespace papar::schema
