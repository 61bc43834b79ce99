// InputData configuration binding (paper §III-A, Figs. 4 and 5).
//
// Turns an <input> XML description into a Schema plus enough metadata to
// open the file with the right InputFormat — the "programming-free" path
// that replaces hand-written InputFormat subclasses.
//
//   <input id="blast_db" name="BLAST Database file">
//     <input_format>binary</input_format>
//     <start_position>32</start_position>
//     <element>
//       <value name="seq_start" type="integer"/>
//       ...
//     </element>
//   </input>
//
// Text elements interleave <value> and <delimiter>:
//     <value name="vertex_a" type="String"/>
//     <delimiter value="\t"/>
// Delimiter strings support the escapes \t \n \r \\.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "schema/input_format.hpp"
#include "schema/schema.hpp"
#include "xml/xml.hpp"

namespace papar::schema {

enum class InputKind { kBinary, kText };

struct InputSpec {
  std::string id;
  std::string display_name;
  InputKind kind = InputKind::kBinary;
  std::size_t start_position = 0;
  Schema schema;
};

/// Parses one <input> element.
InputSpec parse_input_spec(const xml::Node& node);

/// Parses an InputData configuration file whose root is <input>.
InputSpec load_input_spec(const std::string& path);

/// Translates \t, \n, \r, and \\ escapes in a delimiter attribute.
std::string unescape_delimiter(std::string_view raw);

/// Opens `path` with the InputFormat the spec prescribes.
std::unique_ptr<InputFormat> open_input(const InputSpec& spec, const std::string& path);

/// Builds an InputFormat over in-memory content (the paper's in-memory
/// repartitioning requirement: intermediate data need not touch disk). The
/// input owns `content`.
std::unique_ptr<InputFormat> open_input_from_memory(const InputSpec& spec,
                                                    std::string content);

/// Builds an InputFormat that reads `content` in place: the bytes must
/// outlive the input.
std::unique_ptr<InputFormat> open_input_view(const InputSpec& spec, std::string_view content);

}  // namespace papar::schema
