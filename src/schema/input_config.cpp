#include "schema/input_config.hpp"

#include <charconv>

namespace papar::schema {

std::string unescape_delimiter(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '\\' || i + 1 == raw.size()) {
      out += raw[i];
      continue;
    }
    ++i;
    switch (raw[i]) {
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case '\\': out += '\\'; break;
      default:
        throw ConfigError(std::string("unknown delimiter escape `\\") + raw[i] + "`");
    }
  }
  if (out.empty()) throw ConfigError("empty delimiter");
  return out;
}

InputSpec parse_input_spec(const xml::Node& node) {
  if (node.name != "input") {
    throw ConfigError("expected <input>, found <" + node.name + ">");
  }
  InputSpec spec;
  spec.id = std::string(node.required_attribute("id"));
  spec.display_name = node.attribute_or("name", spec.id);

  const auto format = node.child_text("input_format");
  if (format == "binary") {
    spec.kind = InputKind::kBinary;
  } else if (format == "text") {
    spec.kind = InputKind::kText;
  } else {
    throw ConfigError("unknown input_format `" + std::string(format) + "`");
  }

  if (const auto* sp = node.child("start_position")) {
    std::size_t v = 0;
    auto [p, ec] = std::from_chars(sp->text.data(), sp->text.data() + sp->text.size(), v);
    if (ec != std::errc() || p != sp->text.data() + sp->text.size()) {
      throw ConfigError("bad start_position `" + sp->text + "`");
    }
    spec.start_position = v;
  }

  const auto& element = node.required_child("element");
  std::string pending_field;  // name of the field awaiting its delimiter
  FieldType pending_type = FieldType::kInt32;
  bool has_pending = false;
  for (const auto& child : element.children) {
    if (child.name == "value") {
      if (has_pending) {
        // Previous value had no delimiter; legal only for binary inputs.
        spec.schema.add_field(pending_field, pending_type);
      }
      pending_field = std::string(child.required_attribute("name"));
      pending_type = parse_field_type(child.required_attribute("type"));
      has_pending = true;
    } else if (child.name == "delimiter") {
      if (!has_pending) {
        throw ConfigError("<delimiter> without a preceding <value>");
      }
      spec.schema.add_field(pending_field, pending_type,
                            unescape_delimiter(child.required_attribute("value")));
      has_pending = false;
    } else {
      throw ConfigError("unexpected element <" + child.name + "> inside <element>");
    }
  }
  if (has_pending) spec.schema.add_field(pending_field, pending_type);

  if (spec.schema.field_count() == 0) {
    throw ConfigError("input `" + spec.id + "` declares no fields");
  }
  if (spec.kind == InputKind::kBinary && !spec.schema.fixed_width()) {
    throw ConfigError("binary input `" + spec.id + "` cannot contain String fields");
  }
  if (spec.kind == InputKind::kText) {
    for (const auto& f : spec.schema.fields()) {
      if (f.delimiter.empty()) {
        throw ConfigError("text input field `" + f.name + "` lacks a delimiter");
      }
    }
  }
  return spec;
}

InputSpec load_input_spec(const std::string& path) {
  return parse_input_spec(xml::parse_file(path));
}

std::unique_ptr<InputFormat> open_input(const InputSpec& spec, const std::string& path) {
  if (spec.kind == InputKind::kBinary) {
    return BinaryFixedInput::from_file(spec.schema, path, spec.start_position);
  }
  return TextDelimitedInput::from_file(spec.schema, path);
}

std::unique_ptr<InputFormat> open_input_from_memory(const InputSpec& spec,
                                                    std::string content) {
  if (spec.kind == InputKind::kBinary) {
    return std::make_unique<BinaryFixedInput>(spec.schema, std::move(content),
                                              spec.start_position);
  }
  return std::make_unique<TextDelimitedInput>(spec.schema, std::move(content));
}

std::unique_ptr<InputFormat> open_input_view(const InputSpec& spec, std::string_view content) {
  if (spec.kind == InputKind::kBinary) {
    return std::make_unique<BinaryFixedInput>(spec.schema, content, spec.start_position);
  }
  return std::make_unique<TextDelimitedInput>(spec.schema, content);
}

}  // namespace papar::schema
