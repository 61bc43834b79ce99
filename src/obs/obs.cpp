#include "obs/obs.hpp"

#include <cctype>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/error.hpp"

namespace papar::obs {

// -- Recorder -----------------------------------------------------------------

void Recorder::add_counter(std::string_view name, std::uint64_t delta) {
  metrics_.counter(name)->add(delta);
}

std::uint64_t Recorder::counter(std::string_view name) const {
  return metrics_.counter_value(name);
}

namespace {

/// Formats a double with enough digits to round-trip through parse().
std::string number_to_json(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename S, std::size_t N>
bool any_field(const S& section, const ReportField<S> (&fields)[N]) {
  for (const auto& f : fields) {
    if (section.*f.member != 0) return true;
  }
  return false;
}

/// `"key":value,...` for every field of the list.
template <typename S, std::size_t N>
void fields_to_json(std::ostringstream& os, const S& section,
                    const ReportField<S> (&fields)[N]) {
  for (std::size_t i = 0; i < N; ++i) {
    if (i > 0) os << ",";
    os << "\"" << fields[i].key << "\":" << section.*fields[i].member;
  }
}

template <typename S, std::size_t N>
void fields_from_json(const json::Value& obj, S& section,
                      const ReportField<S> (&fields)[N]) {
  for (const auto& f : fields) {
    const json::Value* v = obj.find(f.key);
    if (v == nullptr && f.old_key != nullptr) v = obj.find(f.old_key);
    if (v == nullptr && !f.optional) v = &obj.at(f.key);  // throws
    section.*f.member = v != nullptr ? static_cast<std::uint64_t>(v->number) : 0u;
  }
}

/// `name: key=value ...` when any field is nonzero.
template <typename S, std::size_t N>
void print_fields(std::FILE* out, const char* name, const S& section,
                  const ReportField<S> (&fields)[N]) {
  if (!any_field(section, fields)) return;
  std::fprintf(out, "%s:", name);
  for (const auto& f : fields) {
    std::fprintf(out, " %s=%llu", f.key,
                 static_cast<unsigned long long>(section.*f.member));
  }
  std::fputc('\n', out);
}

template <typename S, std::size_t N>
void export_fields(MetricsRegistry& metrics, const char* prefix, const S& section,
                   const ReportField<S> (&fields)[N]) {
  for (const auto& f : fields) {
    const std::string name = std::string(prefix) + f.key;
    const std::uint64_t value = section.*f.member;
    if (f.gauge) {
      metrics.gauge(name)->set(static_cast<double>(value));
    } else {
      metrics.inc(name, value);
    }
  }
}

}  // namespace

// -- StageReport --------------------------------------------------------------

bool FaultStats::any() const { return any_field(*this, kFaultFields); }
bool MemoryStats::any() const { return any_field(*this, kMemoryFields); }
bool SortStats::any() const { return any_field(*this, kSortFields); }

std::uint64_t StageReport::stage_bytes_total() const {
  std::uint64_t n = 0;
  for (const auto& s : stages) n += s.shuffle_bytes;
  return n;
}

std::string StageReport::to_json() const {
  std::ostringstream os;
  os << "{\"makespan\":" << number_to_json(makespan) << ",";
  fields_to_json(os, *this, kTotalFields);
  os << ",\"faults\":{";
  fields_to_json(os, faults, kFaultFields);
  os << "},\"memory\":{";
  fields_to_json(os, memory, kMemoryFields);
  os << "},\"sort\":{";
  fields_to_json(os, sort, kSortFields);
  os << "},\"stages\":[";
  bool first = true;
  for (const auto& s : stages) {
    if (!first) os << ",";
    first = false;
    os << "{\"id\":" << json::quote(s.id) << ",\"op\":" << json::quote(s.op)
       << ",\"seconds\":" << number_to_json(s.seconds)
       << ",\"shuffle_bytes\":" << s.shuffle_bytes
       << ",\"shuffle_messages\":" << s.shuffle_messages
       << ",\"records_in\":" << s.records_in << ",\"records_out\":" << s.records_out
       << ",\"reducer_skew\":" << number_to_json(s.reducer_skew) << "}";
  }
  os << "]}";
  return os.str();
}

StageReport StageReport::from_json(std::string_view text) {
  const json::Value root = json::parse(text);
  if (root.kind != json::Value::Kind::kObject) {
    throw DataError("stage report JSON must be an object");
  }
  StageReport report;
  report.makespan = root.at("makespan").number;
  fields_from_json(root, report, kTotalFields);
  // Reports written before a section existed lack its key.
  if (const json::Value* f = root.find("faults")) {
    fields_from_json(*f, report.faults, kFaultFields);
  }
  if (const json::Value* m = root.find("memory")) {
    fields_from_json(*m, report.memory, kMemoryFields);
  }
  if (const json::Value* s = root.find("sort")) {
    fields_from_json(*s, report.sort, kSortFields);
  }
  for (const auto& v : root.at("stages").array) {
    StageRecord s;
    s.id = v.at("id").string;
    s.op = v.at("op").string;
    s.seconds = v.at("seconds").number;
    s.shuffle_bytes = static_cast<std::uint64_t>(v.at("shuffle_bytes").number);
    s.shuffle_messages = static_cast<std::uint64_t>(v.at("shuffle_messages").number);
    s.records_in = static_cast<std::uint64_t>(v.at("records_in").number);
    s.records_out = static_cast<std::uint64_t>(v.at("records_out").number);
    s.reducer_skew = v.at("reducer_skew").number;
    report.stages.push_back(std::move(s));
  }
  return report;
}

void StageReport::print(std::FILE* out) const {
  std::fprintf(out, "%-14s %-12s %12s %14s %10s %12s %12s %8s\n", "stage", "op",
               "time (s)", "shuffle (B)", "msgs", "in", "out", "skew");
  for (const auto& s : stages) {
    std::fprintf(out, "%-14s %-12s %12.6f %14llu %10llu %12llu %12llu %8.2f\n",
                 s.id.c_str(), s.op.c_str(), s.seconds,
                 static_cast<unsigned long long>(s.shuffle_bytes),
                 static_cast<unsigned long long>(s.shuffle_messages),
                 static_cast<unsigned long long>(s.records_in),
                 static_cast<unsigned long long>(s.records_out), s.reducer_skew);
  }
  std::fprintf(out, "%-14s %-12s %12.6f %14llu %10llu\n", "total", "", makespan,
               static_cast<unsigned long long>(remote_bytes),
               static_cast<unsigned long long>(remote_messages));
  print_fields(out, "faults", faults, kFaultFields);
  print_fields(out, "memory", memory, kMemoryFields);
  print_fields(out, "sort", sort, kSortFields);
}

void StageReport::export_metrics(MetricsRegistry& metrics, bool with_faults,
                                 bool with_memory) const {
  export_fields(metrics, "", *this, kTotalFields);
  if (with_faults) export_fields(metrics, "faults.", faults, kFaultFields);
  if (with_memory) export_fields(metrics, "memory.", memory, kMemoryFields);
}

// -- JSON ---------------------------------------------------------------------

namespace json {

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) throw DataError("JSON object lacks key `" + std::string(key) + "`");
  return *v;
}

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw DataError("JSON parse error at offset " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected `") + c + "`");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      Value v;
      v.kind = Value::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (consume_word("true")) {
      Value v;
      v.kind = Value::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_word("false")) {
      Value v;
      v.kind = Value::Kind::kBool;
      return v;
    }
    if (consume_word("null")) return {};
    return parse_number();
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    skip_ws();
    if (consume('}')) return v;
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    skip_ws();
    if (consume(']')) return v;
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The exporters only emit \u00XX control escapes; encode as the
          // raw byte (sufficient for round-tripping our own output).
          if (code > 0xff) fail("unsupported \\u escape beyond U+00FF");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    Value v;
    v.kind = Value::Kind::kNumber;
    try {
      v.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      fail("bad number");
    }
    if (!std::isfinite(v.number)) fail("non-finite number");
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

namespace {
void dump_into(const Value& v, std::string& out) {
  switch (v.kind) {
    case Value::Kind::kNull: out += "null"; break;
    case Value::Kind::kBool: out += v.boolean ? "true" : "false"; break;
    case Value::Kind::kNumber: out += number_to_json(v.number); break;
    case Value::Kind::kString: out += quote(v.string); break;
    case Value::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const auto& e : v.array) {
        if (!first) out += ',';
        first = false;
        dump_into(e, out);
      }
      out += ']';
      break;
    }
    case Value::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, e] : v.object) {
        if (!first) out += ',';
        first = false;
        out += quote(k);
        out += ':';
        dump_into(e, out);
      }
      out += '}';
      break;
    }
  }
}
}  // namespace

std::string dump(const Value& v) {
  std::string out;
  dump_into(v, out);
  return out;
}

}  // namespace json

}  // namespace papar::obs
