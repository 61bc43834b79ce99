// Negative matrix over the configuration parse path: malformed XML, input
// specs, workflows, engine parameters, and fault specs must all surface as
// typed papar::Error subclasses with useful context — never an assert,
// crash, or silently-wrong default.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/operators.hpp"
#include "core/workflow.hpp"
#include "mpsim/fault.hpp"
#include "schema/input_config.hpp"
#include "util/bytes.hpp"
#include "util/parse.hpp"
#include "xml/xml.hpp"

namespace papar {
namespace {

// -- XML ----------------------------------------------------------------------

TEST(XmlNegative, StructuralErrorsAreParseErrors) {
  EXPECT_THROW(xml::parse(""), ConfigError);
  EXPECT_THROW(xml::parse("<a>"), ConfigError);                  // unterminated
  EXPECT_THROW(xml::parse("<a><b></a>"), ConfigError);           // mismatched close
  EXPECT_THROW(xml::parse("<a></a><b/>"), ConfigError);          // trailing content
  EXPECT_THROW(xml::parse("<a x=\"1>"), ConfigError);            // unterminated attr
  EXPECT_THROW(xml::parse("<a x=1/>"), ConfigError);             // unquoted attr
  EXPECT_THROW(xml::parse("<a><!-- no end"), ConfigError);       // unterminated comment
  EXPECT_THROW(xml::parse("<1bad/>"), ConfigError);              // bad name start
}

TEST(XmlNegative, EntityErrorsAreParseErrors) {
  EXPECT_THROW(xml::parse("<a>&bogus;</a>"), ConfigError);
  EXPECT_THROW(xml::parse("<a>&unterminated</a>"), ConfigError);
  EXPECT_THROW(xml::parse("<a>&#;</a>"), ConfigError);
  EXPECT_THROW(xml::parse("<a>&#xZZ;</a>"), ConfigError);
  EXPECT_THROW(xml::parse("<a>&#12junk;</a>"), ConfigError);     // trailing garbage
  EXPECT_THROW(xml::parse("<a>&#x110000;</a>"), ConfigError);    // beyond Unicode
  EXPECT_NO_THROW(xml::parse("<a>&#65;&lt;&amp;</a>"));
}

TEST(XmlNegative, PathologicalNestingIsRejectedNotStackOverflow) {
  std::string deep;
  for (int i = 0; i < 400; ++i) deep += "<n>";
  deep += "x";
  for (int i = 0; i < 400; ++i) deep += "</n>";
  try {
    xml::parse(deep);
    FAIL() << "expected ParseError";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }
  // 200 levels is legal.
  std::string ok;
  for (int i = 0; i < 200; ++i) ok += "<n>";
  for (int i = 0; i < 200; ++i) ok += "</n>";
  EXPECT_NO_THROW(xml::parse(ok));
}

TEST(XmlNegative, ParseFileNamesTheFile) {
  EXPECT_THROW(xml::parse_file("/no/such/config.xml"), ConfigError);
  const std::string path = testing::TempDir() + "/papar_bad.xml";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("<a><b></a>", f);
    std::fclose(f);
  }
  try {
    xml::parse_file(path);
    FAIL() << "expected ParseError";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

// -- Input specs --------------------------------------------------------------

TEST(InputSpecNegative, MalformedSpecsAreConfigErrors) {
  auto spec_with = [](const std::string& body) {
    return "<input id=\"t\" name=\"t\">" + body + "</input>";
  };
  // Unknown format.
  EXPECT_THROW(schema::parse_input_spec(xml::parse(spec_with(
                   "<input_format>parquet</input_format>"
                   "<element><value name=\"a\" type=\"integer\"/></element>"))),
               ConfigError);
  // Bad field type.
  EXPECT_THROW(schema::parse_input_spec(xml::parse(spec_with(
                   "<input_format>binary</input_format>"
                   "<element><value name=\"a\" type=\"quaternion\"/></element>"))),
               ConfigError);
  // Bad start_position.
  EXPECT_THROW(schema::parse_input_spec(xml::parse(spec_with(
                   "<input_format>binary</input_format>"
                   "<start_position>soon</start_position>"
                   "<element><value name=\"a\" type=\"integer\"/></element>"))),
               ConfigError);
  // No fields at all.
  EXPECT_THROW(schema::parse_input_spec(xml::parse(spec_with(
                   "<input_format>binary</input_format><element></element>"))),
               ConfigError);
  // Text field without delimiter.
  EXPECT_THROW(schema::parse_input_spec(xml::parse(spec_with(
                   "<input_format>text</input_format>"
                   "<element><value name=\"a\" type=\"String\"/></element>"))),
               ConfigError);
  // Delimiter before any value.
  EXPECT_THROW(schema::parse_input_spec(xml::parse(spec_with(
                   "<input_format>text</input_format>"
                   "<element><delimiter value=\"\\t\"/></element>"))),
               ConfigError);
  // Unknown delimiter escape.
  EXPECT_THROW(schema::parse_input_spec(xml::parse(spec_with(
                   "<input_format>text</input_format>"
                   "<element><value name=\"a\" type=\"String\"/>"
                   "<delimiter value=\"\\q\"/></element>"))),
               ConfigError);
}

// -- Workflows ----------------------------------------------------------------

TEST(WorkflowNegative, MalformedWorkflowsAreConfigErrors) {
  // num_reducers must be a whole number.
  EXPECT_THROW(core::parse_workflow(xml::parse(R"(
      <workflow id="w"><operators>
        <operator id="op" operator="Sort" num_reducers="lots"/>
      </operators></workflow>)")),
               ConfigError);
  // Missing the operator attribute entirely.
  EXPECT_THROW(core::parse_workflow(xml::parse(R"(
      <workflow id="w"><operators><operator id="op"/></operators></workflow>)")),
               ConfigError);
  // Duplicate operator ids.
  EXPECT_THROW(core::parse_workflow(xml::parse(R"(
      <workflow id="w"><operators>
        <operator id="op" operator="Sort"/>
        <operator id="op" operator="Group"/>
      </operators></workflow>)")),
               ConfigError);
  // Unexpected child element inside an operator.
  EXPECT_THROW(core::parse_workflow(xml::parse(R"(
      <workflow id="w"><operators>
        <operator id="op" operator="Sort"><surprise/></operator>
      </operators></workflow>)")),
               ConfigError);
}

constexpr const char* kStringFieldA = R"(<value name="a" type="String"/>)";

/// A one-field text format whose field is `value` (a `<value>` element).
schema::InputSpec one_field_spec(const std::string& id, const std::string& value) {
  return schema::parse_input_spec(xml::parse(
      "<input id=\"" + id + "\" name=\"" + id +
      "\"><input_format>text</input_format><element>" + value +
      R"(<delimiter value="\n"/></element></input>)"));
}

/// A one-operator roundRobin distribute over a one-field text input `in.txt`.
/// The output format's field is `output_value` (default: the input's).
core::WorkflowEngine distribute_engine(
    const std::string& num_partitions, core::EngineOptions options = {},
    const std::string& output_value = kStringFieldA) {
  auto wf = core::parse_workflow(xml::parse(R"(
      <workflow id="w">
        <arguments>
          <param name="input_path" type="hdfs" format="fmt"/>
          <param name="output_path" type="hdfs" format="outfmt"/>
        </arguments>
        <operators>
          <operator id="distr" operator="Distribute">
            <param name="inputPath" type="String" value="$input_path"/>
            <param name="outputPath" type="String" value="$output_path"/>
            <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
            <param name="numPartitions" type="integer" value=")" +
                                                num_partitions + R"("/>
          </operator>
        </operators>
      </workflow>)"));
  return core::WorkflowEngine(std::move(wf),
                              {{"fmt", one_field_spec("fmt", kStringFieldA)},
                               {"outfmt", one_field_spec("outfmt", output_value)}},
                              {{"input_path", "in.txt"}, {"output_path", "out"}},
                              std::move(options));
}

TEST(EngineNegative, BadNumPartitionsIsAConfigError) {
  auto engine = distribute_engine("several");
  mp::Runtime rt(2, mp::NetworkModel::zero());
  try {
    engine.run(rt, {{"in.txt", "x\ny\n"}});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("numPartitions"), std::string::npos);
  }
}

TEST(EngineNegative, NumPartitionsOutsideTheU32RangeIsAConfigError) {
  // Zero used to fail an internal check, and past 2^32 - 1 (partition ids
  // travel as u32) the result's partition vector threw std::bad_alloc.
  for (const std::string parts : {"0", "4294967296", "5000000000"}) {
    auto engine = distribute_engine(parts);
    mp::Runtime rt(2, mp::NetworkModel::zero());
    try {
      engine.run(rt, {{"in.txt", "x\ny\n"}});
      ADD_FAILURE() << "expected ConfigError for numPartitions=" << parts;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("numPartitions"), std::string::npos) << e.what();
    }
  }
}

TEST(EngineNegative, WorkflowEndingInASplitIsAConfigError) {
  // Without a distribute only one output can become the result; every
  // split output but the first used to be dropped silently.
  auto wf = core::parse_workflow(xml::parse(R"(
      <workflow id="w">
        <arguments><param name="input_path" type="hdfs" format="pairs"/></arguments>
        <operators>
          <operator id="cut" operator="Split">
            <param name="inputPath" value="$input_path"/>
            <param name="outputPathList" value="/t/high, /t/low"/>
            <param name="key" value="x"/>
            <param name="policy" value="{&gt;=, 10},{&lt;, 10}"/>
          </operator>
        </operators>
      </workflow>)"));
  const auto pairs = schema::parse_input_spec(xml::parse(R"(
      <input id="pairs"><input_format>binary</input_format><element>
        <value name="k" type="integer"/><value name="x" type="integer"/>
      </element></input>)"));
  core::WorkflowEngine engine(std::move(wf), {{"pairs", pairs}},
                              {{"input_path", "in.bin"}});
  ByteWriter w;
  for (std::int32_t i = 0; i < 6; ++i) {
    w.put<std::int32_t>(i);
    w.put<std::int32_t>(i * 4);
  }
  mp::Runtime rt(2, mp::NetworkModel::zero());
  try {
    engine.run(rt, {{"in.bin", std::string(reinterpret_cast<const char*>(w.data()), w.size())}});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("`cut`"), std::string::npos) << e.what();
  }
}

TEST(EngineNegative, UnprojectableOutputFormatFailsEvenOnEmptyInput) {
  // An output format that renames or retypes the input's field cannot be
  // projected onto; that must fail the run whether or not a rank holds a
  // record to project.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {R"(<value name="b" type="String"/>)", "`b`"},
      {R"(<value name="a" type="integer"/>)", "changes type"},
  };
  for (const auto& [value, message] : bad) {
    for (const std::string input : {"x\ny\n", ""}) {
      auto engine = distribute_engine("2", {}, value);
      mp::Runtime rt(2, mp::NetworkModel::zero());
      try {
        engine.run(rt, {{"in.txt", input}});
        ADD_FAILURE() << "expected ConfigError: " << value << " over "
                      << input.size() << " input bytes";
      } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
      }
    }
  }
}

TEST(EngineNegative, InvalidRetryPolicyIsAConfigError) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, std::function<void(mp::RetryPolicy&)>>> bad = {
      {"max_attempts -1", [](mp::RetryPolicy& r) { r.max_attempts = -1; }},
      {"backoff_base -1", [](mp::RetryPolicy& r) { r.backoff_base = -1.0; }},
      {"backoff_base nan", [&](mp::RetryPolicy& r) { r.backoff_base = nan; }},
      {"backoff_base inf", [&](mp::RetryPolicy& r) { r.backoff_base = inf; }},
      {"backoff_max -1", [](mp::RetryPolicy& r) { r.backoff_max = -1.0; }},
      {"backoff_max nan", [&](mp::RetryPolicy& r) { r.backoff_max = nan; }},
  };
  for (const auto& [what, edit] : bad) {
    mp::RecoveryOptions ropts;
    ropts.mode = mp::RecoveryMode::kLocal;
    edit(ropts.retry);
    mp::Runtime rt(2, mp::NetworkModel::zero());
    EXPECT_THROW(rt.set_recovery(ropts), ConfigError) << what;
    // A rejected policy leaves the runtime's options untouched.
    EXPECT_EQ(rt.recovery().mode, mp::RecoveryMode::kStage) << what;
    // The engine hands its options to set_recovery, so a run fails too.
    core::EngineOptions options;
    options.recovery = ropts;
    auto engine = distribute_engine("2", options);
    EXPECT_THROW(engine.run(rt, {{"in.txt", "x\ny\n"}}), ConfigError) << what;
  }
  // Zero attempts and zero backoff are valid: no replays, no waiting.
  mp::RecoveryOptions zero;
  zero.retry.max_attempts = 0;
  zero.retry.backoff_base = 0.0;
  zero.retry.backoff_max = 0.0;
  mp::Runtime rt(2, mp::NetworkModel::zero());
  EXPECT_NO_THROW(rt.set_recovery(zero));
}

TEST(EngineNegative, NegativeSchedulerWorkersIsAConfigError) {
  mp::SchedulerOptions sched;
  sched.workers = -3;
  EXPECT_THROW(mp::Runtime(2, mp::NetworkModel::zero(), sched), ConfigError);
}

// -- Number parsing -----------------------------------------------------------

TEST(ParseNumberNegative, RejectsGarbageEmptyAndOverflow) {
  EXPECT_EQ(parse_number<int>("42", "n"), 42);
  EXPECT_THROW(parse_number<int>("", "n"), ConfigError);
  EXPECT_THROW(parse_number<int>("4x", "n"), ConfigError);
  EXPECT_THROW(parse_number<int>("x4", "n"), ConfigError);
  EXPECT_THROW(parse_number<int>("999999999999999999999", "n"), ConfigError);
  EXPECT_THROW(parse_number<std::size_t>("-3", "n"), ConfigError);
  try {
    parse_number<int>("nope", "the knob");
    FAIL();
  } catch (const ConfigError& e) {
    // The error names the offending parameter.
    EXPECT_NE(std::string(e.what()).find("the knob"), std::string::npos);
  }
}

TEST(ParseNumberNegative, RejectsNonFiniteFloatingPoint) {
  EXPECT_DOUBLE_EQ(parse_number<double>("0.25", "x"), 0.25);
  EXPECT_DOUBLE_EQ(parse_number<double>("-1e-3", "x"), -1e-3);
  for (const char* text : {"nan", "NaN", "-nan", "nan(1)", "inf", "-inf", "INF", "infinity"}) {
    EXPECT_THROW(parse_number<double>(text, "x"), ConfigError) << text;
    EXPECT_THROW(parse_number<float>(text, "x"), ConfigError) << text;
  }
  try {
    parse_number<double>("nan", "--retry-backoff");
    FAIL();
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--retry-backoff"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos);
  }
}

// -- Fault specs --------------------------------------------------------------

TEST(FaultSpecNegative, NonFiniteValuesAreRejected) {
  // A NaN probability fails every draw and silently disables its fault; an
  // infinite delay or slowdown poisons the virtual clocks.
  for (const char* spec : {"drop=nan", "dup=nan", "corrupt=nan", "delay=nan",
                           "delay=0.5:nan", "delay=0.5:inf", "slow=1@nan",
                           "slow=1@inf", "drop=inf"}) {
    EXPECT_THROW(mp::FaultPlan::parse(spec), ConfigError) << spec;
  }
}

TEST(FaultSpecNegative, RejectedWithTypedErrors) {
  EXPECT_THROW(mp::FaultPlan::parse("drop=2"), ConfigError);
  EXPECT_THROW(mp::FaultPlan::parse("dup=nope"), ConfigError);
  EXPECT_THROW(mp::FaultPlan::parse("delay=0.5:fast"), ConfigError);
  EXPECT_THROW(mp::FaultPlan::parse("crash=@4"), ConfigError);
  EXPECT_THROW(mp::FaultPlan::parse("unknown_knob=1"), ConfigError);
  EXPECT_THROW(mp::FaultPlan::parse_arg("/does/not/exist.conf"), ConfigError);
}

// -- Split conditions ---------------------------------------------------------

TEST(SplitConditionNegative, MalformedThresholdsAreRejectedNotTruncated) {
  // Each of these once parsed as its leading digits: 200, 2, 1 and 22.
  for (const char* text : {"{>=, 200abc}", "{>=, 2.5}", "{<, 1e3}", "{>=, 22.9}",
                           "{>=, 22abc}", "{>=, }", "{<, 99999999999999999999}"}) {
    EXPECT_THROW(core::parse_split_condition(text), ConfigError) << text;
  }
  try {
    core::parse_split_condition("{>=, 2.5}");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("split threshold"), std::string::npos);
  }
  EXPECT_EQ(core::parse_split_condition("{<, -7}").threshold, -7);
}

}  // namespace
}  // namespace papar
