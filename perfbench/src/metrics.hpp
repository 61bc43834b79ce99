// Metric catalogue and result emission for the PaPar benchmark.
//
// Every number the benchmark prints has exactly one name, one unit and one
// clock (host wall seconds, host CPU seconds, virtual seconds of the
// simulated cluster, megabytes, or a count), so host time, simulated time and
// bytes never share a unit. BENCHMARK.json lists the same names and units;
// `run.py --smoke` checks that the two agree.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Scope {
  /// Emitted in the result line of an untraced run (--trace 0).
  kEndToEnd,
  /// Emitted in the result line of a traced run (--trace 1).
  kLayer,
  /// Printed in the table only: zero on a healthy run, and the result
  /// line's `attempted`/`failed` fields already carry it.
  kTableOnly,
};

/// Values measured by one benchmark run, keyed by catalogue name (the
/// catalogue in metrics.cpp lists every metric's unit, clock and scope).
class MetricSet {
 public:
  /// Records a value; throws std::logic_error for a name not in the catalogue.
  void set(std::string_view name, double value);
  double get(std::string_view name) const;

  /// Human-readable table of every recorded metric: name, value, unit, clock.
  void print_table(std::FILE* out) const;

  /// The result line's "metrics" object for `scope`. Throws
  /// std::logic_error when a metric of that scope is missing or not finite.
  std::string json(Scope scope) const;

 private:
  std::map<std::string, double, std::less<>> values_;
};

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty vector.
double median(std::vector<double> v);

}  // namespace perfbench
