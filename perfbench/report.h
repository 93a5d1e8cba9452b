// Copyright 2026 The streambid Authors
// What one benchmark mode returns, and the small statistics helpers the
// modes share.

#ifndef STREAMBID_PERFBENCH_REPORT_H_
#define STREAMBID_PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace streambid::perfbench {

/// One mode's outcome. `metrics` holds values only; units live in
/// BENCHMARK.json.
struct ModeReport {
  std::vector<std::string> errors;  ///< Failed output checks.
  int64_t attempted = 0;            ///< Offers made.
  int64_t failed = 0;               ///< Non-shed errors plus drops.
  std::map<std::string, double> metrics;

  bool correct() const { return errors.empty(); }
  /// Records a failed check (the first few messages are kept).
  void Fail(std::string message) {
    if (errors.size() < 20) errors.push_back(std::move(message));
  }
  /// Appends `other`'s errors and counts; its metrics overwrite ours.
  void Merge(const ModeReport& other);
};

/// The q-quantile (0 < q <= 1) by nearest rank; 0 for no samples.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
double Median(std::vector<double> values);

/// Peak resident set of this process so far, in MB (VmHWM).
double PeakRssMb();

/// The single-line JSON object the driver script parses.
std::string ToJson(const ModeReport& report);

}  // namespace streambid::perfbench

#endif  // STREAMBID_PERFBENCH_REPORT_H_
