// Copyright 2026 The streambid Authors

#include "perfbench/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace streambid::perfbench {

void ModeReport::Merge(const ModeReport& other) {
  errors.insert(errors.end(), other.errors.begin(), other.errors.end());
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& [name, value] : other.metrics) metrics[name] = value;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string Escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string ToJson(const ModeReport& report) {
  std::string out = "{\"correct\": ";
  out += report.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"errors\": [";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += Escape(report.errors[i]);
    out += '"';
  }
  out += "], \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, value] : report.metrics) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(number, sizeof(number), "%.17g", value);
    out += '"';
    out += name;
    out += "\": ";
    out += number;
  }
  out += "}}";
  return out;
}

}  // namespace streambid::perfbench
