// One result schema for the pipeline_e2e benchmark: a timing sample set with
// its order statistics, the host block every result is stamped with, and a
// small JSON writer that keeps measured and modeled values apart.
//
//  - Samples: median, quartiles, and the highest whole percentile that still
//    has at least ten samples beyond it (the tail a sample of this size can
//    support), plus the count.
//  - HostInfo: cores, CPU model, effective SIMD dispatch level, and the
//    transparent-huge-page mode, so a number always names its host.
//  - JsonWriter: measured_* and modeled_* fields are written through separate
//    calls that add the prefix, so one value can never be mistaken for the
//    other; a key written twice into one object throws.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/simd.hpp"

namespace wfbn::bench {

class Samples {
 public:
  void add(double value) { values_.push_back(value); }

  [[nodiscard]] std::size_t n() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

  /// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
  [[nodiscard]] double quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
  }
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double q1() const { return quantile(0.25); }
  [[nodiscard]] double q3() const { return quantile(0.75); }
  [[nodiscard]] double sum() const {
    double s = 0.0;
    for (const double v : values_) s += v;
    return s;
  }

  /// Highest whole percentile with at least ten samples above it, or 0 when
  /// the set is too small for any tail beyond the median (n < 20).
  [[nodiscard]] int tail_percentile() const {
    if (values_.size() < 20) return 0;
    const double n = static_cast<double>(values_.size());
    return static_cast<int>(std::floor(100.0 * (n - 10.0) / n));
  }
  [[nodiscard]] double tail() const {
    return quantile(static_cast<double>(tail_percentile()) / 100.0);
  }

 private:
  std::vector<double> values_;
};

struct HostInfo {
  unsigned nproc = 1;
  std::string cpu_model;
  std::string simd_level;
  std::string thp_mode;

  static HostInfo probe() {
    HostInfo host;
    host.nproc = std::max(1u, std::thread::hardware_concurrency());
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
      if (line.rfind("model name", 0) == 0) {
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) host.cpu_model = line.substr(colon + 2);
        break;
      }
    }
    host.simd_level = simd::level_name(simd::resolve(simd::Policy::kAuto));
    // The active mode is the bracketed word, e.g. "always [madvise] never".
    std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
    std::string modes;
    std::getline(thp, modes);
    const std::size_t open = modes.find('[');
    const std::size_t close = modes.find(']');
    host.thp_mode = open != std::string::npos && close > open
                        ? modes.substr(open + 1, close - open - 1)
                        : "unknown";
    return host;
  }
};

/// Streaming writer for one JSON value. Objects and arrays nest through
/// begin_*/end_*; keys are checked for uniqueness per object.
class JsonWriter {
 public:
  JsonWriter& begin_object(std::string_view key = {}) { return open(key, true); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array(std::string_view key = {}) { return open(key, false); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& number(std::string_view key, double value) {
    prefix(key);
    if (!std::isfinite(value)) {
      out_ += "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", value);
      out_ += buf;
    }
    return *this;
  }
  JsonWriter& integer(std::string_view key, std::uint64_t value) {
    prefix(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& boolean(std::string_view key, bool value) {
    prefix(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  JsonWriter& string(std::string_view key, std::string_view value) {
    prefix(key);
    quote(value);
    return *this;
  }
  /// A value timed on this host by wall clock.
  JsonWriter& measured(std::string_view name, double value) {
    return number("measured_" + std::string(name), value);
  }
  /// A value predicted by the cost model (src/sim), never measured.
  JsonWriter& modeled(std::string_view name, double value) {
    return number("modeled_" + std::string(name), value);
  }

  JsonWriter& samples(std::string_view key, const Samples& s) {
    begin_object(key);
    number("median", s.median());
    number("q1", s.q1());
    number("q3", s.q3());
    integer("tail_percentile", static_cast<std::uint64_t>(s.tail_percentile()));
    number("tail", s.tail());
    integer("n", s.n());
    return end_object();
  }
  JsonWriter& host(const HostInfo& h) {
    begin_object("host");
    integer("nproc", h.nproc);
    string("cpu_model", h.cpu_model);
    string("simd_level", h.simd_level);
    string("thp_mode", h.thp_mode);
    return end_object();
  }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void prefix(std::string_view key) {
    if (!out_.empty() && out_.back() != '{' && out_.back() != '[') out_ += ", ";
    if (scopes_.empty() || !scopes_.back().is_object) return;
    if (!scopes_.back().keys.insert(std::string(key)).second) {
      throw std::logic_error("duplicate JSON key: " + std::string(key));
    }
    quote(key);
    out_ += ": ";
  }
  JsonWriter& open(std::string_view key, bool is_object) {
    prefix(key);
    out_ += is_object ? '{' : '[';
    scopes_.push_back(Scope{is_object, {}});
    return *this;
  }
  JsonWriter& close(char bracket) {
    scopes_.pop_back();
    out_ += bracket;
    return *this;
  }
  void quote(std::string_view text) {
    out_ += '"';
    for (const char c : text) {
      if (c == '"' || c == '\\') out_ += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      out_ += c;
    }
    out_ += '"';
  }

  struct Scope {
    bool is_object = false;
    std::set<std::string> keys;
  };
  std::string out_;
  std::vector<Scope> scopes_;
};

}  // namespace wfbn::bench
