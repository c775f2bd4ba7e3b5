// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code around each call into a
// library layer (generate, build, all-pairs MI, learn and its phases, each
// RPC). A span has a name whose prefix up to the first '.' names its layer,
// a start and end on one steady clock, the span that caused it, and the
// request id it belongs to (0 outside RPCs). Nothing is written until the
// run ends; a disabled tracer records nothing and costs one branch.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wfbn::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline Clock::duration from_seconds(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t record(std::string_view name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0,
                       std::uint64_t request = 0) {
    if (!enabled_) return 0;
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back(Span{std::string(name), start, end, id, parent, request});
    return id;
  }

  /// Opens a span whose end is filled in by close(); for parents whose
  /// children are recorded before the parent ends.
  std::uint64_t open(std::string_view name, std::uint64_t parent = 0) {
    const Clock::time_point now = Clock::now();
    return record(name, now, now, parent);
  }
  void close(std::uint64_t id) {
    if (!enabled_ || id == 0) return;
    const Clock::time_point now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = now;
  }

  /// Self time per layer: each span's duration minus the part of it that
  /// its children cover, summed over the layer's spans.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
        children(spans_.size() + 1);
    for (const Span& s : spans_) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
    }
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      auto& kids = children[s.id];
      std::sort(kids.begin(), kids.end());
      double covered = 0.0;
      Clock::time_point reach = s.start;
      for (auto [lo, hi] : kids) {
        lo = std::max(lo, reach);
        hi = std::min(hi, s.end);
        if (hi > lo) {
          covered += seconds_between(lo, hi);
          reach = hi;
        }
      }
      out[layer_of(s.name)] += seconds_between(s.start, s.end) - covered;
    }
    return out;
  }

  /// Writes Chrome trace-event JSON (chrome://tracing, Perfetto). Spans with
  /// a request id are async events keyed by it, since requests overlap.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::lock_guard<std::mutex> lock(mutex_);
    std::fputs("{\"traceEvents\": [\n", f);
    bool first = true;
    const auto us = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - epoch_).count();
    };
    for (const Span& s : spans_) {
      const std::string layer = layer_of(s.name);
      if (s.request == 0) {
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                     "\"args\": {\"id\": %llu, \"parent\": %llu}}",
                     first ? "" : ",\n", s.name.c_str(), layer.c_str(),
                     us(s.start), us(s.end) - us(s.start),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
      } else {
        for (const char phase : {'b', 'e'}) {
          std::fprintf(f,
                       "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", "
                       "\"ts\": %.3f, \"pid\": 1, \"tid\": 2, \"id\": %llu, "
                       "\"args\": {\"parent\": %llu}}",
                       first ? "" : ",\n", s.name.c_str(), layer.c_str(), phase,
                       us(phase == 'b' ? s.start : s.end),
                       static_cast<unsigned long long>(s.request),
                       static_cast<unsigned long long>(s.parent));
          first = false;
        }
      }
      first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

  [[nodiscard]] std::size_t span_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

 private:
  static std::string layer_of(const std::string& name) {
    return name.substr(0, name.find('.'));
  }

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_; span id = index + 1
};

}  // namespace wfbn::bench
