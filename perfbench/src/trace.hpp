#pragma once

/// \file trace.hpp
/// Spans recorded by the benchmark around each call it makes into a layer
/// of the program.  Spans live in memory while the workload runs and are
/// written out once it ends; a disabled tracer reads no clock and records
/// nothing, which is how the untraced (end-to-end) runs use it.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* layer = "";    ///< static string, e.g. "spec.check"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Times one call into a layer.  The parent is the calling thread's
  /// innermost open span, or \p parent when given (worker threads of a
  /// pool pass the pass span, which lives on another thread).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* layer, std::uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return span_.id; }

   private:
    Tracer& tracer_;
    Span span_;
  };

  /// Sum of span durations per layer, in seconds.
  double total_s(const std::string& layer) const;
  /// Number of spans of \p layer.
  std::size_t count(const std::string& layer) const;
  /// Self time per layer: each span's duration minus the part of it that
  /// its children cover (children may overlap when they run on several
  /// threads, so their union is subtracted), summed per layer.
  std::map<std::string, double> self_s() const;

  /// One JSON object per line: id, parent, layer, start_ns, end_ns.
  bool write_jsonl(const std::string& path) const;

 private:
  void record(const Span& span);

  const bool enabled_;
  mutable std::mutex mutex_;  // guards spans_ and next_id_
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  Clock::time_point epoch_ = Clock::now();
};

}  // namespace perfbench
