#pragma once

/// \file bench.hpp
/// What every workload of the benchmark provides to main.cpp.
///
/// A workload's constructor is its set-up (everything before the first
/// unit); run_pass() runs one whole pass over the inputs the seed generated
/// and times each unit; main.cpp repeats passes, times them, and prints
/// the end-to-end or per-layer metrics.

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes that run every check in about a second.
  bool smoke = false;
  /// Reference-figure knobs (0 = the workload's own value): fig2_apsp's
  /// worker count and store_zipf's keyspace size.
  std::size_t jobs = 0;
  std::size_t keys = 0;
};

struct PassResult {
  double wall_s = 0.0;
  /// Wall time of each unit, in unit order.
  std::vector<double> unit_ms;
  /// Units that did not complete or whose output failed a check.
  std::uint64_t failed = 0;
  /// Units that completed with a wrong output (a subset of failed).
  std::uint64_t wrong = 0;
  /// Digest of every unit's schedule fingerprint, in unit order.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::string first_error;

  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  }
  void fail(bool wrong_output, const std::string& why) {
    ++failed;
    if (wrong_output) ++wrong;
    if (first_error.empty()) first_error = why;
  }
};

/// Per-layer metric values by name; main.cpp prints 0 for any per-layer
/// metric a workload leaves unset (its layer does no work there, or the
/// program does not expose it to the benchmark).
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Checks made once on the set-up inputs; empty when they hold.
  virtual std::string check_setup() const { return ""; }
  /// One whole pass; \p pass_span parents unit spans made on other threads.
  virtual void run_pass(Tracer& tracer, std::uint64_t pass_span,
                        PassResult& out) = 0;
  /// Re-runs a sample of the last pass's units; empty when each one repeats
  /// its fingerprint and event count.
  virtual std::string recheck() = 0;
  /// Per-layer values of the last (traced) pass, plus the timed probe
  /// loops, which record their own spans on \p tracer.
  virtual void layer_values(Tracer& tracer, const PassResult& pass,
                            LayerValues& out) = 0;
  /// Make-up and results of the last pass, as text lines.
  virtual void report(std::FILE* out) const = 0;
};

std::unique_ptr<Workload> make_fig2_apsp(const Options& opt, Tracer& tracer);
std::unique_ptr<Workload> make_store_zipf(const Options& opt, Tracer& tracer);
std::unique_ptr<Workload> make_explore_durable(const Options& opt,
                                               Tracer& tracer);

/// Mean nanoseconds per call of \p fn over \p calls calls, timed as one span
/// of \p layer (the loops time a layer's call on the workload's own inputs).
template <typename F>
double time_per_call_ns(Tracer& tracer, const char* layer, std::size_t calls,
                        F&& fn) {
  Tracer::Scope span(tracer, layer);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) fn(i);
  return seconds_between(t0, Clock::now()) * 1e9 /
         static_cast<double>(calls == 0 ? 1 : calls);
}

}  // namespace perfbench
