#pragma once

/// \file checks.hpp
/// Output checks the benchmark makes apart from the program: each one
/// recomputes or re-derives the expected answer from the workload's inputs
/// rather than comparing against a copy of an earlier output.  selftest()
/// plants a wrong answer in front of every checker and fails unless each
/// one rejects it.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/register_types.hpp"
#include "explore/profile.hpp"

namespace perfbench {

// ---- fig2_apsp ------------------------------------------------------------

/// Shortest distances on the paper's directed unit chain v_{n-1} -> ... ->
/// v_0: d(i, j) = i - j for i >= j, unreachable (apps::kInf) otherwise.
std::vector<std::vector<std::int64_t>> chain_distances(std::size_t n);

/// Empty when \p rows equals \p expected, else what differs.
std::string compare_rows(const std::vector<std::vector<std::int64_t>>& rows,
                         const std::vector<std::vector<std::int64_t>>& expected);

/// ceil(log2(d)) for d >= 1: the rounds min-plus squaring needs to cover a
/// path of d hops, so no synchronous run on diameter d converges sooner.
std::size_t min_squaring_rounds(std::uint64_t d);

// ---- store_zipf -----------------------------------------------------------

/// The value a key's single writer puts at timestamp \p ts (ts >= 1); every
/// key starts as initial_value() at ts 0.
pqra::core::Value put_value(pqra::net::KeyId key, pqra::core::Timestamp ts);
pqra::core::Value initial_value();

/// Checks each completed get of one store run as it arrives.
class ReadChecker {
 public:
  /// \p writer_ts: the highest timestamp the key's writer has issued so far.
  /// Returns false (and keeps the first error) when the read returned a
  /// value nobody wrote at that timestamp, a timestamp the writer never
  /// issued, or a timestamp older than this client's previous read of the
  /// key.
  bool on_get(std::size_t client, pqra::net::KeyId key,
              pqra::core::Timestamp ts, const pqra::core::Value& value,
              pqra::core::Timestamp writer_ts);

  const std::string& first_error() const { return first_error_; }

 private:
  bool fail(std::string what);

  // (client, key) -> timestamp of that client's latest read of the key.
  std::unordered_map<std::uint64_t, pqra::core::Timestamp> last_read_;
  std::string first_error_;
};

// ---- explore_durable ------------------------------------------------------

/// Parses \p text into \p parsed and checks that it describes exactly
/// \p profile and re-serializes to the same bytes.  Empty when it does.
std::string codec_roundtrip_error(const pqra::explore::ScheduleProfile& profile,
                                  const std::string& text,
                                  pqra::explore::ScheduleProfile& parsed);

/// Plants a wrong answer in front of every checker; returns the number of
/// checkers that failed to reject theirs (0 = pass) and prints one line each.
int selftest();

}  // namespace perfbench
