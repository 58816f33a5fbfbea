#include "checks.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <utility>

#include "apps/graph.hpp"
#include "util/codec.hpp"

namespace perfbench {

std::vector<std::vector<std::int64_t>> chain_distances(std::size_t n) {
  std::vector<std::vector<std::int64_t>> d(
      n, std::vector<std::int64_t>(n, pqra::apps::kInf));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      d[i][j] = static_cast<std::int64_t>(i - j);
    }
  }
  return d;
}

std::string compare_rows(
    const std::vector<std::vector<std::int64_t>>& rows,
    const std::vector<std::vector<std::int64_t>>& expected) {
  if (rows.size() != expected.size()) return "row count differs";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != expected[i].size()) {
      return "row " + std::to_string(i) + " has the wrong length";
    }
    for (std::size_t j = 0; j < rows[i].size(); ++j) {
      if (rows[i][j] != expected[i][j]) {
        return "d(" + std::to_string(i) + "," + std::to_string(j) + ") = " +
               std::to_string(rows[i][j]) + ", expected " +
               std::to_string(expected[i][j]);
      }
    }
  }
  return "";
}

std::size_t min_squaring_rounds(std::uint64_t d) {
  std::size_t rounds = 0;
  while ((std::uint64_t{1} << rounds) < d) ++rounds;
  return rounds;
}

pqra::core::Value put_value(pqra::net::KeyId key, pqra::core::Timestamp ts) {
  return pqra::util::encode<std::int64_t>(
      static_cast<std::int64_t>((std::uint64_t{key} << 32) | ts));
}

pqra::core::Value initial_value() { return pqra::util::encode<std::int64_t>(0); }

bool ReadChecker::fail(std::string what) {
  if (first_error_.empty()) first_error_ = std::move(what);
  return false;
}

bool ReadChecker::on_get(std::size_t client, pqra::net::KeyId key,
                         pqra::core::Timestamp ts,
                         const pqra::core::Value& value,
                         pqra::core::Timestamp writer_ts) {
  auto where = [&] {
    return "client " + std::to_string(client) + " key " +
           std::to_string(key) + " ts " + std::to_string(ts);
  };
  if (ts > writer_ts) {
    return fail(where() + ": timestamp never written (writer is at " +
                std::to_string(writer_ts) + ")");
  }
  const pqra::core::Value expected =
      ts == 0 ? initial_value() : put_value(key, ts);
  if (value.bytes() != expected.bytes()) {
    return fail(where() + ": value differs from the one written at that ts");
  }
  pqra::core::Timestamp& last =
      last_read_[(static_cast<std::uint64_t>(client) << 32) | key];
  if (ts < last) {
    return fail(where() + ": went back from ts " + std::to_string(last));
  }
  last = ts;
  return true;
}

std::string codec_roundtrip_error(const pqra::explore::ScheduleProfile& profile,
                                  const std::string& text,
                                  pqra::explore::ScheduleProfile& parsed) {
  try {
    parsed = pqra::explore::ScheduleProfile::parse(text);
  } catch (const std::exception& e) {
    return std::string("parse failed: ") + e.what();
  }
  if (!(parsed == profile)) return "parsed profile differs from the original";
  if (parsed.serialize() != text) return "re-serialized text differs";
  return "";
}

namespace {

int expect_reject(const char* name, bool rejected) {
  std::printf("selftest %-40s %s\n", name,
              rejected ? "rejected (ok)" : "ACCEPTED (checker broken)");
  return rejected ? 0 : 1;
}

int expect_accept(const char* name, bool accepted) {
  std::printf("selftest %-40s %s\n", name,
              accepted ? "accepted (ok)" : "REJECTED (checker broken)");
  return accepted ? 0 : 1;
}

}  // namespace

int selftest() {
  int bad = 0;

  // fig2_apsp: the right rows pass, a row shifted by one place does not.
  const auto good = chain_distances(34);
  bad += expect_accept("apsp: correct chain distances",
                       compare_rows(good, good).empty());
  auto shifted = good;
  std::rotate(shifted[17].rbegin(), shifted[17].rbegin() + 1,
              shifted[17].rend());
  bad += expect_reject("apsp: shifted distance row",
                       !compare_rows(shifted, good).empty());
  bad += expect_accept("apsp: M = ceil(log2 33) = 6",
                       min_squaring_rounds(33) == 6);

  // store_zipf: fresh, stale, never-written and wrong-valued reads.
  {
    ReadChecker c;
    bool ok = c.on_get(0, 5, 0, initial_value(), 0);
    ok = ok && c.on_get(0, 5, 3, put_value(5, 3), 4);
    ok = ok && c.on_get(1, 5, 2, put_value(5, 2), 4);
    bad += expect_accept("store: fresh and initial reads", ok);
    bad += expect_reject("store: read goes back in timestamp",
                         !c.on_get(0, 5, 2, put_value(5, 2), 4));
  }
  {
    ReadChecker c;
    bad += expect_reject("store: never-written timestamp",
                         !c.on_get(0, 9, 7, put_value(9, 7), 4));
  }
  {
    ReadChecker c;
    bad += expect_reject("store: value of another timestamp",
                         !c.on_get(0, 9, 2, put_value(9, 3), 4));
  }
  {
    ReadChecker c;
    bad += expect_reject("store: value at ts 0 is not the initial one",
                         !c.on_get(0, 9, 0, put_value(9, 1), 4));
  }

  // explore_durable: an untouched profile text round-trips, an edited one
  // does not.
  {
    const auto profile = pqra::explore::ScheduleProfile::from_seed(11);
    const std::string text = profile.serialize();
    pqra::explore::ScheduleProfile parsed;
    bad += expect_accept("explore: profile text round-trips",
                         codec_roundtrip_error(profile, text, parsed).empty());
    std::string edited = text;
    const std::size_t at = edited.find("\nservers ");
    if (at != std::string::npos) {
      char& digit = edited[at + 9];  // "servers 5" -> "servers 6"
      digit = digit == '9' ? '8' : static_cast<char>(digit + 1);
    }
    bad += expect_reject("explore: edited profile text",
                         at != std::string::npos &&
                             !codec_roundtrip_error(profile, edited, parsed)
                                  .empty());
  }
  return bad;
}

}  // namespace perfbench
