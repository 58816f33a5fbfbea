/// \file main.cpp
/// pqra_perfbench: runs one workload for about --seconds seconds and prints
/// its metrics as the last line of standard output.
///
///   pqra_perfbench --workload fig2_apsp|store_zipf|explore_durable
///                  --seed N --seconds S --trace 0|1 [--smoke]
///                  [--spans-out FILE] [--jobs N] [--keys N]
///   pqra_perfbench --selftest
///
/// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
/// metrics of one traced pass, beside the wall of an untraced pass of the
/// same inputs (the tracing overhead).  See perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},
    {"unit_ms_p50", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.simulate_s", "s"},
    {"sim.events", "events"},
    {"sim.events_per_s", "events/s"},
    {"sim.queue_high_water", "events"},
    {"sim.event_heap_allocs", "allocs"},
    {"sim.runner_busy_ratio", "ratio"},
    {"net.messages_per_op", "msgs/op"},
    {"net.payload_bytes_per_op", "B/op"},
    {"quorum.pick_ns", "ns/call"},
    {"core.client_ops_per_s", "ops/s"},
    {"core.retries_per_op", "retries/op"},
    {"iter.rounds_mean", "rounds"},
    {"keyspace.group_lookup_ns", "ns/call"},
    {"spec.record_s", "s"},
    {"spec.check_s", "s"},
    {"explore.generate_s", "s"},
    {"explore.run_s", "s"},
    {"explore.codec_s", "s"},
    {"explore.events_per_schedule", "events"},
};

// Set-ups per run; setup_s is their median.  The first few run on cold
// caches and allocator (fig2_apsp's takes 410 us, then about 200 us,
// settling near 175 us by the tenth), so the median of 21 lands in the
// settled range.
constexpr int kSetups = 21;

int usage() {
  std::fprintf(stderr,
               "usage: pqra_perfbench --workload fig2_apsp|store_zipf|"
               "explore_durable --seed N --seconds S --trace 0|1 [--smoke] "
               "[--spans-out FILE] [--jobs N] [--keys N]\n"
               "       pqra_perfbench --selftest\n");
  return 2;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile of sorted \p v.
double percentile(const std::vector<double>& v, double p) {
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

/// Wall times of two fixed loops in the benchmark's own code, a reference
/// for how fast the host ran apart from the program: four independent
/// register-only chains, which need several execution ports per cycle and
/// so slow down when another thread shares the core, and a dependent walk
/// over a 4 MiB random cycle, which leaves the core's L2 and so feels
/// contention for the shared cache and memory.
struct HostReference {
  double alu_ms = 0.0;
  double mem_ms = 0.0;
};

HostReference host_reference() {
  HostReference ref;
  Clock::time_point t0 = Clock::now();
  std::uint64_t c[4] = {1, 2, 3, 4};
  for (int i = 0; i < 20000000; ++i) {
    for (std::uint64_t& x : c) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    asm volatile("" : "+r"(c[0]), "+r"(c[1]), "+r"(c[2]), "+r"(c[3]));
  }
  ref.alu_ms = seconds_between(t0, Clock::now()) * 1e3;
  std::uint64_t x = c[0] ^ c[1] ^ c[2] ^ c[3];

  // Sattolo's shuffle makes next[] a single cycle through every slot.
  std::vector<std::uint32_t> next(1u << 20);
  for (std::uint32_t i = 0; i < next.size(); ++i) next[i] = i;
  for (std::uint32_t i = static_cast<std::uint32_t>(next.size()) - 1; i > 0;
       --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  t0 = Clock::now();
  std::uint32_t at = 0;
  for (int i = 0; i < 4000000; ++i) {
    at = next[at];
    asm volatile("" : "+r"(at));
  }
  ref.mem_ms = seconds_between(t0, Clock::now()) * 1e3;
  return ref;
}

/// Host steal ticks so far (the 8th figure of /proc/stat's "cpu" line), or
/// -1 where the file is unreadable.
long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return -1;
  for (long long& x : v) {
    if (!(in >> x)) return -1;
  }
  return v[7];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::unique_ptr<Workload> make(const Options& opt, Tracer& tracer) {
  if (opt.workload == "fig2_apsp") return make_fig2_apsp(opt, tracer);
  if (opt.workload == "store_zipf") return make_store_zipf(opt, tracer);
  if (opt.workload == "explore_durable") {
    return make_explore_durable(opt, tracer);
  }
  return nullptr;
}

PassResult timed_pass(Workload& w, Tracer& tracer) {
  PassResult pass;
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope span(tracer, "pass");
    w.run_pass(tracer, span.id(), pass);
  }
  pass.wall_s = seconds_between(t0, Clock::now());
  return pass;
}

void print_units(const std::vector<double>& unit_ms) {
  std::vector<double> v = unit_ms;
  std::sort(v.begin(), v.end());
  std::printf("units: n=%zu p50=%.3f ms", v.size(), percentile(v, 50));
  // The highest percentile with at least ten samples beyond it.
  for (double p : {99.9, 99.0, 98.0, 95.0, 90.0}) {
    if (static_cast<double>(v.size()) * (1.0 - p / 100.0) >= 10.0) {
      std::printf(" p%g=%.3f ms", p, percentile(v, p));
      break;
    }
  }
  std::printf(" max=%.3f ms\n", v.back());
}

int run(const Options& opt, const std::string& spans_out) {
  Tracer off(false);
  Tracer tracer(opt.trace);
  const long long steal0 = steal_ticks();
  const HostReference ref_before = host_reference();

  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const Clock::time_point t0 = Clock::now();
    w = make(opt, tracer);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  std::vector<std::string> errors;
  if (std::string e = w->check_setup(); !e.empty()) errors.push_back(e);

  std::vector<PassResult> passes;
  double measured = 0.0;
  if (opt.trace) {
    passes.push_back(timed_pass(*w, off));
    passes.push_back(timed_pass(*w, tracer));
  } else {
    // Whole passes, another one only while it should end within --seconds.
    do {
      passes.push_back(timed_pass(*w, off));
      measured += passes.back().wall_s;
    } while (measured + measured / static_cast<double>(passes.size()) <=
             opt.seconds);
  }
  std::uint64_t attempted = 0, failed = 0, wrong = 0;
  std::vector<double> walls, unit_ms;
  for (const PassResult& p : passes) {
    attempted += p.unit_ms.size();
    failed += p.failed;
    wrong += p.wrong;
    walls.push_back(p.wall_s);
    unit_ms.insert(unit_ms.end(), p.unit_ms.begin(), p.unit_ms.end());
    if (!p.first_error.empty()) std::printf("failed: %s\n", p.first_error.c_str());
    if (p.digest != passes.front().digest) {
      errors.push_back("two passes over the same inputs ran different schedules");
    }
  }
  if (std::string e = w->recheck(); !e.empty()) errors.push_back(e);
  if (wrong != 0) {
    errors.push_back(std::to_string(wrong) + " unit(s) returned wrong output");
  }

  LayerValues layers;
  if (opt.trace) w->layer_values(tracer, passes.back(), layers);
  // Read before the closing reference loop, whose buffer is not the
  // workload's.
  const double rss_mb = peak_rss_mb();
  const HostReference ref_after = host_reference();
  const long long steal1 = steal_ticks();

  w->report(stdout);
  std::printf("passes: %zu, wall", passes.size());
  for (std::size_t i = 0; i < walls.size() && i < 8; ++i) {
    std::printf(" %.4f", walls[i]);
  }
  std::printf("%s s\n", walls.size() > 8 ? " ..." : "");
  print_units(unit_ms);
  std::printf("setup: median %.6f s of %d\n", median(setups), kSetups);
  std::printf("fingerprint: %016llx\n",
              static_cast<unsigned long long>(passes.front().digest));
  std::printf("host: reference loops alu %.2f / %.2f ms, mem %.2f / %.2f ms "
              "(before / after); steal %lld ticks over the run\n",
              ref_before.alu_ms, ref_after.alu_ms, ref_before.mem_ms,
              ref_after.mem_ms,
              steal0 >= 0 && steal1 >= 0 ? steal1 - steal0 : -1LL);
  for (const std::string& e : errors) std::printf("error: %s\n", e.c_str());

  std::string metrics;
  auto add = [&](const MetricSpec& m, double v) {
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + number(v) + ", \"unit\": \"" + m.unit +
               "\"}";
  };
  if (opt.trace) {
    const double overhead = passes[1].wall_s / passes[0].wall_s - 1.0;
    std::printf("trace: traced pass %.3f s, untraced %.3f s, overhead %.1f%%\n",
                passes[1].wall_s, passes[0].wall_s, 100.0 * overhead);
    for (const auto& [layer, s] : tracer.self_s()) {
      std::printf("self: %-18s %.6f s\n", layer.c_str(), s);
    }
    if (!spans_out.empty() && !tracer.write_jsonl(spans_out)) {
      std::fprintf(stderr, "cannot write %s\n", spans_out.c_str());
    }
    for (const MetricSpec& m : kPerLayer) {
      auto it = layers.find(m.name);
      add(m, it == layers.end() ? 0.0 : it->second);
    }
  } else {
    add(kEndToEnd[0], median(walls));
    add(kEndToEnd[1], median(unit_ms));
    add(kEndToEnd[2], median(setups));
    add(kEndToEnd[3], rss_mb);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string spans_out;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--selftest") {
        return perfbench::selftest() == 0 ? 0 : 1;
      } else if (arg == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--spans-out") {
        spans_out = value();
      } else if (arg == "--jobs") {
        opt.jobs = std::stoull(value());
        if (opt.jobs > 64) throw std::invalid_argument("--jobs is at most 64");
      } else if (arg == "--keys") {
        opt.keys = std::stoull(value());
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace ||
        !(opt.seconds > 0.0) ||
        (opt.workload != "fig2_apsp" && opt.workload != "store_zipf" &&
         opt.workload != "explore_durable")) {
      return perfbench::usage();
    }
    return perfbench::run(opt, spans_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pqra_perfbench: %s\n", e.what());
    return 2;
  }
}
