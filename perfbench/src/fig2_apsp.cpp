/// \file fig2_apsp.cpp
/// Workload fig2_apsp: the paper's Figure 2 sweep (§7).  APSP on the
/// 34-vertex unit chain, n = 34 replicas, probabilistic quorums k = 1..18,
/// {monotone, non-monotone} x {synchronous, exponential delays}, seven
/// seeded replications per cell, fanned out over sim::ParallelRunner.

#include <algorithm>
#include <cmath>

#include "apps/apsp.hpp"
#include "apps/graph.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "iter/alg1_des.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "quorum/probabilistic.hpp"
#include "sim/parallel_runner.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace pqra;

// A cap no replication at these sizes comes near (the slowest cell,
// non-monotone k = 1, averages about 80 rounds); a capped run counts as
// failed.
constexpr std::size_t kRoundCap = 20000;

struct Job {
  std::size_t k = 0;
  bool monotone = false;
  bool synchronous = false;
  std::uint64_t seed = 0;
};

struct Outcome {
  bool converged = false;
  std::size_t rounds = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t retries = 0;
  // Traced passes only (from the replication's obs::Registry).
  std::uint64_t ops = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t heap_allocs = 0;
  double queue_high_water = 0.0;
};

class Fig2Apsp final : public Workload {
 public:
  Fig2Apsp(const Options& opt, Tracer& tracer)
      : n_(opt.smoke ? 12 : 34),
        runs_per_cell_(opt.smoke ? 1 : 7),
        seed_(opt.seed) {
    Tracer::Scope span(tracer, "setup");
    op_ = std::make_unique<apps::ApspOperator>(apps::make_chain(n_));
    const std::size_t k_max = opt.smoke ? 7 : n_ / 2 + 1;
    for (std::size_t k = 1; k <= k_max; ++k) {
      quorums_.push_back(std::make_unique<quorum::ProbabilisticQuorums>(n_, k));
    }
    util::Rng seeds(opt.seed);
    for (std::size_t k = 1; k <= k_max; ++k) {
      for (int cfg = 0; cfg < 4; ++cfg) {
        for (std::size_t r = 0; r < runs_per_cell_; ++r) {
          jobs_.push_back(Job{k, cfg < 2, cfg % 2 == 0, seeds()});
        }
      }
    }
    // Three workers, leaving a core of a 4-vCPU host to the rest of the
    // machine; never fewer than two, so in-process scaling shows.
    // ParallelRunner starts its threads on the first batch, so the pass,
    // not the set-up, pays for them, as it does for any caller.
    const std::size_t workers =
        opt.jobs != 0 ? opt.jobs
                      : std::clamp<std::size_t>(sim::default_jobs(), 2, 3);
    pool_ = std::make_unique<sim::ParallelRunner>(workers);
    last_.resize(jobs_.size());
  }

  std::string check_setup() const override {
    const auto expected = chain_distances(n_);
    std::vector<std::vector<std::int64_t>> rows;
    for (std::size_t i = 0; i < n_; ++i) {
      rows.push_back(
          util::decode<std::vector<std::int64_t>>(op_->fixed_point(i).bytes()));
    }
    const std::string diff = compare_rows(rows, expected);
    return diff.empty() ? "" : "ApspOperator fixed point: " + diff;
  }

  void run_pass(Tracer& tracer, std::uint64_t pass_span,
                PassResult& out) override {
    out.unit_ms.assign(jobs_.size(), 0.0);
    const std::size_t min_rounds = min_squaring_rounds(n_ - 1);
    std::vector<std::string> errors(jobs_.size());
    std::vector<char> wrong(jobs_.size(), 0);
    pool_->for_each_index(jobs_.size(), [&](std::size_t i) {
      const Clock::time_point t0 = Clock::now();
      Tracer::Scope unit(tracer, "unit", pass_span);
      const Job& job = jobs_[i];
      iter::Alg1Options options = options_for(job);
      std::unique_ptr<obs::Registry> registry;
      if (tracer.enabled()) {
        registry = std::make_unique<obs::Registry>();
        options.metrics = registry.get();
      }
      iter::Alg1Result r;
      {
        Tracer::Scope call(tracer, "iter");
        r = iter::run_alg1(*op_, options);
      }
      Outcome& o = last_[i];
      o.converged = r.converged;
      o.rounds = r.rounds;
      o.fingerprint = r.fingerprint;
      o.events = r.events_processed;
      o.messages = r.messages.total;
      o.retries = r.retries;
      if (registry) {
        namespace n = obs::names;
        o.ops = registry->counter(n::kClientReads).value() +
                registry->counter(n::kClientWrites).value();
        o.payload_bytes = registry->counter(n::kTransportPayloadBytes).value();
        o.heap_allocs = registry->counter(n::kSimEventHeapAllocs).value();
        o.queue_high_water =
            registry->gauge(n::kSimHeapHighWater, "", obs::GaugeMerge::kMax)
                .value();
      }
      auto name = [&] {
        return "k=" + std::to_string(job.k) +
               (job.monotone ? " monotone" : " plain") +
               (job.synchronous ? " sync" : " async");
      };
      if (!r.converged) {
        errors[i] = name() + ": no convergence within the round cap";
      } else if (job.synchronous && r.rounds < min_rounds) {
        errors[i] = name() + ": converged in " + std::to_string(r.rounds) +
                    " synchronous rounds, fewer than min-plus squaring needs";
        wrong[i] = 1;
      }
      out.unit_ms[i] = seconds_between(t0, Clock::now()) * 1e3;
    });
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      out.fold(last_[i].fingerprint);
      out.fold(last_[i].events);
      if (!errors[i].empty()) out.fail(wrong[i] != 0, errors[i]);
    }
  }

  std::string recheck() override {
    // The first and last replication of the pass, re-run on this thread.
    for (std::size_t i : {std::size_t{0}, jobs_.size() - 1}) {
      const iter::Alg1Result r = iter::run_alg1(*op_, options_for(jobs_[i]));
      if (r.fingerprint != last_[i].fingerprint ||
          r.events_processed != last_[i].events) {
        return "replication " + std::to_string(i) +
               " did not repeat its schedule";
      }
    }
    return "";
  }

  void layer_values(Tracer& tracer, const PassResult& pass,
                    LayerValues& out) override {
    std::uint64_t events = 0, messages = 0, retries = 0, ops = 0, bytes = 0,
                  allocs = 0;
    double high_water = 0.0, rounds = 0.0;
    for (const Outcome& o : last_) {
      events += o.events;
      messages += o.messages;
      retries += o.retries;
      ops += o.ops;
      bytes += o.payload_bytes;
      allocs += o.heap_allocs;
      high_water = std::max(high_water, o.queue_high_water);
      rounds += static_cast<double>(o.rounds);
    }
    const double iter_s = tracer.total_s("iter");
    double unit_s = 0.0;
    for (double ms : pass.unit_ms) unit_s += ms * 1e-3;
    out["sim.events"] = static_cast<double>(events);
    out["sim.events_per_s"] = static_cast<double>(events) / iter_s;
    out["sim.queue_high_water"] = high_water;
    out["sim.event_heap_allocs"] = static_cast<double>(allocs);
    out["sim.runner_busy_ratio"] =
        unit_s / (static_cast<double>(pool_->jobs()) * pass.wall_s);
    out["net.messages_per_op"] =
        static_cast<double>(messages) / static_cast<double>(ops);
    out["net.payload_bytes_per_op"] =
        static_cast<double>(bytes) / static_cast<double>(ops);
    out["core.client_ops_per_s"] = static_cast<double>(ops) / iter_s;
    out["core.retries_per_op"] =
        static_cast<double>(retries) / static_cast<double>(ops);
    out["iter.rounds_mean"] = rounds / static_cast<double>(last_.size());

    // QuorumSystem::pick on each of the sweep's (n, k), as the replicas'
    // clients call it.
    util::Rng rng(seed_ ^ 0x7069636bULL);
    std::vector<quorum::ServerId> picked;
    const std::size_t per_k = 20000;
    double ns = 0.0;
    for (const auto& qs : quorums_) {
      ns += time_per_call_ns(tracer, "quorum.pick", per_k, [&](std::size_t) {
        qs->pick(quorum::AccessKind::kRead, rng, picked);
      });
    }
    out["quorum.pick_ns"] = ns / static_cast<double>(quorums_.size());
  }

  void report(std::FILE* f) const override {
    std::uint64_t events = 0;
    for (const Outcome& o : last_) events += o.events;
    std::fprintf(f,
                 "fig2_apsp: APSP on a %zu-vertex chain, n = %zu replicas, "
                 "k = 1..%zu, %zu runs per cell, %zu workers, M = %zu; "
                 "%llu events in the last pass\n",
                 n_, n_, quorums_.size(), runs_per_cell_, pool_->jobs(),
                 min_squaring_rounds(n_ - 1),
                 static_cast<unsigned long long>(events));
    std::fprintf(f, "fig2: %4s %10s %10s %10s %10s %10s\n", "k", "cor7_bound",
                 "mono_sync", "mono_async", "plain_sync", "plain_async");
    const double m = static_cast<double>(min_squaring_rounds(n_ - 1));
    for (std::size_t k = 1; k <= quorums_.size(); ++k) {
      // Corollary 7: M / (1 - ((n - k) / n)^k) rounds.
      const double miss = std::pow(static_cast<double>(n_ - k) /
                                       static_cast<double>(n_),
                                   static_cast<double>(k));
      std::fprintf(f, "fig2: %4zu %10.2f", k, m / (1.0 - miss));
      for (int cfg = 0; cfg < 4; ++cfg) {
        double sum = 0.0;
        std::size_t count = 0;
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
          const Job& j = jobs_[i];
          if (j.k == k && j.monotone == (cfg < 2) &&
              j.synchronous == (cfg % 2 == 0)) {
            sum += static_cast<double>(last_[i].rounds);
            ++count;
          }
        }
        std::fprintf(f, " %10.2f", count ? sum / static_cast<double>(count)
                                         : 0.0);
      }
      std::fprintf(f, "\n");
    }
  }

 private:
  iter::Alg1Options options_for(const Job& job) const {
    iter::Alg1Options options;
    options.quorums = quorums_[job.k - 1].get();
    options.monotone = job.monotone;
    options.synchronous = job.synchronous;
    options.round_cap = kRoundCap;
    options.seed = job.seed;
    return options;
  }

  const std::size_t n_;
  const std::size_t runs_per_cell_;
  const std::uint64_t seed_;
  std::unique_ptr<apps::ApspOperator> op_;
  std::vector<std::unique_ptr<quorum::ProbabilisticQuorums>> quorums_;
  std::vector<Job> jobs_;
  std::unique_ptr<sim::ParallelRunner> pool_;
  std::vector<Outcome> last_;
};

}  // namespace

std::unique_ptr<Workload> make_fig2_apsp(const Options& opt, Tracer& tracer) {
  return std::make_unique<Fig2Apsp>(opt, tracer);
}

}  // namespace perfbench
