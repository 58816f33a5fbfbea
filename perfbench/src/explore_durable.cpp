/// \file explore_durable.cpp
/// Workload explore_durable: the pqra_explore sweep over a seed range with
/// every register profile made durable, as `pqra_explore --force-durable`
/// does: durable replicas, a checkpoint cadence, at least one crash →
/// recover and storage faults.  Each schedule's profile text goes through
/// serialize → parse → serialize, and the parsed profile runs through
/// run_profile, judged by the spec checkers, the probes and the
/// crash-replay-compare oracle.  One thread.

#include <set>
#include <utility>

#include "bench.hpp"
#include "checks.hpp"
#include "explore/profile.hpp"
#include "explore/runner.hpp"
#include "net/fault_plan.hpp"
#include "quorum/probabilistic.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace pqra;
using explore::ScheduleProfile;

/// pqra_explore's --force-durable transform (tools/explore/pqra_explore.cpp),
/// a pure function of the profile's seed on stream 4.  Alg. 1 profiles stay
/// as they are: the iterative scenario owns its replica layout.
ScheduleProfile force_durable(ScheduleProfile p) {
  if (p.alg1) return p;
  util::Rng d = util::Rng(p.seed).fork(4);
  p.durable = true;
  p.snapshot_every = std::size_t{4} << d.below(5);  // 4..64
  const std::size_t fault_keys = p.keys_per_client > 1 ? p.num_keys() : 0;
  const std::size_t extra = static_cast<std::size_t>(d.below(3));
  for (std::size_t i = 0; i < 1 + extra; ++i) {
    const std::size_t before = p.faults.events().size();
    while (p.faults.events().size() == before) {
      net::FaultPlan probe = p.faults;
      probe.mutate(p.num_servers, p.horizon, d, fault_keys,
                   /*durability=*/true);
      if (probe.events().size() > before &&
          (probe.events().back().kind == net::FaultKind::kTornWrite ||
           probe.events().back().kind == net::FaultKind::kFsyncLoss ||
           probe.events().back().kind == net::FaultKind::kClearFsyncLoss)) {
        p.faults = std::move(probe);
      }
    }
  }
  return p;
}

struct Outcome {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  std::size_t ops_checked = 0;
};

class ExploreDurable final : public Workload {
 public:
  ExploreDurable(const Options& opt, Tracer& tracer)
      : count_(opt.smoke ? 40 : 4000), run_seed_shift_(opt.seed * 1000003) {
    Tracer::Scope span(tracer, "setup");
    Tracer::Scope generate(tracer, "explore.generate");
    profiles_.reserve(count_);
    for (std::size_t i = 0; i < count_; ++i) {
      // The sweep's shapes are those of pqra_explore --seed-range 0:count
      // --force-durable; --seed moves each one's execution seed (message
      // delays, quorum draws, client choices), so every workload seed
      // explores new schedules of the same shapes.  Seed 0 is that sweep.
      ScheduleProfile p = force_durable(ScheduleProfile::from_seed(i));
      p.seed += run_seed_shift_;
      profiles_.push_back(std::move(p));
    }
    last_.resize(count_);
  }

  void run_pass(Tracer& tracer, std::uint64_t /*pass_span*/,
                PassResult& out) override {
    out.unit_ms.assign(count_, 0.0);
    ScheduleProfile parsed;
    for (std::size_t i = 0; i < count_; ++i) {
      const Clock::time_point t0 = Clock::now();
      Tracer::Scope unit(tracer, "unit");
      const ScheduleProfile& profile = profiles_[i];
      std::string codec_error;
      {
        Tracer::Scope span(tracer, "explore.codec");
        codec_error =
            codec_roundtrip_error(profile, profile.serialize(), parsed);
      }
      auto name = [&] { return "seed " + std::to_string(profile.seed); };
      if (!codec_error.empty()) {
        out.fail(true, name() + ": " + codec_error);
        last_[i] = Outcome{};
      } else {
        explore::RunOutcome r;
        {
          Tracer::Scope span(tracer, "explore.run");
          r = explore::run_profile(parsed);
        }
        last_[i] = Outcome{r.fingerprint, r.events_processed, r.ops_checked};
        if (r.violation) {
          out.fail(true, name() + ": " + r.rule + " " + r.detail);
        }
      }
      out.fold(last_[i].fingerprint);
      out.fold(last_[i].events);
      out.unit_ms[i] = seconds_between(t0, Clock::now()) * 1e3;
    }
  }

  std::string recheck() override {
    // Sixteen schedules spread over the range, re-run from their profiles.
    const std::size_t step = count_ >= 16 ? count_ / 16 : 1;
    for (std::size_t i = 0; i < count_; i += step) {
      const explore::RunOutcome r = explore::run_profile(profiles_[i]);
      if (r.fingerprint != last_[i].fingerprint ||
          r.events_processed != last_[i].events) {
        return "seed " + std::to_string(profiles_[i].seed) +
               " did not repeat its schedule";
      }
    }
    return "";
  }

  void layer_values(Tracer& tracer, const PassResult& pass,
                    LayerValues& out) override {
    std::uint64_t events = 0, ops = 0;
    for (const Outcome& o : last_) {
      events += o.events;
      ops += o.ops_checked;
    }
    const double run_s = tracer.total_s("explore.run");
    double unit_s = 0.0;
    for (double ms : pass.unit_ms) unit_s += ms * 1e-3;
    out["sim.events"] = static_cast<double>(events);
    out["sim.events_per_s"] = static_cast<double>(events) / run_s;
    out["sim.runner_busy_ratio"] = unit_s / pass.wall_s;
    out["core.client_ops_per_s"] = static_cast<double>(ops) / run_s;
    out["explore.generate_s"] =
        tracer.total_s("explore.generate") /
        static_cast<double>(tracer.count("explore.generate"));
    out["explore.run_s"] = run_s;
    out["explore.codec_s"] = tracer.total_s("explore.codec");
    out["explore.events_per_schedule"] =
        static_cast<double>(events) / static_cast<double>(count_);

    // QuorumSystem::pick on each distinct (n, k) the profiles drew.
    std::set<std::pair<std::size_t, std::size_t>> shapes;
    for (const ScheduleProfile& p : profiles_) {
      shapes.emplace(p.replicas > 0 ? p.replicas : p.num_servers,
                     p.quorum_size);
    }
    util::Rng rng(run_seed_shift_ ^ 0x7069636bULL);
    std::vector<quorum::ServerId> picked;
    double ns = 0.0;
    for (const auto& [n, k] : shapes) {
      const quorum::ProbabilisticQuorums qs(n, k);
      ns += time_per_call_ns(tracer, "quorum.pick", 2000, [&](std::size_t) {
        qs.pick(quorum::AccessKind::kRead, rng, picked);
      });
    }
    out["quorum.pick_ns"] = ns / static_cast<double>(shapes.size());
  }

  void report(std::FILE* f) const override {
    std::size_t durable = 0, alg1 = 0, faults = 0;
    std::uint64_t events = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      durable += profiles_[i].durable ? 1 : 0;
      alg1 += profiles_[i].alg1 ? 1 : 0;
      faults += profiles_[i].faults.events().size();
      events += last_[i].events;
    }
    std::fprintf(f,
                 "explore_durable: shapes of seeds 0..%zu, execution seeds "
                 "shifted by %llu (%zu schedules: %zu durable, %zu Alg. 1), "
                 "%zu fault events, 1 thread; %llu events in the last pass\n",
                 count_ - 1, static_cast<unsigned long long>(run_seed_shift_),
                 count_, durable, alg1, faults,
                 static_cast<unsigned long long>(events));
  }

 private:
  const std::size_t count_;
  const std::uint64_t run_seed_shift_;
  std::vector<ScheduleProfile> profiles_;
  std::vector<Outcome> last_;
};

}  // namespace

std::unique_ptr<Workload> make_explore_durable(const Options& opt,
                                               Tracer& tracer) {
  return std::make_unique<ExploreDurable>(opt, tracer);
}

}  // namespace perfbench
