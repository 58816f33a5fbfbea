/// \file store_zipf.cpp
/// Workload store_zipf: the sharded register store at 10⁶ keys.  64 clients
/// and 32 servers, replica groups of 3 on a consistent-hash ring, k = 2;
/// Zipf-skewed gets (theta 0.8) and 40% puts to owned keys, exponential
/// delays of mean 1, no faults, one thread.  Each run records its history
/// (one initial record per key) and checks it per key.

#include <algorithm>
#include <deque>

#include "bench.hpp"
#include "checks.hpp"
#include "core/keyspace/hash_ring.hpp"
#include "core/keyspace/sharded_store.hpp"
#include "core/server_process.hpp"
#include "core/spec/batch.hpp"
#include "core/spec/history.hpp"
#include "net/sim_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "quorum/probabilistic.hpp"
#include "sim/delay_model.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace perfbench {

namespace {

using namespace pqra;
using core::keyspace::ShardedStoreClient;

struct Shape {
  std::size_t keys = 1000000;
  std::size_t clients = 64;
  std::size_t servers = 32;
  std::size_t replicas = 3;
  std::size_t k = 2;
  std::size_t vnodes = 16;
  double theta = 0.8;
  double put_share = 0.4;
  std::size_t ops_per_client = 500;
  std::size_t runs = 50;  ///< store runs per pass
};

/// The figures one run leaves behind.
struct RunFigures {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  std::size_t queue_high_water = 0;
  std::uint64_t heap_allocs = 0;
  // Traced runs only (from the run's obs::Registry).
  std::uint64_t ops = 0;
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t retries = 0;
};

/// What a run's own completion callbacks found.
struct Verdict {
  std::string error;
  bool wrong = false;  ///< a completed op returned a wrong answer
  std::size_t completed = 0;

  void fail(std::string what, bool wrong_output) {
    wrong = wrong || wrong_output;
    if (error.empty()) error = std::move(what);
  }
};

/// One client's closed loop: think time, then a put on an owned key or a
/// Zipf-skewed get, the next op issued from the previous op's completion.
/// Every completion is checked on arrival.
class ClientLoop {
 public:
  ClientLoop(sim::Simulator& simulator, std::deque<ShardedStoreClient>& all,
             std::size_t self, util::Rng rng, const Shape& shape,
             const util::Zipfian& zipf, ReadChecker& checker,
             Verdict& verdict)
      : simulator_(simulator),
        all_(all),
        self_(self),
        rng_(std::move(rng)),
        shape_(shape),
        zipf_(zipf),
        checker_(checker),
        verdict_(verdict),
        remaining_(shape.ops_per_client) {}

  void start() { next(); }

 private:
  void next() {
    if (remaining_ == 0) return;
    --remaining_;
    simulator_.schedule_in(rng_.uniform01() * 2.0, sim::EventTag::kWorkload,
                           [this] { issue(); });
  }

  void issue() {
    ShardedStoreClient& me = all_[self_];
    const std::size_t per_client = shape_.keys / shape_.clients;
    if (rng_.bernoulli(shape_.put_share)) {
      // Key slot * clients + self: each key has exactly one writer.
      const auto key = static_cast<net::KeyId>(
          rng_.below(per_client) * shape_.clients + self_);
      const core::Timestamp ts = me.last_written_ts(key) + 1;
      me.put(key, put_value(key, ts), [this](core::WriteResult r) {
        if (r.status != core::OpStatus::kOk) {
          verdict_.fail("a put did not complete", false);
        }
        ++verdict_.completed;
        next();
      });
      if (me.last_written_ts(key) != ts) {
        verdict_.fail("a put took an unexpected timestamp", true);
      }
    } else {
      const auto key = static_cast<net::KeyId>(zipf_.draw(rng_));
      me.get(key, [this, key](core::ReadResult r) {
        if (r.status != core::OpStatus::kOk) {
          verdict_.fail("a get did not complete", false);
        } else if (!checker_.on_get(
                       self_, key, r.ts, r.value,
                       all_[key % shape_.clients].last_written_ts(key))) {
          verdict_.fail(checker_.first_error(), true);
        }
        ++verdict_.completed;
        next();
      });
    }
  }

  sim::Simulator& simulator_;
  std::deque<ShardedStoreClient>& all_;
  const std::size_t self_;
  util::Rng rng_;
  const Shape& shape_;
  const util::Zipfian& zipf_;
  ReadChecker& checker_;
  Verdict& verdict_;
  std::size_t remaining_;
};

class StoreZipf final : public Workload {
 public:
  StoreZipf(const Options& opt, Tracer& tracer) : seed_(opt.seed) {
    if (opt.smoke) {
      shape_.keys = 10000;
      shape_.clients = 8;
      shape_.servers = 8;
      shape_.ops_per_client = 20;
      shape_.runs = 3;
    }
    if (opt.keys != 0) shape_.keys = opt.keys;
    // Whole slots per client, so slot * clients + owner covers the keys.
    shape_.keys = (shape_.keys + shape_.clients - 1) / shape_.clients *
                  shape_.clients;
    Tracer::Scope span(tracer, "setup");
    ring_ = std::make_unique<core::keyspace::HashRing>(shape_.vnodes);
    for (std::size_t s = 0; s < shape_.servers; ++s) {
      ring_->add_node(static_cast<net::NodeId>(s));
    }
    quorums_ =
        std::make_unique<quorum::ProbabilisticQuorums>(shape_.replicas, shape_.k);
    zipf_ = std::make_unique<util::Zipfian>(shape_.keys, shape_.theta);
    util::Rng seeds(opt.seed);
    for (std::size_t r = 0; r < shape_.runs; ++r) run_seeds_.push_back(seeds());
    last_.resize(shape_.runs);
  }

  void run_pass(Tracer& tracer, std::uint64_t /*pass_span*/,
                PassResult& out) override {
    out.unit_ms.assign(shape_.runs, 0.0);
    for (std::size_t r = 0; r < shape_.runs; ++r) {
      const Clock::time_point t0 = Clock::now();
      Tracer::Scope unit(tracer, "unit");
      Verdict verdict;
      last_[r] = run_once(tracer, run_seeds_[r], verdict);
      out.fold(last_[r].fingerprint);
      out.fold(last_[r].events);
      if (!verdict.error.empty()) {
        out.fail(verdict.wrong, "run " + std::to_string(r) + ": " +
                                    verdict.error);
      }
      out.unit_ms[r] = seconds_between(t0, Clock::now()) * 1e3;
    }
  }

  std::string recheck() override {
    Tracer off(false);
    Verdict verdict;
    const RunFigures again = run_once(off, run_seeds_[0], verdict);
    if (again.fingerprint != last_[0].fingerprint ||
        again.events != last_[0].events) {
      return "store run 0 did not repeat its schedule";
    }
    return "";
  }

  void layer_values(Tracer& tracer, const PassResult& pass,
                    LayerValues& out) override {
    RunFigures sum;
    std::size_t high_water = 0;
    for (const RunFigures& f : last_) {
      sum.events += f.events;
      sum.heap_allocs += f.heap_allocs;
      sum.ops += f.ops;
      sum.messages += f.messages;
      sum.payload_bytes += f.payload_bytes;
      sum.retries += f.retries;
      high_water = std::max(high_water, f.queue_high_water);
    }
    const double simulate_s = tracer.total_s("sim");
    double unit_s = 0.0;
    for (double ms : pass.unit_ms) unit_s += ms * 1e-3;
    const auto ops = static_cast<double>(sum.ops);
    out["sim.simulate_s"] = simulate_s;
    out["sim.events"] = static_cast<double>(sum.events);
    out["sim.events_per_s"] = static_cast<double>(sum.events) / simulate_s;
    out["sim.queue_high_water"] = static_cast<double>(high_water);
    out["sim.event_heap_allocs"] = static_cast<double>(sum.heap_allocs);
    out["sim.runner_busy_ratio"] = unit_s / pass.wall_s;
    out["net.messages_per_op"] = static_cast<double>(sum.messages) / ops;
    out["net.payload_bytes_per_op"] =
        static_cast<double>(sum.payload_bytes) / ops;
    out["core.client_ops_per_s"] = ops / simulate_s;
    out["core.retries_per_op"] = static_cast<double>(sum.retries) / ops;
    out["spec.record_s"] = tracer.total_s("spec.record");
    out["spec.check_s"] = tracer.total_s("spec.check");

    // QuorumSystem::pick on the store's (n, k) = (group size, k), and
    // HashRing::replica_group over the workload's own key stream.
    util::Rng rng(seed_ ^ 0x7069636bULL);
    std::vector<quorum::ServerId> picked;
    out["quorum.pick_ns"] = time_per_call_ns(
        tracer, "quorum.pick", 200000, [&](std::size_t) {
          quorums_->pick(quorum::AccessKind::kRead, rng, picked);
        });
    const std::size_t per_client = shape_.keys / shape_.clients;
    std::vector<net::KeyId> keys(std::min<std::size_t>(shape_.keys, 1000000));
    for (net::KeyId& key : keys) {
      key = static_cast<net::KeyId>(
          rng.bernoulli(shape_.put_share)
              ? rng.below(per_client) * shape_.clients +
                    rng.below(shape_.clients)
              : zipf_->draw(rng));
    }
    std::vector<net::NodeId> group;
    group.reserve(shape_.replicas);
    out["keyspace.group_lookup_ns"] = time_per_call_ns(
        tracer, "keyspace.lookup", keys.size(), [&](std::size_t i) {
          ring_->replica_group(keys[i], shape_.replicas, group);
        });
  }

  void report(std::FILE* f) const override {
    std::fprintf(f,
                 "store_zipf: %zu keys, theta %.2f, %zu clients x %zu ops, "
                 "%zu servers, groups of %zu, k = %zu, %zu vnodes, "
                 "%.0f%% puts, %zu runs per pass, 1 thread\n",
                 shape_.keys, shape_.theta, shape_.clients,
                 shape_.ops_per_client, shape_.servers, shape_.replicas,
                 shape_.k, shape_.vnodes, shape_.put_share * 100.0,
                 shape_.runs);
  }

 private:
  RunFigures run_once(Tracer& tracer, std::uint64_t run_seed,
                      Verdict& verdict) {
    RunFigures fig;
    util::Rng master(run_seed);
    std::unique_ptr<obs::Registry> registry;
    if (tracer.enabled()) registry = std::make_unique<obs::Registry>();

    sim::Simulator simulator;
    std::unique_ptr<sim::DelayModel> delays = sim::make_exponential_delay(1.0);
    net::SimTransport transport(
        simulator, *delays, master.fork(10),
        static_cast<net::NodeId>(shape_.servers + shape_.clients));
    if (registry) transport.bind_metrics(*registry);
    std::deque<core::ServerProcess> servers;
    // Only written keys materialize replica entries; size each replica
    // for its share of the run's puts, as experiment_cli's store app does.
    const std::size_t issued = shape_.clients * shape_.ops_per_client;
    const std::size_t per_server =
        std::min(shape_.keys, issued) * shape_.replicas / shape_.servers + 16;
    for (std::size_t s = 0; s < shape_.servers; ++s) {
      servers.emplace_back(transport, static_cast<net::NodeId>(s),
                           registry.get());
      servers.back().replica().set_default_initial(initial_value());
      servers.back().replica().reserve(per_server);
    }

    core::spec::HistoryRecorder history;
    {
      Tracer::Scope span(tracer, "spec.record");
      history.reserve(shape_.keys + issued);
      for (std::size_t key = 0; key < shape_.keys; ++key) {
        history.record_initial(static_cast<net::KeyId>(key));
      }
    }

    core::keyspace::ShardedStoreOptions sopts;
    sopts.client.monotone = true;
    sopts.client.metrics = registry.get();
    sopts.client.retry.rpc_timeout = 6.0;
    sopts.client.retry.backoff_factor = 1.5;
    sopts.client.retry.max_backoff = 24.0;
    sopts.client.retry.jitter = 0.1;
    std::deque<ShardedStoreClient> clients;
    for (std::size_t i = 0; i < shape_.clients; ++i) {
      clients.emplace_back(simulator, transport,
                           static_cast<net::NodeId>(shape_.servers + i), *ring_,
                           *quorums_, master.fork(500 + i), sopts, &history);
    }
    ReadChecker checker;
    std::deque<ClientLoop> loops;
    for (std::size_t i = 0; i < shape_.clients; ++i) {
      loops.emplace_back(simulator, clients, i, master.fork(900 + i), shape_,
                         *zipf_, checker, verdict);
    }
    for (ClientLoop& loop : loops) loop.start();
    {
      Tracer::Scope span(tracer, "sim");
      simulator.run_until(1e9);
    }
    fig.fingerprint = simulator.fingerprint();
    fig.events = simulator.events_processed();
    fig.queue_high_water = simulator.queue_high_water();
    fig.heap_allocs = simulator.alloc_stats().heap_allocations();
    if (verdict.completed != issued) {
      verdict.fail(std::to_string(issued - verdict.completed) +
                       " ops never completed",
                   false);
    }

    core::spec::BatchOptions bo;
    bo.r4 = true;  // monotone clients
    core::spec::KeyedBatchResult batch;
    {
      Tracer::Scope span(tracer, "spec.check");
      batch = core::spec::check_batch_by_key(history.ops(), bo);
    }
    if (!batch.ok()) verdict.fail("spec check: " + batch.summary(), true);
    if (registry) {
      namespace n = obs::names;
      fig.ops = registry->counter(n::kStoreGets).value() +
                registry->counter(n::kStorePuts).value();
      fig.messages = registry->counter(n::kTransportMessages).value();
      fig.payload_bytes = registry->counter(n::kTransportPayloadBytes).value();
      fig.retries = registry->counter(n::kClientRetries).value();
    }
    return fig;
  }

  Shape shape_;
  const std::uint64_t seed_;
  std::unique_ptr<core::keyspace::HashRing> ring_;
  std::unique_ptr<quorum::ProbabilisticQuorums> quorums_;
  std::unique_ptr<util::Zipfian> zipf_;
  std::vector<std::uint64_t> run_seeds_;
  std::vector<RunFigures> last_;
};

}  // namespace

std::unique_ptr<Workload> make_store_zipf(const Options& opt, Tracer& tracer) {
  return std::make_unique<StoreZipf>(opt, tracer);
}

}  // namespace perfbench
