#include "workloads.h"

#include <sys/stat.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <utility>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/run_metrics.h"
#include "agg/runner.h"
#include "agg/shard/sharded.h"
#include "crypto/cipher.h"
#include "crypto/ctr.h"
#include "crypto/key.h"
#include "crypto/stats.h"
#include "exp/agg_store.h"
#include "exp/engine.h"
#include "exp/resilient.h"
#include "fault/churn_injector.h"
#include "fault/fault_injector.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "stats/pao.h"
#include "util/random.h"

namespace roundbench {
namespace {

using namespace ipda;  // NOLINT(build/namespaces)

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<uint64_t> SeedPool(uint64_t base, size_t count) {
  std::vector<uint64_t> pool;
  for (size_t i = 1; i <= count; ++i) pool.push_back(base + i);
  return pool;
}

// The paper's §IV setup: N sensors in 400x400 m, 50 m range, 1 Mbps.
agg::RunConfig PaperConfig(size_t nodes) {
  agg::RunConfig config;
  config.deployment.area = net::Area{400.0, 400.0};
  config.deployment.node_count = nodes;
  config.range = 50.0;
  config.phy.data_rate_bps = 1e6;
  return config;
}

// iPDA with l = 2 slices, slice noise matched to COUNT's unit domain.
agg::IpdaConfig PaperIpda() {
  agg::IpdaConfig config;
  config.slice_count = 2;
  config.slice_range = 1.0;
  return config;
}

agg::Vector TrueTotal(const agg::AggregateFunction& function,
                      const std::vector<double>& readings) {
  agg::Vector total(function.arity(), 0.0);
  for (size_t id = 1; id < readings.size(); ++id) {
    agg::AddInto(total, function.Contribution(readings[id]));
  }
  return total;
}

Outcome MakeOutcome(const agg::AggregateFunction& function,
                    const agg::IntegrityDecision& decision,
                    const agg::Vector& true_acc, double result,
                    double accuracy, bool degraded, uint64_t participants,
                    uint64_t bytes_sent) {
  Outcome o;
  o.result = result;
  o.truth = function.Finalize(true_acc);
  o.accuracy = accuracy;
  o.red = decision.acc_red.empty() ? 0.0 : decision.acc_red[0];
  o.blue = decision.acc_blue.empty() ? 0.0 : decision.acc_blue[0];
  o.accepted = decision.accepted;
  o.degraded = degraded;
  o.participants = participants;
  o.bytes_sent = bytes_sent;
  return o;
}

void AppendField(std::string& out, const char* name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%.17g", name, value);
  out += buf;
}

void AppendVector(std::string& out, const char* name,
                  const agg::Vector& v) {
  for (double x : v) AppendField(out, name, x);
}

std::string StatsDigest(const agg::IpdaStats& s) {
  std::string out;
  const std::pair<const char*, size_t> counts[] = {
      {"covered_both", s.covered_both},
      {"red_aggregators", s.red_aggregators},
      {"blue_aggregators", s.blue_aggregators},
      {"leaves", s.leaves},
      {"undecided", s.undecided},
      {"excluded", s.excluded},
      {"participants", s.participants},
      {"slices_sent", s.slices_sent},
      {"slice_decrypt_failures", s.slice_decrypt_failures},
      {"reports_sent", s.reports_sent},
      {"slices_retargeted", s.slices_retargeted},
      {"slices_lost", s.slices_lost},
      {"reports_rerouted", s.reports_rerouted},
      {"orphaned_partials", s.orphaned_partials},
      {"late_partials", s.late_partials},
      {"joins_absorbed", s.joins_absorbed},
      {"grafts", s.grafts},
      {"disjoint_violations", s.disjoint_violations},
      {"backoff_retries", s.backoff_retries},
      {"repair_budget_exhausted", s.repair_budget_exhausted},
      {"relay_forwards", s.relay_forwards},
      {"relays_lost", s.relays_lost},
      {"rebuild_floods", s.rebuild_floods},
      {"churn_control_msgs", s.churn_control_msgs},
  };
  for (const auto& [name, value] : counts) {
    AppendField(out, name, static_cast<double>(value));
  }
  for (double ms : s.repair_latencies_ms) AppendField(out, "repair_ms", ms);
  AppendField(out, "completeness_red", s.completeness_red);
  AppendField(out, "completeness_blue", s.completeness_blue);
  AppendField(out, "degraded", s.degraded ? 1.0 : 0.0);
  AppendField(out, "accepted", s.decision.accepted ? 1.0 : 0.0);
  AppendVector(out, "acc_red", s.decision.acc_red);
  AppendVector(out, "acc_blue", s.decision.acc_blue);
  AppendField(out, "diff", s.decision.max_component_diff);
  return out;
}

std::string TrafficDigest(const net::NodeCounters& t) {
  std::string out;
  const std::pair<const char*, uint64_t> counts[] = {
      {"frames_sent", t.frames_sent},
      {"bytes_sent", t.bytes_sent},
      {"ack_frames_sent", t.ack_frames_sent},
      {"ack_bytes_sent", t.ack_bytes_sent},
      {"frames_delivered", t.frames_delivered},
      {"bytes_delivered", t.bytes_delivered},
      {"frames_collided", t.frames_collided},
      {"frames_missed_tx", t.frames_missed_tx},
      {"mac_drops", t.mac_drops},
      {"arq_retries", t.arq_retries},
      {"injected_drops", t.injected_drops},
      {"injected_dup", t.injected_dup},
      {"recoveries", t.recoveries},
  };
  for (const auto& [name, value] : counts) {
    AppendField(out, name, static_cast<double>(value));
  }
  AppendField(out, "energy_tx_j", t.energy_tx_j);
  AppendField(out, "energy_rx_j", t.energy_rx_j);
  return out;
}

// Per-layer counts read from one simulator's snapshot.
const char* const kCountNames[] = {
    "sim.events_run",        "sim.sched_stale_skips",
    "net.frames_sent",       "net.frames_delivered",
    "net.frames_collided",   "net.injected_drops",
    "pool.arena_allocs",     "crypto.keystore_dense_hits",
    "crypto.keystore_dynamic_hits", "crypto.keystream_bytes",
    "agg.slices_retargeted", "agg.grafts",
    "agg.backoff_retries",
};
// Capacities: shards run one after another, so the peak is the max.
const char* const kPeakNames[] = {"sim.sched_heap_capacity",
                                  "pool.arena_high_water"};

void AddCounts(const obs::Snapshot& snapshot,
               std::map<std::string, double>& counts) {
  for (const char* name : kCountNames) {
    counts[name] += snapshot.CounterOr(name, 0.0);
  }
  for (const char* name : kPeakNames) {
    counts[name] = std::max(counts[name], snapshot.GaugeOr(name, 0.0));
  }
}

// The simulator phases of one round, stepped at the boundaries of the
// protocol's own schedule. RunUntil dispatches every event due by its
// deadline and leaves the clock at the last event, so stepping through
// these deadlines dispatches exactly the events of one RunUntil(Duration).
void StepPhases(sim::Simulator& simulator, const agg::IpdaProtocol& protocol,
                SpanLog& log) {
  const agg::IpdaConfig& cfg = protocol.config();
  const sim::SimTime slice_start = agg::IpdaSliceStart(cfg);
  const std::pair<const char*, sim::SimTime> phases[] = {
      {"agg.phase1", slice_start - 1},
      {"agg.slicing", slice_start + cfg.slice_window - 1},
      {"agg.assembly", agg::IpdaReportStart(cfg) - 1},
      {"agg.aggregation", protocol.Duration()},
  };
  for (const auto& [name, deadline] : phases) {
    SpanLog::Scope span(log, name);
    simulator.RunUntil(deadline);
  }
}

// ---------------------------------------------------------------------
// Single-sink workloads: paper_n600 and sweep_faults_churn_n300.

class SingleSinkWorkload : public Workload {
 public:
  util::Result<RoundResult> OneCall(uint64_t seed) const override {
    IPDA_ASSIGN_OR_RETURN(const agg::IpdaRunResult run, RunOneCall(seed));
    return Result(seed, run);
  }

  util::Result<std::string> OneCallDigest(uint64_t seed) const override {
    IPDA_ASSIGN_OR_RETURN(const agg::IpdaRunResult run, RunOneCall(seed));
    return Digest(Result(seed, run).outcome, run.stats, run.traffic,
                  run.metrics, run.average_degree);
  }

  // agg::RunIpda, one public call at a time.
  util::Result<SteppedResult> Stepped(uint64_t seed,
                                      SpanLog& log) const override {
    const agg::RunConfig config = Config(seed);
    SpanLog::Scope round_span(log, "round");
    std::optional<net::Topology> topology;
    {
      SpanLog::Scope span(log, "net.topology_build");
      IPDA_ASSIGN_OR_RETURN(net::Topology built,
                            agg::BuildRunTopology(config));
      topology.emplace(std::move(built));
    }
    std::optional<sim::Simulator> simulator;
    std::optional<net::Network> network;
    crypto::CryptoStats crypto_base;
    {
      SpanLog::Scope span(log, "net.network_init");
      simulator.emplace(config.seed);
      crypto_base = crypto::ThreadCryptoStats();
      // The runner widens the ARQ window by twice the fault plan's
      // jitter bound (agg/runner.cc, RunMacConfig).
      net::MacConfig mac = config.mac;
      mac.ack_timeout += 2 * config.faults.link.jitter_max;
      network.emplace(&*simulator, std::move(*topology), config.phy, mac);
    }
    std::optional<agg::IpdaProtocol> protocol;
    {
      SpanLog::Scope span(log, "agg.start");
      protocol.emplace(&*network, function_.get(), ipda_);
    }
    std::optional<fault::FaultInjector> injector;
    if (!config.faults.empty()) {
      SpanLog::Scope span(log, "fault.arm");
      IPDA_RETURN_IF_ERROR(fault::ValidateFaultPlan(config.faults));
      injector.emplace(&*simulator, &network->channel(), network->size(),
                       config.faults);
      injector->Arm();
    }
    std::vector<double> readings;
    {
      SpanLog::Scope span(log, "agg.start");
      readings = field_->Sample(network->topology());
    }
    std::optional<fault::ChurnInjector> churn;
    if (!config.churn.empty()) {
      SpanLog::Scope span(log, "fault.arm");
      IPDA_RETURN_IF_ERROR(fault::ValidateChurnPlan(config.churn));
      churn.emplace(&*simulator, &network->channel(),
                    network->mutable_topology(), config.churn,
                    config.deployment.area, protocol->Duration());
      agg::IpdaProtocol* p = &*protocol;
      churn->SetJoinListener([p](net::NodeId id) { p->OnChurnJoin(id); });
      churn->SetChangeListener([p] { p->OnTopologyChange(); });
      churn->Arm();
    }
    {
      SpanLog::Scope span(log, "agg.start");
      protocol->SetReadings(readings);
      protocol->Start();
    }
    StepPhases(*simulator, *protocol, log);
    {
      SpanLog::Scope span(log, "agg.finish");
      protocol->Finish();
      network->mutable_topology()->Compact();
    }
    SteppedResult out;
    obs::Snapshot snapshot;
    {
      SpanLog::Scope span(log, "obs.collect");
      agg::CollectIpdaMetrics(*simulator, protocol->stats(),
                              protocol->config());
      simulator->metrics()
          .GetGauge("agg.round_duration_s")
          ->Set(sim::ToSeconds(protocol->Duration()));
      agg::CollectRunMetrics(*simulator, *network, crypto_base,
                             injector.has_value() ? &*injector : nullptr,
                             churn.has_value() ? &*churn : nullptr,
                             ipda_.cipher);
      snapshot = obs::TakeSnapshot(simulator->metrics(), &simulator->trace());
    }
    const agg::IpdaStats& stats = protocol->stats();
    const agg::Vector true_acc = TrueTotal(*function_, readings);
    const net::NodeCounters traffic = network->counters().Totals();
    out.round.seed = seed;
    out.round.outcome = MakeOutcome(
        *function_, stats.decision, true_acc, protocol->FinalizedResult(),
        agg::AccuracyRatio(stats.decision.Agreed(), true_acc),
        stats.degraded, stats.participants, traffic.bytes_sent);
    out.round.coverage = Coverage{traffic.injected_drops,
                                  stats.slices_retargeted, stats.grafts, 1};
    out.digest = Digest(out.round.outcome, stats, traffic, snapshot,
                        network->topology().AverageDegree());
    AddCounts(snapshot, out.counts);
    {
      SpanLog::Scope span(log, "agg.teardown");
      churn.reset();
      injector.reset();
      protocol.reset();
      network.reset();
      simulator.reset();
    }
    return out;
  }

 protected:
  SingleSinkWorkload(size_t nodes, agg::IpdaConfig ipda,
                     std::unique_ptr<agg::AggregateFunction> function,
                     std::unique_ptr<agg::SensorField> field)
      : base_(PaperConfig(nodes)),
        ipda_(ipda),
        function_(std::move(function)),
        field_(std::move(field)) {}

  agg::RunConfig Config(uint64_t seed) const {
    agg::RunConfig config = base_;
    config.seed = seed;
    return config;
  }

  agg::RunConfig base_;
  agg::IpdaConfig ipda_;

 private:
  util::Result<agg::IpdaRunResult> RunOneCall(uint64_t seed) const {
    return agg::RunIpda(Config(seed), *function_, *field_, ipda_);
  }

  RoundResult Result(uint64_t seed, const agg::IpdaRunResult& run) const {
    RoundResult r;
    r.seed = seed;
    r.outcome = MakeOutcome(*function_, run.stats.decision, run.true_acc,
                            run.result, run.accuracy, run.stats.degraded,
                            run.stats.participants, run.traffic.bytes_sent);
    r.coverage = Coverage{run.traffic.injected_drops,
                          run.stats.slices_retargeted, run.stats.grafts, 1};
    return r;
  }

  static std::string Digest(const Outcome& outcome,
                            const agg::IpdaStats& stats,
                            const net::NodeCounters& traffic,
                            const obs::Snapshot& snapshot, double degree) {
    std::string out = FormatOutcome(outcome);
    out += StatsDigest(stats);
    out += TrafficDigest(traffic);
    AppendField(out, "degree", degree);
    out += ' ';
    out += obs::SnapshotJsonFields(snapshot);
    return out;
  }

  std::unique_ptr<agg::AggregateFunction> function_;
  std::unique_ptr<agg::SensorField> field_;
};

// The paper's largest §IV point: COUNT, l = 2, N = 600, XTEA, many seeds.
class PaperN600 final : public SingleSinkWorkload {
 public:
  PaperN600()
      : SingleSinkWorkload(600, PaperIpda(), agg::MakeCount(),
                           agg::MakeConstantField(1.0)),
        pool_(SeedPool(600000, 48)) {}

  const char* name() const override { return "paper_n600"; }
  const std::vector<uint64_t>& pool() const override { return pool_; }
  int ref_units() const override { return 4; }
  double ref_exponent() const override { return 1.45; }
  // Every round deploys afresh from its seed, as the paper's Monte-Carlo
  // runs do; nothing is prepared up front.
  util::Status Setup() override { return util::OkStatus(); }

 private:
  std::vector<uint64_t> pool_;
};

// Many short N = 300 rounds under crashes, link loss and membership
// churn, with slice retargeting, parent failover and churn repair on,
// driven through the crash-tolerant sweep executor.
class SweepFaultsChurnN300 final : public SingleSinkWorkload {
 public:
  explicit SweepFaultsChurnN300(std::string workdir)
      : SingleSinkWorkload(300, RepairIpda(), agg::MakeCount(),
                           agg::MakeConstantField(1.0)),
        workdir_(std::move(workdir)),
        pool_(SeedPool(300000, 48)) {}

  const char* name() const override { return "sweep_faults_churn_n300"; }
  const std::vector<uint64_t>& pool() const override { return pool_; }
  size_t batch_rounds() const override { return 16; }
  int ref_units() const override { return 2; }
  double ref_exponent() const override { return 1.25; }

  util::Status Setup() override {
    IPDA_ASSIGN_OR_RETURN(base_.faults, fault::ParseFaultSpec(kFaultSpec));
    IPDA_ASSIGN_OR_RETURN(base_.churn, fault::ParseChurnSpec(kChurnSpec));
    return util::OkStatus();
  }

  util::Status RunBatch(const std::vector<uint64_t>& seeds,
                        const RoundFn& round, size_t jobs,
                        std::vector<BatchRecord>* records, BatchStats* stats,
                        SpanLog* log) override;

 private:
  // One cell of bench/fault_sweep (5 % of sensors crash at 4.4 s, while
  // slices are in flight, so slices aimed at the dead aggregators are
  // retargeted; 5 % link loss starves ARQ) combined with one cell of
  // bench/churn_sweep (0.5 leave/rejoin events/s with 1 s downtime, a
  // quarter of the sensors walking at 10 m/s), the CLI example in
  // EXPERIMENTS.md. Churn detaches parents mid-round, which the kRepair
  // response grafts over.
  static constexpr const char* kFaultSpec = "crash-frac=0.05@4.4,loss=0.05";
  static constexpr const char* kChurnSpec = "churn=0.5:1,mobility=0.25:10";
  // Byte budget of the spill store: small enough that every batch
  // spills sorted runs to disk, as a long sweep does.
  static constexpr uint64_t kFoldBudgetBytes = 512;
  static constexpr uint64_t kSweepSeed = 0x5EE9;

  static agg::IpdaConfig RepairIpda() {
    agg::IpdaConfig config = PaperIpda();
    config.retarget_slices = true;
    config.parent_failover = true;
    config.churn_response = agg::ChurnResponse::kRepair;
    return config;
  }

  std::string workdir_;
  std::vector<uint64_t> pool_;
  // Mergeable moments and quantiles of one observed field.
  struct Fold {
    Fold() {
      moments.Init();
      quantiles.Init();
    }
    void Add(double value) {
      moments.Add(value);
      quantiles.Add(value);
    }
    void Merge(const Fold& other) {
      moments.Merge(other.moments);
      quantiles.Merge(other.quantiles);
    }
    size_t count() const {
      return std::min(moments.count(), quantiles.count());
    }
    stats::CountMeanM2Agg moments;
    stats::GkQuantileAgg quantiles;
  };

  // Run-wide folds: each batch's partial aggregates merge in here.
  std::map<std::string, Fold> folds_;
  size_t folded_runs_ = 0;
};

// Journal payload: the outcome, then the coverage facts.
std::string EncodeRecord(const RoundResult& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), ",%llu,%llu,%llu,%zu",
                static_cast<unsigned long long>(r.coverage.injected_drops),
                static_cast<unsigned long long>(r.coverage.retargets),
                static_cast<unsigned long long>(r.coverage.grafts),
                r.coverage.live_shards);
  return FormatOutcome(r.outcome) + buf;
}

bool DecodeRecord(const std::string& payload, RoundResult* r) {
  size_t cut = payload.size();
  for (int commas = 0; commas < 4; ++commas) {
    cut = payload.rfind(',', cut - 1);
    if (cut == std::string::npos || cut == 0) return false;
  }
  unsigned long long drops = 0, retargets = 0, grafts = 0;
  size_t shards = 0;
  if (std::sscanf(payload.c_str() + cut, ",%llu,%llu,%llu,%zu", &drops,
                  &retargets, &grafts, &shards) != 4) {
    return false;
  }
  r->coverage = Coverage{drops, retargets, grafts, shards};
  return ParseOutcome(std::string_view(payload).substr(0, cut), &r->outcome);
}

util::Status SweepFaultsChurnN300::RunBatch(
    const std::vector<uint64_t>& seeds, const RoundFn& round, size_t jobs,
    std::vector<BatchRecord>* records, BatchStats* stats, SpanLog* log) {
  records->assign(seeds.size(), BatchRecord{false, "not run", {}});
  const std::string journal = workdir_ + "/sweep.jsonl";
  exp::AggStoreOptions store_options;
  store_options.memory_budget_bytes = kFoldBudgetBytes;
  store_options.spill_dir = workdir_;
  exp::PartialAggStore store(store_options);
  std::mutex error_mutex;
  util::Status sink_error;

  exp::ResilientOptions options;
  options.sweep_seed = kSweepSeed;
  options.journal_path = journal;
  options.experiment = "roundbench";
  options.config_digest = std::string(name()) + "|" + kFaultSpec + "|" +
                          kChurnSpec + "|runs=" +
                          std::to_string(seeds.size());
  options.drain_on_signal = false;
  options.keep_payloads = false;
  options.base_seed_fn = [&seeds](size_t, size_t run) { return seeds[run]; };
  options.record_sink = [&](size_t flat, const exp::RunStatus& status) {
    BatchRecord& record = (*records)[flat];
    record.ok = status.ok;
    record.error = status.ok ? "" : status.payload;
    record.round.seed = status.seed;
    if (status.ok && !DecodeRecord(status.payload, &record.round)) {
      record.ok = false;
      record.error = "undecodable journal payload";
    }
    if (!record.ok) return;
    const Outcome& o = record.round.outcome;
    const std::pair<const char*, double> fields[] = {
        {"accuracy", o.accuracy},
        {"accepted", o.accepted ? 1.0 : 0.0},
        {"degraded", o.degraded ? 1.0 : 0.0},
        {"participants", static_cast<double>(o.participants)},
        {"bytes_sent", static_cast<double>(o.bytes_sent)},
        {"grafts", static_cast<double>(record.round.coverage.grafts)},
    };
    for (const auto& [key, value] : fields) {
      const util::Status added = store.Add(key, flat, value);
      if (!added.ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        sink_error = added;
      }
    }
  };
  const exp::AttemptBody body =
      [&round](const exp::AttemptContext& ctx) -> util::Result<std::string> {
    IPDA_ASSIGN_OR_RETURN(const RoundResult r, round(ctx.seed));
    return EncodeRecord(r);
  };

  exp::Engine engine(jobs);
  {
    std::optional<SpanLog::Scope> span;
    if (log != nullptr) span.emplace(*log, "exp.sweep");
    IPDA_RETURN_IF_ERROR(exp::RunResilientSweep(engine, {"sweep"},
                                                seeds.size(), options, body)
                             .status());
  }
  IPDA_RETURN_IF_ERROR(sink_error);

  const auto t1 = std::chrono::steady_clock::now();
  {
    std::optional<SpanLog::Scope> span;
    if (log != nullptr) span.emplace(*log, "exp.fold");
    std::map<std::string, Fold, std::less<>> batch;
    IPDA_RETURN_IF_ERROR(store.ForEachSorted(
        [&batch](std::string_view key, uint64_t, double value) {
          auto it = batch.find(key);
          if (it == batch.end()) it = batch.try_emplace(std::string(key)).first;
          it->second.Add(value);
        }));
    for (const auto& [key, fold] : batch) folds_[key].Merge(fold);
  }
  // The run-wide fold must hold one observation per completed run.
  for (const BatchRecord& record : *records) folded_runs_ += record.ok;
  if (folds_["accuracy"].count() != folded_runs_) {
    return util::InternalError("sweep fold lost observations");
  }
  stats->fold_ms = MsSince(t1);
  stats->spill_runs = store.stats().spill_runs;
  struct stat st {};
  stats->journal_bytes =
      ::stat(journal.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
  std::remove(journal.c_str());
  return util::OkStatus();
}

// ---------------------------------------------------------------------
// city_25k_s8: N = 25k at paper density, SUM, 8 sinks.

class City25kS8 final : public Workload {
 public:
  City25kS8() : pool_(SeedPool(25000, 4)) {
    const double side = 400.0 * std::sqrt(kNodes / 400.0);
    base_ = PaperConfig(static_cast<size_t>(kNodes));
    base_.deployment.area = net::Area{side, side};
    ipda_ = PaperIpda();
    sharded_.sinks = kSinks;
  }

  const char* name() const override { return "city_25k_s8"; }
  const std::vector<uint64_t>& pool() const override { return pool_; }
  int ref_units() const override { return 150; }
  double ref_exponent() const override { return 1.0; }

  // Deploys every pool seed's city once, up front; rounds reuse the
  // deployments through RunConfig::topology.
  util::Status Setup() override {
    function_ = agg::MakeSum();
    field_ = agg::MakeUniformField(15.0, 30.0, 42);
    deployments_.clear();
    for (uint64_t seed : pool_) {
      agg::RunConfig config = base_;
      config.seed = seed;
      IPDA_ASSIGN_OR_RETURN(net::Topology topology,
                            agg::BuildRunTopology(config));
      deployments_.emplace(seed, std::move(topology));
    }
    return util::OkStatus();
  }

  util::Result<RoundResult> OneCall(uint64_t seed) const override {
    IPDA_ASSIGN_OR_RETURN(const agg::ShardedRunResult run, RunOneCall(seed));
    RoundResult r;
    r.seed = seed;
    r.outcome = OutcomeOf(run);
    r.coverage.live_shards = LiveShards(run.shards);
    return r;
  }

  util::Result<std::string> OneCallDigest(uint64_t seed) const override {
    IPDA_ASSIGN_OR_RETURN(const agg::ShardedRunResult run, RunOneCall(seed));
    return Digest(run);
  }

  // agg::RunShardedIpda, one public call at a time, shard by shard.
  util::Result<SteppedResult> Stepped(uint64_t seed,
                                      SpanLog& log) const override {
    IPDA_ASSIGN_OR_RETURN(const agg::RunConfig config, Config(seed));
    SteppedResult out;
    agg::ShardedRunResult result;
    SpanLog::Scope round_span(log, "round");
    std::optional<net::Topology> global;
    {
      SpanLog::Scope span(log, "net.topology_build");
      IPDA_ASSIGN_OR_RETURN(net::Topology built,
                            agg::BuildRunTopology(config));
      global.emplace(std::move(built));
    }
    std::vector<double> readings;
    std::vector<net::Point2D> sinks;
    std::vector<std::vector<net::NodeId>> members(kSinks);
    {
      SpanLog::Scope span(log, "agg.shard_partition");
      readings = field_->Sample(*global);
      sinks = agg::SinkPlacement(config.deployment.area, kSinks);
      const std::vector<uint32_t> assignment =
          agg::PartitionBySink(*global, sinks);
      for (net::NodeId id = 1; id < global->node_count(); ++id) {
        members[assignment[id]].push_back(id);
      }
    }
    result.true_acc = TrueTotal(*function_, readings);
    agg::BaseStationAccumulator merge(function_->arity());
    bool any_rejected = false;
    double degree_sum = 0.0;
    double degree_weight = 0.0;
    for (size_t s = 0; s < kSinks; ++s) {
      SpanLog::Scope shard_span(log, "agg.shard");
      agg::ShardOutcome outcome;
      outcome.shard = s;
      outcome.sensor_count = members[s].size();
      std::vector<net::Point2D> positions{sinks[s]};
      std::vector<double> local_readings{0.0};
      for (net::NodeId id : members[s]) {
        positions.push_back(global->position(id));
        local_readings.push_back(readings[id]);
      }
      std::optional<net::Topology> topology;
      {
        SpanLog::Scope span(log, "net.topology_build");
        IPDA_ASSIGN_OR_RETURN(
            net::Topology built,
            net::Topology::Build(std::move(positions), config.range));
        topology.emplace(std::move(built));
      }
      std::optional<sim::Simulator> simulator;
      std::optional<net::Network> network;
      crypto::CryptoStats crypto_base;
      {
        SpanLog::Scope span(log, "net.network_init");
        simulator.emplace(
            util::Mix64(util::Mix64(config.seed, kShardSeedSalt), s));
        crypto_base = crypto::ThreadCryptoStats();
        network.emplace(&*simulator, std::move(*topology), config.phy,
                        config.mac);
      }
      std::optional<agg::IpdaProtocol> protocol;
      {
        SpanLog::Scope span(log, "agg.start");
        protocol.emplace(&*network, function_.get(), ipda_);
        protocol->SetReadings(local_readings);
        protocol->Start();
      }
      StepPhases(*simulator, *protocol, log);
      {
        SpanLog::Scope span(log, "agg.finish");
        protocol->Finish();
      }
      {
        SpanLog::Scope span(log, "obs.collect");
        agg::CollectIpdaMetrics(*simulator, protocol->stats(),
                                protocol->config());
        agg::CollectRunMetrics(*simulator, *network, crypto_base, nullptr,
                               nullptr, ipda_.cipher);
        AddCounts(obs::TakeSnapshot(simulator->metrics()), out.counts);
      }
      outcome.stats = protocol->stats();
      outcome.traffic = network->counters().Totals();
      outcome.average_degree = network->topology().AverageDegree();
      merge.Add(agg::TreeColor::kRed, outcome.stats.decision.acc_red);
      merge.Add(agg::TreeColor::kBlue, outcome.stats.decision.acc_blue);
      any_rejected |= !outcome.stats.decision.accepted;
      result.degraded |= outcome.stats.degraded;
      result.traffic += outcome.traffic;
      const double weight = static_cast<double>(network->size());
      degree_sum += outcome.average_degree * weight;
      degree_weight += weight;
      result.shards.push_back(std::move(outcome));
      SpanLog::Scope span(log, "agg.teardown");
      protocol.reset();
      network.reset();
      simulator.reset();
    }
    {
      SpanLog::Scope span(log, "agg.shard_merge");
      result.decision = merge.Decide(ipda_.threshold);
      if (any_rejected) result.decision.accepted = false;
      result.average_degree =
          degree_weight > 0.0 ? degree_sum / degree_weight : 0.0;
      result.accuracy_red =
          agg::AccuracyRatio(result.decision.acc_red, result.true_acc);
      result.accuracy_blue =
          agg::AccuracyRatio(result.decision.acc_blue, result.true_acc);
      result.accuracy =
          agg::AccuracyRatio(result.decision.Agreed(), result.true_acc);
      result.result = function_->Finalize(result.decision.Agreed());
    }
    out.round.seed = seed;
    out.round.outcome = OutcomeOf(result);
    out.round.coverage.live_shards = LiveShards(result.shards);
    out.digest = Digest(result);
    return out;
  }

 private:
  static constexpr double kNodes = 25000.0;
  static constexpr size_t kSinks = 8;
  // Shard simulator seed salt of agg/shard/sharded.cc ("SHARDSK"); the
  // equivalence self-test fails loudly if the two ever drift apart.
  static constexpr uint64_t kShardSeedSalt = 0x5348415244534Bull;

  util::Result<agg::RunConfig> Config(uint64_t seed) const {
    const auto it = deployments_.find(seed);
    if (it == deployments_.end()) {
      return util::InvalidArgumentError("seed outside the city pool");
    }
    agg::RunConfig config = base_;
    config.seed = seed;
    config.topology = &it->second;
    return config;
  }

  util::Result<agg::ShardedRunResult> RunOneCall(uint64_t seed) const {
    IPDA_ASSIGN_OR_RETURN(const agg::RunConfig config, Config(seed));
    return agg::RunShardedIpda(config, *function_, *field_, ipda_, sharded_);
  }

  static size_t LiveShards(const std::vector<agg::ShardOutcome>& shards) {
    size_t live = 0;
    for (const agg::ShardOutcome& s : shards) {
      live += !s.crashed && s.sensor_count > 0 ? 1 : 0;
    }
    return live;
  }

  Outcome OutcomeOf(const agg::ShardedRunResult& run) const {
    uint64_t participants = 0;
    for (const agg::ShardOutcome& s : run.shards) {
      participants += s.stats.participants;
    }
    return MakeOutcome(*function_, run.decision, run.true_acc, run.result,
                       run.accuracy, run.degraded, participants,
                       run.traffic.bytes_sent);
  }

  std::string Digest(const agg::ShardedRunResult& run) const {
    std::string out = FormatOutcome(OutcomeOf(run));
    for (const agg::ShardOutcome& s : run.shards) {
      AppendField(out, "shard", static_cast<double>(s.shard));
      AppendField(out, "sensors", static_cast<double>(s.sensor_count));
      AppendField(out, "crashed", s.crashed ? 1.0 : 0.0);
      AppendField(out, "degree", s.average_degree);
      out += StatsDigest(s.stats);
      out += TrafficDigest(s.traffic);
    }
    out += TrafficDigest(run.traffic);
    AppendField(out, "degree", run.average_degree);
    AppendField(out, "accuracy_red", run.accuracy_red);
    AppendField(out, "accuracy_blue", run.accuracy_blue);
    AppendField(out, "diff", run.decision.max_component_diff);
    return out;
  }

  agg::RunConfig base_;
  agg::IpdaConfig ipda_;
  agg::ShardedConfig sharded_;
  std::vector<uint64_t> pool_;
  std::unique_ptr<agg::AggregateFunction> function_;
  std::unique_ptr<agg::SensorField> field_;
  std::map<uint64_t, net::Topology> deployments_;
};

}  // namespace

std::string FormatOutcome(const Outcome& o) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d,%llu,%llu", o.result,
                o.truth, o.accuracy, o.red, o.blue, o.accepted ? 1 : 0,
                o.degraded ? 1 : 0,
                static_cast<unsigned long long>(o.participants),
                static_cast<unsigned long long>(o.bytes_sent));
  return buf;
}

bool ParseOutcome(std::string_view text, Outcome* o) {
  const std::string s(text);
  int accepted = 0;
  int degraded = 0;
  unsigned long long participants = 0;
  unsigned long long bytes = 0;
  int consumed = 0;
  if (std::sscanf(s.c_str(), "%lg,%lg,%lg,%lg,%lg,%d,%d,%llu,%llu%n",
                  &o->result, &o->truth, &o->accuracy, &o->red, &o->blue,
                  &accepted, &degraded, &participants, &bytes,
                  &consumed) != 9 ||
      static_cast<size_t>(consumed) != s.size()) {
    return false;
  }
  o->accepted = accepted != 0;
  o->degraded = degraded != 0;
  o->participants = participants;
  o->bytes_sent = bytes;
  return true;
}

bool OutcomesMatch(const Outcome& got, const Outcome& want) {
  // Values are committed at full precision; the tolerance only absorbs a
  // reordered floating-point sum, never a different answer.
  const auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
  };
  return close(got.result, want.result) && close(got.truth, want.truth) &&
         close(got.accuracy, want.accuracy) && close(got.red, want.red) &&
         close(got.blue, want.blue) && got.accepted == want.accepted &&
         got.degraded == want.degraded &&
         got.participants == want.participants &&
         got.bytes_sent == want.bytes_sent;
}

constexpr const char* kExpectHeader =
    "seed,result,truth,accuracy,red,blue,accepted,degraded,participants,"
    "bytes_sent";

util::Result<Expectations> LoadExpectations(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::UnavailableError("cannot read " + path);
  std::string line;
  if (!std::getline(in, line) || line != kExpectHeader) {
    return util::InvalidArgumentError(path + ": bad header");
  }
  Expectations out;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t comma = line.find(',');
    Outcome outcome;
    unsigned long long seed = 0;
    if (comma == std::string::npos ||
        std::sscanf(line.c_str(), "%llu,", &seed) != 1 ||
        !ParseOutcome(std::string_view(line).substr(comma + 1), &outcome)) {
      return util::InvalidArgumentError(path + ":" +
                                        std::to_string(line_no) +
                                        ": malformed row");
    }
    out[seed] = outcome;
  }
  return out;
}

util::Status WriteExpectations(const std::string& path,
                               const Expectations& expectations) {
  std::ofstream out(path);
  out << kExpectHeader << "\n";
  for (const auto& [seed, outcome] : expectations) {
    out << seed << "," << FormatOutcome(outcome) << "\n";
  }
  out.close();
  if (!out) return util::UnavailableError("cannot write " + path);
  return util::OkStatus();
}

util::Result<std::unique_ptr<Workload>> Workload::Create(
    std::string_view name, const std::string& workdir) {
  std::unique_ptr<Workload> workload;
  if (name == "paper_n600") {
    workload = std::make_unique<PaperN600>();
  } else if (name == "city_25k_s8") {
    workload = std::make_unique<City25kS8>();
  } else if (name == "sweep_faults_churn_n300") {
    workload = std::make_unique<SweepFaultsChurnN300>(workdir);
  } else {
    return util::InvalidArgumentError("unknown workload " +
                                      std::string(name));
  }
  return workload;
}

util::Status Workload::RunBatch(const std::vector<uint64_t>& seeds,
                                const RoundFn& round, size_t /*jobs*/,
                                std::vector<BatchRecord>* records,
                                BatchStats* /*stats*/, SpanLog* /*log*/) {
  records->clear();
  for (uint64_t seed : seeds) {
    util::Result<RoundResult> r = round(seed);
    BatchRecord record;
    record.ok = r.ok();
    if (r.ok()) {
      record.round = *std::move(r);
    } else {
      record.error = r.status().ToString();
      record.round.seed = seed;
    }
    records->push_back(std::move(record));
  }
  return util::OkStatus();
}

void ReplayKeystream(uint64_t bytes, uint64_t chunk) {
  const crypto::CipherBackend& backend =
      crypto::GetCipherBackend(crypto::CipherKind::kXtea);
  crypto::CipherSchedule schedule;
  backend.build(crypto::Key128::FromSeed(0x5EED), schedule);
  chunk = std::max<uint64_t>(1, std::min<uint64_t>(chunk, 4096));
  std::vector<uint8_t> message(chunk, 0xA5);
  uint64_t nonce = 0;
  for (uint64_t done = 0; done < bytes; done += chunk) {
    const size_t size = static_cast<size_t>(std::min(chunk, bytes - done));
    crypto::CtrCrypt(backend, schedule, ++nonce, message.data(), size);
  }
  // Keep the keystream observable so the loop is not elided.
  volatile uint8_t sink = message[0];
  (void)sink;
}

}  // namespace roundbench
