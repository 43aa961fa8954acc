// google-benchmark microbenchmarks for the primitives underneath the
// simulation: cipher, sealing, slicing, event queue, topology build, and a
// whole aggregation round.

#include <benchmark/benchmark.h>

#include "agg/aggregate_function.h"
#include "agg/cpda/interpolation.h"
#include "agg/ipda/slicing.h"
#include "agg/kipda/kipda_protocol.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "crypto/ctr.h"
#include "crypto/keystore.h"
#include "crypto/xtea.h"
#include "net/channel.h"
#include "net/counters.h"
#include "net/deployment.h"
#include "net/topology.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace ipda {
namespace {

void BM_XteaBlock(benchmark::State& state) {
  const crypto::Key128 key = crypto::Key128::FromSeed(1);
  uint64_t block = 0x0123456789abcdefULL;
  for (auto _ : state) {
    block = crypto::XteaEncryptBlock(key, block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_XteaBlock);

void BM_CipherKeystream(benchmark::State& state) {
  // The XTEA-CTR path (precompiled schedule + 512 B chunked keystream)
  // LinkCrypto seals through.
  const crypto::XteaSchedule sched(crypto::Key128::FromSeed(2));
  util::Bytes payload(static_cast<size_t>(state.range(0)), 0x5a);
  uint64_t nonce = 0;
  for (auto _ : state) {
    crypto::CtrCrypt(sched, ++nonce, payload);
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CipherKeystream)->Arg(32)->Arg(256)->Arg(4096);

void BM_XteaScheduleBuild(benchmark::State& state) {
  // Cost of the one-time round-key expansion a slot's first use pays.
  const crypto::Key128 key = crypto::Key128::FromSeed(9);
  for (auto _ : state) {
    crypto::XteaSchedule sched(key);
    benchmark::DoNotOptimize(sched.k.data());
  }
}
BENCHMARK(BM_XteaScheduleBuild);

void BM_LinkCryptoSealOpen(benchmark::State& state) {
  // Hand-set keys are slots like provisioned ones: after the first
  // iteration builds both schedules, this times the steady slot path.
  crypto::LinkCrypto alice(1), bob(2);
  const crypto::Key128 key = crypto::Key128::FromSeed(3);
  alice.keystore().SetLinkKey(2, key);
  bob.keystore().SetLinkKey(1, key);
  // A COUNT slice behind its nonce headroom; sealing in place re-encrypts
  // the previous ciphertext, which costs the same as a fresh plaintext.
  util::Bytes wire(crypto::kSealOverheadBytes + 10, 0x11);
  util::Bytes opened;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alice.SealInPlace(2, wire).ok());
    benchmark::DoNotOptimize(bob.Open(1, wire, opened).ok());
    benchmark::DoNotOptimize(opened.data());
  }
}
BENCHMARK(BM_LinkCryptoSealOpen);

void BM_SliceVector(benchmark::State& state) {
  util::Rng rng(4);
  const agg::Vector value{1.0, 25.0, 625.0};
  const uint32_t l = static_cast<uint32_t>(state.range(0));
  std::vector<agg::Vector> slices;
  for (auto _ : state) {
    agg::SliceVector(value, l, 50.0, rng, slices);
    benchmark::DoNotOptimize(slices.data());
  }
}
BENCHMARK(BM_SliceVector)->Arg(2)->Arg(3)->Arg(8);

void BM_CpdaInterpolation(benchmark::State& state) {
  // Leader-side constant-term recovery for a degree-2 cluster.
  util::Rng rng(6);
  agg::MaskingPolynomial poly(17.0, 2, 100.0, rng);
  const std::vector<double> xs{3.0, 8.0, 21.0};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(poly.Evaluate(x));
  for (auto _ : state) {
    auto constant = agg::InterpolateConstantTerm(xs, ys);
    benchmark::DoNotOptimize(constant.ok());
  }
}
BENCHMARK(BM_CpdaInterpolation);

void BM_KipdaEncode(benchmark::State& state) {
  agg::KipdaConfig config;
  config.message_size = static_cast<size_t>(state.range(0));
  config.real_positions = config.message_size / 4;
  util::Rng rng(7);
  for (auto _ : state) {
    auto message = agg::KipdaEncode(config, 42.0, rng);
    benchmark::DoNotOptimize(message.data());
  }
}
BENCHMARK(BM_KipdaEncode)->Arg(12)->Arg(32);

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler scheduler;
    for (int i = 0; i < 1000; ++i) {
      scheduler.ScheduleAt(sim::Microseconds(i * 7 % 997), [] {});
    }
    scheduler.RunAll();
    benchmark::DoNotOptimize(scheduler.events_run());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SchedulerThroughput);

void BM_SchedulerScheduleCancel(benchmark::State& state) {
  // The ARQ ack-timer shape: schedule a future event, cancel it before it
  // fires. With generation handles both operations are O(1) plus an
  // amortized stale-prune.
  sim::Scheduler scheduler;
  for (auto _ : state) {
    sim::EventId id =
        scheduler.ScheduleAfter(sim::Milliseconds(1000), [] {});
    benchmark::DoNotOptimize(scheduler.Cancel(id));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SchedulerScheduleCancel);

void BM_SchedulerDispatchHot(benchmark::State& state) {
  // Steady-state dispatch with a warm heap: schedule/run batches against
  // recycled slots and pooled callbacks (zero allocation per event).
  sim::Scheduler scheduler;
  int sink = 0;
  constexpr int kBatch = 256;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      scheduler.ScheduleAfter(sim::Microseconds(1 + i % 17),
                              [&sink] { ++sink; });
    }
    scheduler.RunAll();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_SchedulerDispatchHot);

void BM_TopologyBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(5);
  net::DeploymentConfig config;
  config.node_count = n;
  auto positions = net::UniformDeployment(config, rng);
  for (auto _ : state) {
    auto topology = net::Topology::Build(*positions, 50.0);
    benchmark::DoNotOptimize(topology->node_count());
  }
}
BENCHMARK(BM_TopologyBuild)->Arg(200)->Arg(600);

// The channel's cost per reception on the paper's deployment (N = 600 in
// 400 x 400 m, 50 m range): one unicast and one broadcast from the node
// whose degree is nearest 27, each run to its last end event. RunOne, not
// RunAll: a round applies the receptions that run no code once, at its
// deadline, not after every frame. Reports ns_per_reception over both
// frames' receptions.
void BM_ChannelFanout(benchmark::State& state) {
  util::Rng rng(600001);
  net::DeploymentConfig deployment;
  deployment.node_count = 600;
  auto positions = net::UniformDeployment(deployment, rng);
  auto topology = net::Topology::Build(*positions, 50.0);
  net::NodeId sender = 0;
  auto off_target = [&](net::NodeId id) {
    const size_t degree = topology->degree(id);
    return degree > 27 ? degree - 27 : 27 - degree;
  };
  for (net::NodeId id = 1; id < topology->node_count(); ++id) {
    if (off_target(id) < off_target(sender)) sender = id;
  }
  const auto neighbors = topology->neighbors(sender);
  sim::Simulator simulator(1);
  net::CounterBoard counters(topology->node_count());
  net::Channel channel(&simulator, &*topology, net::PhyConfig{}, &counters);
  net::Packet unicast;
  unicast.src = sender;
  unicast.dst = neighbors[0];
  unicast.payload.assign(32, 0x5a);
  net::Packet broadcast = unicast;
  broadcast.dst = net::kBroadcastId;
  sim::Scheduler& scheduler = simulator.scheduler();
  for (auto _ : state) {
    channel.StartTransmission(sender, unicast);
    while (scheduler.RunOne()) {
    }
    channel.StartTransmission(sender, broadcast);
    while (scheduler.RunOne()) {
    }
  }
  state.counters["degree"] = static_cast<double>(neighbors.size());
  state.counters["ns_per_reception"] = benchmark::Counter(
      2.0 * static_cast<double>(neighbors.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_ChannelFanout);

void BM_FullIpdaRound(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  agg::IpdaConfig ipda;
  ipda.slice_range = 1.0;
  uint64_t seed = 0;
  for (auto _ : state) {
    agg::RunConfig config;
    config.deployment.node_count = n;
    config.seed = ++seed;
    auto result = agg::RunIpda(config, *function, *field, ipda);
    benchmark::DoNotOptimize(result->accuracy);
  }
}
BENCHMARK(BM_FullIpdaRound)->Arg(200)->Arg(400)->Unit(
    benchmark::kMillisecond);

void BM_FullSmartRound(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  agg::SmartConfig smart;
  smart.slice_range = 1.0;
  uint64_t seed = 0;
  for (auto _ : state) {
    agg::RunConfig config;
    config.deployment.node_count = n;
    config.seed = ++seed;
    auto result = agg::RunSmart(config, *function, *field, smart);
    benchmark::DoNotOptimize(result->accuracy);
  }
}
BENCHMARK(BM_FullSmartRound)->Arg(200)->Arg(400)->Unit(
    benchmark::kMillisecond);

void BM_FullTagRound(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  uint64_t seed = 0;
  for (auto _ : state) {
    agg::RunConfig config;
    config.deployment.node_count = n;
    config.seed = ++seed;
    auto result = agg::RunTag(config, *function, *field);
    benchmark::DoNotOptimize(result->accuracy);
  }
}
BENCHMARK(BM_FullTagRound)->Arg(200)->Arg(400)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace ipda

BENCHMARK_MAIN();
