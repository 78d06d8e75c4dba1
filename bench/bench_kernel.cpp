// google-benchmark microbenchmarks for the simulator substrate:
// scheduler throughput, RNG, propagation math, and full-stack
// events-per-second (how much simulated traffic one wall-second buys).
//
// Custom main: the shared bench flags (--seeds/--out/--jobs) are
// stripped before benchmark::Initialize sees the command line, then a
// deterministic scorecard pass re-runs fixed-seed kernel workloads whose
// outputs are simulation results (not timings) — those become the
// byte-stable BENCH_kernel.json; the wall clock goes to the sidecar.

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiments/experiments.hpp"
#include "obs/observer.hpp"
#include "phy/calibration.hpp"
#include "phy/shadowing.hpp"
#include "scenario/network.hpp"
#include "scenario/runner.hpp"
#include "sim/scheduler.hpp"

using namespace adhoc;

namespace {

void BM_SchedulerScheduleExecute(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler s;
    for (int i = 0; i < 1000; ++i) {
      s.schedule_at(sim::Time::ns(i * 13 % 5000), [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.total_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerScheduleExecute);

void BM_SchedulerCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler s;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(s.schedule_at(sim::Time::ns(i), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) s.cancel(ids[i]);
    s.run();
    benchmark::DoNotOptimize(s.total_cancelled());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerCancelHeavy);

void BM_RngDraws(benchmark::State& state) {
  sim::Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_int(0, 1023));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngDraws);

void BM_ShadowedRxPower(benchmark::State& state) {
  const auto& base = phy::default_outdoor_model();
  // Kernel micro-bench with no Simulator: a fixed literal seed is the
  // deterministic choice here, outside the master-seed substream tree.
  phy::ShadowedPropagation model{base, phy::ShadowingParams{}, sim::Rng{1}};  // NOLINT-ADHOC(rng-stream)
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 100;
    benchmark::DoNotOptimize(model.rx_power_dbm(15.0, {0, 0}, {80, 0}, sim::Time::us(t), {1, 2}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShadowedRxPower);

void BM_FullStackUdpSecond(benchmark::State& state) {
  // Cost of simulating one second of saturated two-node UDP at 11 Mbps.
  for (auto _ : state) {
    sim::Simulator sim{1};
    scenario::Network net{sim};
    net.add_node({0, 0});
    net.add_node({10, 0});
    scenario::RunConfig rc;
    rc.warmup = sim::Time::ms(100);
    rc.measure = sim::Time::ms(900);
    const auto r = scenario::run_sessions(net, {{0, 1, scenario::Transport::kUdp}}, rc);
    benchmark::DoNotOptimize(r.sessions[0].bytes);
  }
}
BENCHMARK(BM_FullStackUdpSecond)->Unit(benchmark::kMillisecond);

void BM_FullStackUdpSecondObserved(benchmark::State& state) {
  // Same workload as BM_FullStackUdpSecond but fully observed (metrics +
  // trace + scheduler profiling): the delta between the two is the
  // all-on observability cost; the off cost is the null-pointer checks
  // already included in the plain variant.
  std::map<std::string, double> profile;
  for (auto _ : state) {
    obs::RunObserver observer{obs::ObsLevel::kFull};
    sim::Simulator sim{1};
    scenario::Network net{sim};
    net.attach_observer(observer);
    net.add_node({0, 0});
    net.add_node({10, 0});
    scenario::RunConfig rc;
    rc.warmup = sim::Time::ms(100);
    rc.measure = sim::Time::ms(900);
    const auto r = scenario::run_sessions(net, {{0, 1, scenario::Transport::kUdp}}, rc);
    observer.finalize(sim);
    profile = observer.registry()->flatten();
    benchmark::DoNotOptimize(r.sessions[0].bytes);
  }
  // Scheduler-profile summary: events, rate, queue depth, and the event
  // label that dominated scheduler wall time in the last replication.
  state.counters["sim_events"] = profile["scheduler.total_executed"];
  state.counters["sim_ev_per_s"] = profile["scheduler.events_per_sec"];
  state.counters["queue_hw"] = profile["scheduler.queue_high_water"];
  const std::string prefix = "scheduler.wall_ms_by_label.";
  std::string hot = "none";
  double hot_ms = 0.0;
  for (const auto& [key, value] : profile) {
    if (key.rfind(prefix, 0) == 0 && value > hot_ms) {
      hot_ms = value;
      hot = key.substr(prefix.size());
    }
  }
  state.SetLabel("hot=" + hot);
}
BENCHMARK(BM_FullStackUdpSecondObserved)->Unit(benchmark::kMillisecond);

void BM_FullStackTcpSecond(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim{1};
    scenario::Network net{sim};
    net.add_node({0, 0});
    net.add_node({10, 0});
    scenario::RunConfig rc;
    rc.warmup = sim::Time::ms(100);
    rc.measure = sim::Time::ms(900);
    const auto r = scenario::run_sessions(net, {{0, 1, scenario::Transport::kTcp}}, rc);
    benchmark::DoNotOptimize(r.sessions[0].bytes);
  }
}
BENCHMARK(BM_FullStackTcpSecond)->Unit(benchmark::kMillisecond);

void BM_FourStationSecond(benchmark::State& state) {
  for (auto _ : state) {
    experiments::ExperimentConfig cfg;
    cfg.seeds = {1};
    cfg.warmup = sim::Time::ms(100);
    cfg.measure = sim::Time::ms(900);
    const auto r = experiments::four_station(
        experiments::fig7_spec(false, scenario::Transport::kUdp), cfg);
    benchmark::DoNotOptimize(r.session1_kbps.mean);
  }
}
BENCHMARK(BM_FourStationSecond)->Unit(benchmark::kMillisecond);

/// Deterministic scorecard pass: the same kernels, scored by their
/// simulation outputs (which are seed-determined) rather than timings.
int emit_scorecard(const adhoc::bench::BenchOptions& opt,
                   const adhoc::bench::WallTimer& timer) {
  report::Scorecard card{"kernel"};

  {
    sim::Scheduler s;
    for (int i = 0; i < 1000; ++i) {
      s.schedule_at(sim::Time::ns(i * 13 % 5000), [] {});
    }
    s.run();
    card.set_counter("scheduler_executed", s.total_executed());
  }
  {
    // Fixed-count draw checksum: pins the RNG stream implementation.
    sim::Rng rng{opt.seeds.front()};  // NOLINT-ADHOC(rng-stream) kernel check outside a Simulator
    std::uint64_t sum = 0;
    for (int i = 0; i < 4096; ++i) sum += static_cast<std::uint64_t>(rng.uniform_int(0, 1023));
    card.add_cell("rng_checksum_4096", static_cast<double>(sum));
  }
  {
    const auto& base = phy::default_outdoor_model();
    phy::ShadowedPropagation model{base, phy::ShadowingParams{},
                                   sim::Rng{opt.seeds.front()}};  // NOLINT-ADHOC(rng-stream)
    card.add_cell("shadowed_rx_dbm/80m",
                  model.rx_power_dbm(15.0, {0, 0}, {80, 0}, sim::Time::us(100), {1, 2}),
                  std::nullopt, "dBm");
  }
  for (const std::uint64_t seed : opt.seeds) {
    // One simulated second of saturated two-node UDP: total bytes
    // delivered is a pure function of the seed.
    sim::Simulator sim{seed};
    scenario::Network net{sim};
    net.add_node({0, 0});
    net.add_node({10, 0});
    scenario::RunConfig rc;
    rc.warmup = sim::Time::ms(100);
    rc.measure = sim::Time::ms(900);
    const auto r = scenario::run_sessions(net, {{0, 1, scenario::Transport::kUdp}}, rc);
    card.add_cell("udp_bytes_1s/seed=" + std::to_string(seed),
                  static_cast<double>(r.sessions[0].bytes), std::nullopt, "B");
  }
  return adhoc::bench::finish_bench(card, opt, timer);
}

}  // namespace

int main(int argc, char** argv) {
  // Split the command line: --seeds/--out/--jobs (and their values) are
  // ours; everything else goes to google-benchmark untouched.
  std::vector<char*> ours{argv[0]};
  std::vector<char*> bm_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seeds" || a == "--out" || a == "--jobs") {
      ours.push_back(argv[i]);
      if (i + 1 < argc) ours.push_back(argv[++i]);
    } else {
      bm_args.push_back(argv[i]);
    }
  }
  const auto opt =
      adhoc::bench::parse_bench_options(static_cast<int>(ours.size()), ours.data());
  const adhoc::bench::WallTimer timer;

  int bm_argc = static_cast<int>(bm_args.size());
  benchmark::Initialize(&bm_argc, bm_args.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_args.data())) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  return emit_scorecard(opt, timer);
}
