// fig7_grid and manet_200: replications run back to back on one thread
// through the public experiment and scenario APIs.
//
// Timed pass (--trace 0): each replication is timed three ways — its
// topology build alone (setup_s), the plain experiments:: call with no
// observer (sim_s_per_wall_s, request_ms), and the same call under the
// `full` obs preset (observed_sim_s_per_wall_s). The observed call must
// reproduce the plain call's outputs exactly. One untimed replication
// warms up first.
//
// Traced pass (--trace 1): a fixed, seed-determined replication set.
// Each is run once plain (allocation counts, untraced wall) and once
// through a bench-owned copy of the experiment's wiring with a
// `metrics` RunObserver (exact counters) and a LayerProbe on the
// scheduler (wall time and events per label -> layer). Probe times are
// inclusive: an event's callback time includes everything it calls,
// e.g. Medium::begin_transmission's fan-out inside mac.response lands
// on mac.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "experiments/experiments.hpp"
#include "experiments/manet.hpp"
#include "obs/observer.hpp"
#include "scenario/manet.hpp"
#include "scenario/network.hpp"
#include "scenario/runner.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

using namespace adhoc;

/// Per-label wall time and event counts, keyed by the label pointer
/// (labels are string literals), folded into layers after the run.
class LayerProbe final : public sim::SchedulerProbe {
 public:
  struct Stat {
    std::uint64_t count = 0;
    double wall_s = 0.0;
  };

  void event_executed(const char* label, double wall_seconds, std::size_t /*pending*/) override {
    Stat& s = by_label_[label];
    ++s.count;
    s.wall_s += wall_seconds;
  }

  [[nodiscard]] const std::unordered_map<const char*, Stat>& by_label() const { return by_label_; }

 private:
  std::unordered_map<const char*, Stat> by_label_;
};

/// Outputs of one replication; equal inputs must give equal outputs.
struct Outputs {
  std::vector<double> values;
  std::uint64_t events = 0;  ///< scheduler events executed
  bool operator==(const Outputs&) const = default;
};

/// What the traced pass learns from one probed replication.
struct Probed {
  Outputs out;
  double run_wall_s = 0.0;  ///< the simulation run alone (after the build)
  std::map<std::string, double> counters;  ///< metrics-preset registry, flattened
  std::uint64_t rreq_originated = 0;
};

class SimWorkload {
 public:
  virtual ~SimWorkload() = default;
  [[nodiscard]] virtual std::size_t points() const = 0;
  [[nodiscard]] virtual double sim_seconds() const = 0;
  /// Build the replication's topology (network + scenario) and discard it.
  virtual void build_only(std::size_t point, std::uint64_t seed) const = 0;
  /// The experiments:: call, optionally observed.
  [[nodiscard]] virtual Outputs run(std::size_t point, std::uint64_t seed,
                                    obs::RunObserver* obs) const = 0;
  /// The same replication wired by hand with `obs` and `probe` attached.
  [[nodiscard]] virtual Probed run_probed(std::size_t point, std::uint64_t seed,
                                          obs::RunObserver& obs, LayerProbe& probe) const = 0;
  /// Replications in the traced pass.
  [[nodiscard]] virtual std::size_t traced_replications() const = 0;
  /// The traced pass also prices each obs preset (fig7_grid only).
  [[nodiscard]] virtual bool price_obs_presets() const = 0;
};

// ------------------------------------------------------------- fig7_grid

class Fig7Grid final : public SimWorkload {
 public:
  Fig7Grid() {
    cfg_.warmup = sim::Time::ms(500);
    cfg_.measure = sim::Time::sec(2);
    for (const bool tcp : {false, true}) {
      for (const bool rts : {false, true}) {
        specs_.push_back(experiments::fig7_spec(
            rts, tcp ? scenario::Transport::kTcp : scenario::Transport::kUdp));
      }
    }
  }

  std::size_t points() const override { return specs_.size(); }
  double sim_seconds() const override { return (cfg_.warmup + cfg_.measure).to_sec(); }
  std::size_t traced_replications() const override { return 3 * specs_.size(); }
  bool price_obs_presets() const override { return true; }

  void build_only(std::size_t point, std::uint64_t seed) const override {
    sim::Simulator sim{seed};
    scenario::Network net{sim, net_config(specs_[point])};
    add_stations(net, specs_[point]);
  }

  Outputs run(std::size_t point, std::uint64_t seed, obs::RunObserver* obs) const override {
    const auto r = experiments::four_station_run(specs_[point], cfg_, seed, obs);
    return {{r.session1_kbps, r.session2_kbps}, r.events};
  }

  Probed run_probed(std::size_t point, std::uint64_t seed, obs::RunObserver& obs,
                    LayerProbe& probe) const override {
    const experiments::FourStationSpec& spec = specs_[point];
    sim::Simulator sim{seed};
    scenario::Network net{sim, net_config(spec)};
    net.attach_observer(obs);
    sim.scheduler().set_probe(&probe);
    add_stations(net, spec);
    scenario::RunConfig rc;
    rc.warmup = cfg_.warmup;
    rc.measure = cfg_.measure;
    rc.payload_bytes = spec.payload_bytes;
    const Clock::time_point t0 = Clock::now();
    const auto result = scenario::run_sessions(
        net, {{0, 1, spec.transport}, {2, 3, spec.transport}}, rc);
    Probed p;
    p.run_wall_s = seconds_since(t0);
    obs.finalize(sim);
    sim.scheduler().set_probe(nullptr);
    p.out = {{result.sessions[0].kbps, result.sessions[1].kbps},
             sim.scheduler().total_executed()};
    p.counters = obs.registry()->flatten();
    return p;
  }

 private:
  // Mirrors experiments::four_station_run's wiring.
  scenario::NetworkConfig net_config(const experiments::FourStationSpec& spec) const {
    scenario::NetworkConfig nc;
    nc.mac = experiments::mac_params_for(spec.rate, spec.rts);
    nc.shadowing = cfg_.shadowing;
    return nc;
  }
  static void add_stations(scenario::Network& net, const experiments::FourStationSpec& spec) {
    net.add_node({0.0, 0.0});
    net.add_node({spec.d12_m, 0.0});
    net.add_node({spec.d12_m + spec.d23_m, 0.0});
    net.add_node({spec.d12_m + spec.d23_m + spec.d34_m, 0.0});
  }

  experiments::ExperimentConfig cfg_;
  std::vector<experiments::FourStationSpec> specs_;
};

// ------------------------------------------------------------- manet_200

class Manet200 final : public SimWorkload {
 public:
  Manet200() {
    cfg_.warmup = sim::Time::ms(500);
    cfg_.measure = sim::Time::ms(250);
    spec_.manet.stations = 200;
    spec_.manet.mobility = scenario::ManetMobility::kWaypoint;
  }

  std::size_t points() const override { return 1; }
  double sim_seconds() const override {
    return (cfg_.warmup + cfg_.measure + kDrain).to_sec();
  }
  std::size_t traced_replications() const override { return 6; }
  bool price_obs_presets() const override { return false; }

  void build_only(std::size_t /*point*/, std::uint64_t seed) const override {
    sim::Simulator sim{seed};
    scenario::Network net{sim, net_config()};
    const scenario::ManetScenario manet{net, spec_.manet};
  }

  Outputs run(std::size_t /*point*/, std::uint64_t seed, obs::RunObserver* obs) const override {
    return outputs(experiments::manet_run(spec_, cfg_, seed, obs));
  }

  Probed run_probed(std::size_t /*point*/, std::uint64_t seed, obs::RunObserver& obs,
                    LayerProbe& probe) const override {
    sim::Simulator sim{seed};
    scenario::Network net{sim, net_config()};
    net.attach_observer(obs);
    sim.scheduler().set_probe(&probe);
    scenario::ManetScenario manet{net, spec_.manet};
    manet.start(cfg_.warmup, cfg_.warmup + cfg_.measure);
    const Clock::time_point t0 = Clock::now();
    sim.run_until(cfg_.warmup + cfg_.measure + kDrain);
    Probed p;
    p.run_wall_s = seconds_since(t0);
    obs.finalize(sim);
    sim.scheduler().set_probe(nullptr);

    // Same reduction as experiments::manet_run.
    experiments::ManetRun r;
    const scenario::ManetStats& stats = manet.stats();
    const net::AodvCounters aodv = manet.aodv_totals();
    r.goodput_kbps =
        static_cast<double>(stats.bytes_delivered) * 8.0 / 1000.0 / cfg_.measure.to_sec();
    r.delivery_ratio = stats.delivery_ratio();
    r.mean_delay_ms = stats.mean_delay_ms();
    r.sent = stats.sent;
    r.delivered = stats.delivered;
    r.events = sim.scheduler().total_executed();
    r.deliveries_scheduled = net.medium().deliveries_scheduled();
    r.deliveries_culled = net.medium().deliveries_culled();
    r.rreq_originated = aodv.rreq_originated;
    p.out = outputs(r);
    p.counters = obs.registry()->flatten();
    p.rreq_originated = aodv.rreq_originated;
    return p;
  }

 private:
  static constexpr sim::Time kDrain = sim::Time::ms(250);  // manet_run's drain

  scenario::NetworkConfig net_config() const {
    scenario::NetworkConfig nc;
    nc.mac = experiments::mac_params_for(spec_.rate, spec_.rts);
    return nc;
  }
  static Outputs outputs(const experiments::ManetRun& r) {
    return {{r.goodput_kbps, r.delivery_ratio, r.mean_delay_ms, static_cast<double>(r.sent),
             static_cast<double>(r.delivered), static_cast<double>(r.deliveries_scheduled),
             static_cast<double>(r.deliveries_culled), static_cast<double>(r.rreq_originated)},
            r.events};
  }

  experiments::ExperimentConfig cfg_;
  experiments::ManetRunSpec spec_;
};

// ----------------------------------------------------------- timed pass

void add_outputs(Digest& d, const Outputs& out) {
  for (const double v : out.values) d.add(v);
  d.add(out.events);
}

Result timed_pass(const SimWorkload& w, const Options& opt) {
  Result res;
  Digest digest;
  std::vector<double> setup_s;
  std::vector<double> request_ms;
  double sim_s = 0.0;
  double wall_s = 0.0;
  double observed_wall_s = 0.0;
  double raw_wall_s = 0.0;  // unscaled, for the report
  const std::size_t min_requests = min_samples_for(50.0);
  HostSpeed host;
  std::vector<Outputs> first_outputs;  // replication i of point i, for the repeat check

  // One untimed replication first, plain and observed, so page faults
  // and lazy initialisation do not land on the first timed sample.
  const std::uint64_t warmup_seed = replication_seed(opt.seed, ~std::uint64_t{0});
  (void)w.run(0, warmup_seed, nullptr);
  {
    obs::RunObserver observer{obs::ObsLevel::kFull};
    (void)w.run(0, warmup_seed, &observer);
  }
  (void)run_reference_kernel();
  (void)host.sample();

  // Replication i always has the same point and seed, so the set a run
  // covers depends only on --seed and how far the clock lets it get.
  const Clock::time_point start = Clock::now();
  std::uint64_t i = 0;
  while (seconds_since(start) < opt.seconds || request_ms.size() < min_requests) {
    const std::size_t point = i % w.points();
    const std::uint64_t seed = replication_seed(opt.seed, i);

    Clock::time_point t0 = Clock::now();
    const Outputs out = w.run(point, seed, nullptr);
    const double wall = seconds_since(t0);
    sim_s += w.sim_seconds();

    // Built after the plain call rather than after the observed one,
    // whose freed trace buffers would leave the build page-faulting.
    t0 = Clock::now();
    w.build_only(point, seed);
    const double setup = seconds_since(t0);
    ++res.attempted;
    add_outputs(digest, out);
    if (i < w.points()) first_outputs.push_back(out);

    obs::RunObserver observer{obs::ObsLevel::kFull};
    t0 = Clock::now();
    const Outputs observed = w.run(point, seed, &observer);
    const double observed_wall = seconds_since(t0);
    if (observed != out) {
      ++res.failed;
      res.note("replication " + std::to_string(i) + ": full-preset outputs differ from plain");
    }

    const double scale = host.sample();
    setup_s.push_back(setup * scale);
    request_ms.push_back(wall * scale * 1e3);
    wall_s += wall * scale;
    raw_wall_s += wall;
    observed_wall_s += observed_wall * scale;
    ++i;
  }
  const double loop_s = seconds_since(start);

  // Same-seed repeats: the first replication of every point, again.
  for (std::size_t r = 0; r < first_outputs.size(); ++r) {
    ++res.attempted;
    if (w.run(r, replication_seed(opt.seed, r), nullptr) != first_outputs[r]) {
      ++res.failed;
      res.note("replication " + std::to_string(r) + ": same-seed repeat differs");
    }
  }

  res.set("setup_s", median_of(setup_s));
  res.set("sim_s_per_wall_s", sim_s / wall_s);
  res.set("observed_sim_s_per_wall_s", sim_s / observed_wall_s);
  res.set("request_ms.p50", percentile(request_ms, 50.0));
  res.set("requests_per_s", static_cast<double>(request_ms.size()) / wall_s);
  res.set("peak_rss_mb", peak_rss_mb());
  res.digest = digest.hex();
  std::ostringstream os;
  os << "timed pass: " << request_ms.size() << " replications, each also observed under `full` ("
     << setup_s.size() << " setup samples, highest reportable request percentile p"
     << highest_reportable(request_ms.size()) << "), loop " << loop_s << " s";
  res.note(os.str());
  res.note(host.report(sim_s / raw_wall_s));
  return res;
}

// ----------------------------------------------------------- traced pass

double sum_matching(const std::map<std::string, double>& flat, const std::string& prefix,
                    const std::string& field) {
  const std::string suffix = "." + field;
  double total = 0.0;
  for (const auto& [key, value] : flat) {
    if (key.size() > prefix.size() + suffix.size() && key.compare(0, prefix.size(), prefix) == 0 &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += value;
    }
  }
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median wall time of running every replication of the set under
/// `level`, over `rounds` rounds. Also checks outputs against `plain`.
double preset_wall(const SimWorkload& w, const std::vector<std::uint64_t>& seeds,
                   const std::vector<Outputs>& plain, obs::ObsLevel level, int rounds,
                   Result& res) {
  std::vector<double> walls;
  for (int r = 0; r < rounds; ++r) {
    double total = 0.0;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      std::unique_ptr<obs::RunObserver> observer;
      if (level != obs::ObsLevel::kOff) observer = std::make_unique<obs::RunObserver>(level);
      const Clock::time_point t0 = Clock::now();
      const Outputs out = w.run(k % w.points(), seeds[k], observer.get());
      total += seconds_since(t0);
      if (out != plain[k]) {
        res.check_failed("preset " + std::string{obs::obs_level_name(level)} +
                         " changed the outputs of replication " + std::to_string(k));
      }
    }
    walls.push_back(total);
  }
  return median_of(walls);
}

Result traced_pass(const SimWorkload& w, const Options& opt) {
  Result res;
  Digest digest;
  const std::size_t n = w.traced_replications();
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t k = 0; k < n; ++k) seeds.push_back(replication_seed(opt.seed, k));

  std::vector<Outputs> plain;
  double plain_wall_s = 0.0;
  double probed_wall_s = 0.0;
  double probed_run_wall_s = 0.0;
  double sim_s = 0.0;
  double events = 0.0;
  AllocCount allocs{};
  std::map<std::string, double> counters;  // summed over the set
  double queue_high_water = 0.0;
  double rreq = 0.0;
  std::map<std::string, LayerProbe::Stat> by_label;
  std::map<std::string_view, LayerProbe::Stat> by_layer;
  std::set<std::string> unknown_labels;

  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t point = k % w.points();
    const AllocCount a0 = alloc_count();
    Clock::time_point t0 = Clock::now();
    const Outputs out = w.run(point, seeds[k], nullptr);
    plain_wall_s += seconds_since(t0);
    const AllocCount a1 = alloc_count();
    allocs.allocations += a1.allocations - a0.allocations;
    allocs.bytes += a1.bytes - a0.bytes;
    plain.push_back(out);
    add_outputs(digest, out);
    ++res.attempted;

    obs::RunObserver observer{obs::ObsLevel::kMetrics};
    LayerProbe probe;
    t0 = Clock::now();
    const Probed p = w.run_probed(point, seeds[k], observer, probe);
    probed_wall_s += seconds_since(t0);
    probed_run_wall_s += p.run_wall_s;
    if (p.out != out) {
      ++res.failed;
      res.note("replication " + std::to_string(k) + ": traced outputs differ from untraced");
    }
    sim_s += w.sim_seconds();
    events += static_cast<double>(out.events);
    rreq += static_cast<double>(p.rreq_originated);
    for (const auto& [key, value] : p.counters) {
      if (key == "scheduler.queue_high_water") {
        queue_high_water = std::max(queue_high_water, value);
      } else {
        counters[key] += value;
      }
    }
    for (const auto& [label, stat] : probe.by_label()) {
      const std::string name = label == nullptr ? std::string{kUnlabeled} : std::string{label};
      by_label[name].count += stat.count;
      by_label[name].wall_s += stat.wall_s;
      const auto layer = layer_of(label);
      if (!layer) {
        unknown_labels.insert(name);
        continue;
      }
      by_layer[*layer].count += stat.count;
      by_layer[*layer].wall_s += stat.wall_s;
    }
  }
  for (const std::string& label : unknown_labels) {
    res.check_failed("event label '" + label + "' has a prefix the label->layer map (util.cpp) "
                     "does not know");
  }

  auto layer_events = [&](std::string_view layer) {
    const auto it = by_layer.find(layer);
    return it == by_layer.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  auto layer_wall = [&](std::string_view layer) {
    const auto it = by_layer.find(layer);
    return it == by_layer.end() ? 0.0 : it->second.wall_s;
  };
  double callback_wall = 0.0;
  for (const auto& [layer, stat] : by_layer) callback_wall += stat.wall_s;

  const double transmissions = counters["phy.medium.transmissions"];
  const double scheduled = counters["phy.medium.deliveries_scheduled"];
  const double culled = counters["phy.medium.deliveries_culled"];
  const double frames_delivered = sum_matching(counters, "mac.sta", "msdu_delivered_up");
  const double slot_events =
      by_label.contains("mac.slot") ? static_cast<double>(by_label["mac.slot"].count) : 0.0;

  res.set("sim.events_per_sim_s", events / sim_s);
  res.set("sim.cancelled_per_scheduled",
          ratio(counters["scheduler.total_cancelled"], counters["scheduler.total_scheduled"]));
  res.set("sim.queue_high_water", queue_high_water);
  res.set("sim.ns_per_event", plain_wall_s / events * 1e9);
  res.set("sim.host_share", ratio(probed_run_wall_s - callback_wall, probed_run_wall_s));
  res.set("phy.events_per_sim_s", layer_events("phy") / sim_s);
  res.set("phy.deliveries_per_tx", ratio(scheduled, transmissions));
  res.set("phy.decoded_per_delivery",
          ratio(sum_matching(counters, "phy.sta", "frames_decoded"), scheduled));
  res.set("phy.ns_per_event", ratio(layer_wall("phy"), layer_events("phy")) * 1e9);
  res.set("phy.host_share", ratio(layer_wall("phy"), probed_run_wall_s));
  res.set("spatial.culled_frac", ratio(culled, scheduled + culled));
  res.set("mac.events_per_sim_s", layer_events("mac") / sim_s);
  res.set("mac.slot_events_per_backoff_slot",
          ratio(slot_events, sum_matching(counters, "mac.sta", "backoff_slots_total")));
  res.set("mac.attempts_per_success", ratio(sum_matching(counters, "mac.sta", "tx_data"),
                                            sum_matching(counters, "mac.sta", "tx_success")));
  res.set("mac.ns_per_event", ratio(layer_wall("mac"), layer_events("mac")) * 1e9);
  res.set("mac.host_share", ratio(layer_wall("mac"), probed_run_wall_s));
  res.set("aodv.rreq_per_sim_s", rreq / sim_s);
  res.set("net.forwarded_per_delivered", ratio(sum_matching(counters, "net.sta", "ip_forwarded"),
                                               sum_matching(counters, "net.sta", "ip_rx_delivered")));
  res.set("transport.events_per_sim_s", layer_events("transport") / sim_s);
  res.set("transport.host_share", ratio(layer_wall("transport"), probed_run_wall_s));
  res.set("tcp.retransmits_per_segment",
          ratio(sum_matching(counters, "tcp.sta", "retransmits"),
                sum_matching(counters, "tcp.sta", "data_segments_tx")));
  res.set("app.host_share", ratio(layer_wall("app"), probed_run_wall_s));
  res.set("unlabeled.events_per_sim_s", layer_events(kUnlabeled) / sim_s);
  res.set("unlabeled.host_share", ratio(layer_wall(kUnlabeled), probed_run_wall_s));
  res.set("alloc.per_event", static_cast<double>(allocs.allocations) / events);
  res.set("alloc.bytes_per_event", static_cast<double>(allocs.bytes) / events);
  res.set("alloc.per_delivered_frame",
          ratio(static_cast<double>(allocs.allocations), frames_delivered));
  res.set("trace_overhead_pct", (probed_wall_s / plain_wall_s - 1.0) * 100.0);

  if (w.price_obs_presets()) {
    // Each pillar priced as its increment over the previous preset on
    // the ladder off < metrics < trace < full < journeys.
    constexpr int kRounds = 5;
    const obs::ObsLevel ladder[] = {obs::ObsLevel::kOff, obs::ObsLevel::kMetrics,
                                    obs::ObsLevel::kTrace, obs::ObsLevel::kFull,
                                    obs::ObsLevel::kJourneys};
    const char* names[] = {nullptr, "obs.metrics_pct", "obs.trace_pct", "obs.profile_pct",
                           "obs.journeys_pct"};
    double prev = 0.0;
    for (std::size_t l = 0; l < std::size(ladder); ++l) {
      const double wall = preset_wall(w, seeds, plain, ladder[l], kRounds, res);
      if (l > 0) res.set(names[l], (wall / prev - 1.0) * 100.0);
      prev = wall;
    }
  }

  std::ostringstream os;
  os << "traced pass: " << n << " replications, " << static_cast<std::uint64_t>(events)
     << " events, " << sim_s << " simulated s; wall per layer is inclusive of everything an "
     << "event's callback calls (true self time needs in-program spans)";
  res.note(os.str());
  res.note("layer         events    share_of_events  ns/event  host_share");
  for (const std::string_view layer : event_layers()) {
    const double ev = layer_events(layer);
    std::ostringstream row;
    row.precision(4);
    row << "  " << layer << std::string(12 - std::min<std::size_t>(12, layer.size()), ' ')
        << static_cast<std::uint64_t>(ev) << "  " << ratio(ev, events) << "  "
        << ratio(layer_wall(layer), ev) * 1e9 << "  "
        << ratio(layer_wall(layer), probed_run_wall_s);
    res.note(row.str());
  }
  res.note("  (scheduler + probe, outside callbacks) host_share " +
           json_number(ratio(probed_run_wall_s - callback_wall, probed_run_wall_s)));
  for (const auto& [label, stat] : by_label) {
    res.note("  label " + label + ": " + std::to_string(stat.count) + " events");
  }
  res.digest = digest.hex();
  return res;
}

Result run_sim(const SimWorkload& w, const Options& opt) {
  return opt.trace ? traced_pass(w, opt) : timed_pass(w, opt);
}

}  // namespace

Result run_fig7_grid(const Options& opt) { return run_sim(Fig7Grid{}, opt); }
Result run_manet_200(const Options& opt) { return run_sim(Manet200{}, opt); }

}  // namespace perfbench
