#include "experiments/campaigns.hpp"

#include <stdexcept>

#include "experiments/manet.hpp"
#include "phy/calibration.hpp"
#include "scenario/network.hpp"

namespace adhoc::experiments {

namespace {

scenario::Transport transport_of(const campaign::RunSpec& spec) {
  return spec.flag("tcp") ? scenario::Transport::kTcp : scenario::Transport::kUdp;
}

campaign::RunMetrics four_station_metrics(const FourStationRun& run) {
  return {{{"s1_kbps", run.session1_kbps}, {"s2_kbps", run.session2_kbps}}, run.events, {}};
}

/// Run one replication under a per-run observer (when cfg asks for one)
/// and fold its outcome snapshot (no host wall time) into the campaign
/// metrics. `fn` receives the observer pointer (null at kOff) and
/// returns the plain metrics; each worker builds a private observer, so
/// no synchronisation is needed.
template <typename Fn>
campaign::RunMetrics observed(const ExperimentConfig& cfg, Fn&& fn) {
  if (cfg.obs_level == obs::ObsLevel::kOff) return fn(nullptr);
  obs::RunObserver observer{cfg.obs_level};
  campaign::RunMetrics m = fn(&observer);
  m.obs = observer.outcome_snapshot();
  return m;
}

/// One fig7-layout replication with overridable PHY/MAC knobs — the unit
/// the ablation campaigns sweep. Mirrors the fig7 experiment except for
/// the knob under study.
FourStationRun fig7_variant_run(double pcs_range_m, phy::Rate control_rate,
                                bool ack_requires_idle, bool ns2_phy,
                                const ExperimentConfig& cfg, std::uint64_t seed,
                                obs::RunObserver* obs) {
  sim::Simulator sim{seed};
  scenario::NetworkConfig nc;
  nc.shadowing = cfg.shadowing;
  nc.mac = mac_params_for(phy::Rate::kR11, /*rts=*/false);
  nc.mac.control_rate = control_rate;
  nc.mac.ack_requires_idle_medium = ack_requires_idle;
  if (ns2_phy) {
    nc.phy_override = phy::ns2_style_params(phy::default_outdoor_model());
  } else {
    auto phy = phy::paper_calibrated_params(phy::default_outdoor_model());
    // pcs_range_m <= 0 keeps the calibrated carrier-sense threshold.
    if (pcs_range_m > 0.0) {
      phy.cs_threshold_dbm =
          phy::threshold_for_range(phy::default_outdoor_model(), phy.tx_power_dbm, pcs_range_m);
    }
    nc.phy_override = phy;
  }

  scenario::Network net{sim, nc};
  if (obs != nullptr) net.attach_observer(*obs);
  net.add_node({0, 0});
  net.add_node({25, 0});
  net.add_node({107.5, 0});
  net.add_node({132.5, 0});
  scenario::RunConfig rc;
  rc.warmup = cfg.warmup;
  rc.measure = cfg.measure;
  const auto r = scenario::run_sessions(
      net, {{0, 1, scenario::Transport::kUdp}, {2, 3, scenario::Transport::kUdp}}, rc);
  if (obs != nullptr) obs->finalize(sim);
  return {r.sessions[0].kbps, r.sessions[1].kbps, sim.scheduler().total_executed()};
}

}  // namespace

const std::vector<std::string>& campaign_names() {
  static const std::vector<std::string> names{"fig2",  "rates",      "fig3",   "fig7",
                                              "fig9",  "fig11",      "fig12",  "saturation",
                                              "faults", "manet_sweep"};
  return names;
}

ExperimentCampaign campaign_by_name(const std::string& name, const ExperimentConfig& cfg,
                                    std::uint32_t probes) {
  if (name == "fig2") return fig2_campaign(cfg);
  if (name == "rates") return two_node_rates_campaign(cfg);
  if (name == "fig3") return fig3_campaign(cfg, probes);
  if (name == "fig7" || name == "fig9" || name == "fig11" || name == "fig12") {
    FourStationSpec base;
    if (name == "fig7") base = fig7_spec(false, scenario::Transport::kUdp);
    if (name == "fig9") base = fig9_spec(false, scenario::Transport::kUdp);
    if (name == "fig11") base = fig11_spec(false, scenario::Transport::kUdp);
    if (name == "fig12") base = fig12_spec(false, scenario::Transport::kUdp);
    ExperimentCampaign def = four_station_campaign(base, cfg);
    def.plan.name = name;
    return def;
  }
  if (name == "saturation") return saturation_campaign({1, 2, 3, 5, 8, 12}, cfg);
  if (name == "faults") return fig7_faults_campaign(cfg);
  if (name == "manet_sweep") return manet_sweep_campaign({5, 10, 25, 50, 100, 200}, cfg);
  std::string list;
  for (const std::string& n : campaign_names()) {
    if (!list.empty()) list += '|';
    list += n;
  }
  throw std::invalid_argument("unknown grid '" + name + "' (valid: " + list + ")");
}

ExperimentCampaign fig2_campaign(const ExperimentConfig& cfg) {
  campaign::Campaign plan;
  plan.name = "fig2";
  plan.grid.add("rts", {0, 1}).add("tcp", {0, 1});
  plan.seeds = cfg.seeds;
  auto run = [cfg](const campaign::RunSpec& spec) -> campaign::RunMetrics {
    TwoNodeSpec tn{phy::Rate::kR11, spec.flag("rts"), transport_of(spec), 512, 10.0};
    return observed(cfg, [&](obs::RunObserver* obs) -> campaign::RunMetrics {
      const auto r = two_node_run(tn, cfg, spec.seed, obs);
      return {{{"kbps", r.value}}, r.events, {}};
    });
  };
  return {std::move(plan), std::move(run)};
}

ExperimentCampaign two_node_rates_campaign(const ExperimentConfig& cfg) {
  campaign::Campaign plan;
  plan.name = "two-node-rates";
  plan.grid.add("rate_mbps", {1, 2, 5.5}).add("tcp", {0, 1});
  plan.seeds = cfg.seeds;
  auto run = [cfg](const campaign::RunSpec& spec) -> campaign::RunMetrics {
    TwoNodeSpec tn{phy::rate_from_mbps(spec.param("rate_mbps")), false, transport_of(spec), 512,
                   10.0};
    return observed(cfg, [&](obs::RunObserver* obs) -> campaign::RunMetrics {
      const auto r = two_node_run(tn, cfg, spec.seed, obs);
      return {{{"kbps", r.value}}, r.events, {}};
    });
  };
  return {std::move(plan), std::move(run)};
}

ExperimentCampaign fig3_campaign(const ExperimentConfig& cfg, std::uint32_t probes) {
  campaign::Campaign plan;
  plan.name = "fig3";
  plan.grid.add("rate_mbps", {11, 5.5, 2, 1}).add("distance_m", fig3_distances());
  plan.seeds = cfg.seeds;
  auto run = [cfg, probes](const campaign::RunSpec& spec) -> campaign::RunMetrics {
    LossSweepSpec ls;
    ls.rate = phy::rate_from_mbps(spec.param("rate_mbps"));
    ls.probes = probes;
    return observed(cfg, [&](obs::RunObserver* obs) -> campaign::RunMetrics {
      const auto r = loss_run(ls, spec.param("distance_m"), cfg, spec.seed, obs);
      return {{{"loss", r.value}}, r.events, {}};
    });
  };
  return {std::move(plan), std::move(run)};
}

ExperimentCampaign four_station_campaign(const FourStationSpec& base,
                                         const ExperimentConfig& cfg) {
  campaign::Campaign plan;
  plan.name = "four-station";
  plan.grid.add("rts", {0, 1}).add("tcp", {0, 1});
  plan.seeds = cfg.seeds;
  auto run = [base, cfg](const campaign::RunSpec& spec) -> campaign::RunMetrics {
    FourStationSpec fs = base;
    fs.rts = spec.flag("rts");
    fs.transport = transport_of(spec);
    return observed(cfg, [&](obs::RunObserver* obs) {
      return four_station_metrics(four_station_run(fs, cfg, spec.seed, obs));
    });
  };
  return {std::move(plan), std::move(run)};
}

ExperimentCampaign saturation_campaign(std::vector<double> station_counts,
                                       const ExperimentConfig& cfg) {
  campaign::Campaign plan;
  plan.name = "saturation";
  plan.grid.add("stations", std::move(station_counts)).add("rts", {0, 1});
  plan.seeds = cfg.seeds;
  auto run = [cfg](const campaign::RunSpec& spec) -> campaign::RunMetrics {
    SaturationSpec ss;
    ss.n_stations = static_cast<std::uint32_t>(spec.param("stations"));
    ss.rts = spec.flag("rts");
    return observed(cfg, [&](obs::RunObserver* obs) -> campaign::RunMetrics {
      const auto r = saturation_run(ss, cfg, spec.seed, obs);
      return {{{"kbps", r.value}}, r.events, {}};
    });
  };
  return {std::move(plan), std::move(run)};
}

ExperimentCampaign manet_sweep_campaign(std::vector<double> station_counts,
                                        const ExperimentConfig& cfg) {
  campaign::Campaign plan;
  plan.name = "manet_sweep";
  plan.grid.add("stations", std::move(station_counts))
      .add("mobility", {0, 1, 2})
      .add("rts", {0, 1});
  plan.seeds = cfg.seeds;
  auto run = [cfg](const campaign::RunSpec& spec) -> campaign::RunMetrics {
    ManetRunSpec ms;
    ms.manet.stations = static_cast<std::size_t>(spec.param("stations"));
    ms.manet.mobility = static_cast<scenario::ManetMobility>(
        static_cast<std::uint8_t>(spec.param("mobility")));
    ms.rts = spec.flag("rts");
    return observed(cfg, [&](obs::RunObserver* obs) -> campaign::RunMetrics {
      const ManetRun r = manet_run(ms, cfg, spec.seed, obs);
      return {{{"kbps", r.goodput_kbps},
               {"delivery", r.delivery_ratio},
               {"delay_ms", r.mean_delay_ms},
               {"culled_frac", r.culled_fraction()}},
              r.events,
              {}};
    });
  };
  return {std::move(plan), std::move(run)};
}

ExperimentCampaign ablation_pcs_campaign(const ExperimentConfig& cfg) {
  campaign::Campaign plan;
  plan.name = "ablation-pcs";
  plan.grid.add("pcs_m", {60, 150, 250});
  plan.seeds = cfg.seeds;
  auto run = [cfg](const campaign::RunSpec& spec) {
    return observed(cfg, [&](obs::RunObserver* obs) {
      return four_station_metrics(fig7_variant_run(spec.param("pcs_m"), phy::Rate::kR2,
                                                   /*ack_requires_idle=*/true, /*ns2_phy=*/false,
                                                   cfg, spec.seed, obs));
    });
  };
  return {std::move(plan), std::move(run)};
}

ExperimentCampaign ablation_control_rate_campaign(const ExperimentConfig& cfg) {
  campaign::Campaign plan;
  plan.name = "ablation-control-rate";
  plan.grid.add("control_mbps", {2, 1});
  plan.seeds = cfg.seeds;
  auto run = [cfg](const campaign::RunSpec& spec) {
    return observed(cfg, [&](obs::RunObserver* obs) {
      return four_station_metrics(
          fig7_variant_run(150.0, phy::rate_from_mbps(spec.param("control_mbps")),
                           /*ack_requires_idle=*/true, /*ns2_phy=*/false, cfg, spec.seed, obs));
    });
  };
  return {std::move(plan), std::move(run)};
}

ExperimentCampaign ablation_ack_policy_campaign(const ExperimentConfig& cfg) {
  campaign::Campaign plan;
  plan.name = "ablation-ack-policy";
  plan.grid.add("ack_idle", {1, 0});
  plan.seeds = cfg.seeds;
  auto run = [cfg](const campaign::RunSpec& spec) {
    return observed(cfg, [&](obs::RunObserver* obs) {
      return four_station_metrics(fig7_variant_run(150.0, phy::Rate::kR2, spec.flag("ack_idle"),
                                                   /*ns2_phy=*/false, cfg, spec.seed, obs));
    });
  };
  return {std::move(plan), std::move(run)};
}

ExperimentCampaign ablation_phy_campaign(const ExperimentConfig& cfg) {
  campaign::Campaign plan;
  plan.name = "ablation-phy";
  plan.grid.add("ns2", {0, 1});
  plan.seeds = cfg.seeds;
  auto run = [cfg](const campaign::RunSpec& spec) {
    // pcs -1: compare the two calibrations as shipped, no PCS override.
    return observed(cfg, [&](obs::RunObserver* obs) {
      return four_station_metrics(fig7_variant_run(-1.0, phy::Rate::kR2,
                                                   /*ack_requires_idle=*/true, spec.flag("ns2"),
                                                   cfg, spec.seed, obs));
    });
  };
  return {std::move(plan), std::move(run)};
}

ExperimentCampaign fig7_faults_campaign(const ExperimentConfig& cfg) {
  campaign::Campaign plan;
  plan.name = "fig7-faults";
  plan.grid.add("fault", {0, 1, 2});
  plan.seeds = cfg.seeds;
  auto run = [cfg](const campaign::RunSpec& spec) {
    ExperimentConfig c = cfg;
    // Fault times are fractions of the measurement window so the same
    // axis works at smoke-test and full-length durations alike.
    const double t0 = cfg.warmup.to_sec();
    const double span = cfg.measure.to_sec();
    const int fault = static_cast<int>(spec.param("fault"));
    if (fault == 1) {
      // Jammer midway between the two sessions (fig7 span is 132.5 m),
      // offset off-axis so neither link is fully shadowed by geometry.
      c.faults.jam(sim::Time::from_sec(t0 + 0.25 * span), sim::Time::from_sec(0.25 * span),
                   {66.25, 20.0}, 15.0);
    } else if (fault == 2) {
      // Crash & recovery of S3 (the second session's sender).
      c.faults.node_off(2, sim::Time::from_sec(t0 + 0.25 * span));
      c.faults.node_on(2, sim::Time::from_sec(t0 + 0.65 * span));
    }
    const FourStationSpec fs = fig7_spec(/*rts=*/false, scenario::Transport::kUdp);
    return observed(c, [&](obs::RunObserver* obs) {
      return four_station_metrics(four_station_run(fs, c, spec.seed, obs));
    });
  };
  return {std::move(plan), std::move(run)};
}

}  // namespace adhoc::experiments
