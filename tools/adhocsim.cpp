// adhocsim — command-line front end for the 802.11b ad hoc simulator.
//
//   adhocsim table2
//   adhocsim two-node [--rate 11] [--rts] [--tcp] [--distance 10]
//                     [--payload 512] [--seconds 8] [--seeds 3]
//   adhocsim four-station [--rate 11] [--d23 82.5] [--rts] [--tcp] [--reversed]
//   adhocsim range [--rate 2]
//   adhocsim saturation [--stations 8] [--rts]
//   adhocsim delay [--rate 11] [--distance 15] [--load-mbps 1.5]
//   adhocsim run --scenario fig7 [--seed 1] [--obs-level full]
//                [--trace-json t.json] [--trace-csv t.csv] [--metrics m.json]
//                [--journeys j.csv] [--journey-sample N]
//                [--fault-plan NAME|FILE|SPEC]
//   adhocsim run --scenario manet [--stations 50] [--placement grid|uniform]
//                [--mobility static|waypoint|gauss-markov] [--field M]
//                [--spacing M] [--flows N] [--flow-kbps K]
//   adhocsim campaign --grid fig2|rates|fig3|fig7|fig9|fig11|fig12|saturation|faults|manet_sweep
//                     [--jobs N] [--seeds N] [--seconds S] [--obs-level L]
//                     [--telemetry PATH|-] [--shard I --shards N]
//                     [--fault-plan NAME|FILE|SPEC] [--scorecard DIR]
//   adhocsim serve --socket PATH [--cache DIR] [--cache-entries N]
//                  [--cache-mb M] [--jobs N] [--quiet]
//                  [--log-format text|json] [--shutdown-grace-ms MS]
//                  [--flight-requests N] [--flight-errors K]
//                  [--flight-dump PATH]
//   adhocsim submit --socket PATH [--grid G] [--seeds N] [--seconds S]
//                   [--warmup W] [--obs-level L] [--fault-plan P]
//                   [--probes N] [--scorecard DIR] [--quiet]
//   adhocsim submit --socket PATH --stats | --ping | --shutdown
//                   | --metrics [--format json|prometheus] | --debug
//   adhocsim version | --version
//
// Every subcommand maps onto the library's experiments API; run with no
// arguments for usage.

#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "analysis/bianchi.hpp"
#include "analysis/throughput_model.hpp"
#include "app/cbr.hpp"
#include "app/sink.hpp"
#include "cache/code_version.hpp"
#include "cache/result_cache.hpp"
#include "campaign/campaign.hpp"
#include "cli_args.hpp"
#include "cli_paths.hpp"
#include "faults/fault_plan.hpp"
#include "obs/observer.hpp"
#include "obs/svc/clock.hpp"
#include "obs/svc/log.hpp"
#include "obs/svc/telemetry.hpp"
#include "experiments/campaigns.hpp"
#include "experiments/experiments.hpp"
#include "experiments/manet.hpp"
#include "report/json_read.hpp"
#include "report/scorecard.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "stats/table.hpp"

using namespace adhoc;

namespace {

phy::Rate rate_flag(const tools::CliArgs& args) {
  return phy::rate_from_mbps(args.num("rate", 11.0));
}

experiments::ExperimentConfig config_flag(const tools::CliArgs& args) {
  experiments::ExperimentConfig cfg;
  cfg.seeds.clear();
  const auto n = args.positive_integer("seeds", 3);
  for (std::int64_t s = 1; s <= n; ++s) cfg.seeds.push_back(static_cast<std::uint64_t>(s));
  cfg.measure = sim::Time::from_sec(args.positive_num("seconds", 8.0));
  cfg.warmup = sim::Time::ms(500);
  // Scripted disturbances: builtin plan name, file path, or inline spec
  // (see faults::fault_plan_grammar()). Parse errors propagate to main's
  // handler, which prints them (grammar included) and exits non-zero.
  if (args.has("fault-plan")) {
    cfg.faults = faults::load_fault_plan(args.str("fault-plan", ""));
  }
  return cfg;
}

int cmd_table2() {
  const analysis::ThroughputModel model{analysis::Assumptions::paper_fit()};
  stats::Table t({"rate", "m (B)", "access", "max throughput (Mbps)"});
  for (const auto& cell : analysis::paper_table2()) {
    const double v = cell.rts ? model.max_throughput_rts_mbps(cell.m_bytes, cell.rate)
                              : model.max_throughput_basic_mbps(cell.m_bytes, cell.rate);
    t.add_row({std::string(phy::rate_name(cell.rate)), std::to_string(cell.m_bytes),
               cell.rts ? "RTS/CTS" : "basic", stats::Table::fmt(v)});
  }
  std::cout << t.to_string();
  return 0;
}

int cmd_two_node(const tools::CliArgs& args) {
  experiments::TwoNodeSpec spec;
  spec.rate = rate_flag(args);
  spec.rts = args.has("rts");
  spec.transport = args.has("tcp") ? scenario::Transport::kTcp : scenario::Transport::kUdp;
  spec.distance_m = args.num("distance", 10.0);
  spec.payload_bytes = static_cast<std::uint32_t>(args.integer("payload", 512));
  const auto cfg = config_flag(args);
  const auto r = experiments::two_node_throughput(spec, cfg);
  const analysis::ThroughputModel model{analysis::Assumptions::standard()};
  const double bound = spec.rts ? model.max_throughput_rts_mbps(spec.payload_bytes, spec.rate)
                                : model.max_throughput_basic_mbps(spec.payload_bytes, spec.rate);
  std::cout << phy::rate_name(spec.rate) << (spec.rts ? " RTS/CTS " : " basic ")
            << (args.has("tcp") ? "TCP" : "UDP") << " @ " << spec.distance_m << " m\n"
            << "  goodput : " << r.mean / 1000.0 << " +- " << r.ci95 / 1000.0 << " Mbps\n"
            << "  eq(1/2) : " << bound << " Mbps (" << r.mean / 10.0 / bound << "%)\n";
  return 0;
}

int cmd_four_station(const tools::CliArgs& args) {
  experiments::FourStationSpec spec;
  spec.rate = rate_flag(args);
  spec.rts = args.has("rts");
  spec.transport = args.has("tcp") ? scenario::Transport::kTcp : scenario::Transport::kUdp;
  spec.d23_m = args.num("d23", 82.5);
  spec.session2_reversed = args.has("reversed");
  const auto cfg = config_flag(args);
  const auto r = experiments::four_station(spec, cfg);
  std::cout << "S1->S2: " << r.session1_kbps.mean << " +- " << r.session1_kbps.ci95
            << " kbps\n"
            << (spec.session2_reversed ? "S4->S3: " : "S3->S4: ") << r.session2_kbps.mean
            << " +- " << r.session2_kbps.ci95 << " kbps\n";
  return 0;
}

int cmd_range(const tools::CliArgs& args) {
  const phy::Rate rate = rate_flag(args);
  auto cfg = config_flag(args);
  std::cout << "Estimating TX range at " << phy::rate_name(rate) << " (50% loss crossing)...\n";
  const double range = experiments::estimate_tx_range(rate, cfg);
  std::cout << "  " << range << " m  (paper Table 3: 30/70/90-100/110-130 m for "
               "11/5.5/2/1 Mbps)\n";
  return 0;
}

int cmd_saturation(const tools::CliArgs& args) {
  experiments::SaturationSpec spec;
  spec.n_stations = static_cast<std::uint32_t>(args.integer("stations", 8));
  spec.rts = args.has("rts");
  const auto cfg = config_flag(args);
  const auto simulated = experiments::saturation_throughput(spec, cfg);
  analysis::BianchiParams bp;
  bp.n_stations = spec.n_stations;
  bp.rts = spec.rts;
  const auto model = analysis::bianchi_saturation(bp);
  std::cout << spec.n_stations << " saturated stations ("
            << (spec.rts ? "RTS/CTS" : "basic") << ")\n"
            << "  simulated : " << simulated.mean << " Mbps aggregate\n"
            << "  bianchi   : " << model.throughput_mbps << " Mbps (p=" << model.p << ")\n";
  return 0;
}

int cmd_delay(const tools::CliArgs& args) {
  const phy::Rate rate = rate_flag(args);
  const double distance = args.num("distance", 15.0);
  const double load_mbps = args.num("load-mbps", 1.0);

  sim::Simulator sim{static_cast<std::uint64_t>(args.integer("seed", 1))};
  scenario::NetworkConfig nc;
  nc.mac = experiments::mac_params_for(rate, args.has("rts"));
  scenario::Network net{sim, nc};
  net.add_node({0, 0});
  net.add_node({distance, 0});
  app::UdpSink sink{sim, net.udp(1), 9000};
  auto& sock = net.udp(0).open(9000);
  app::CbrSource cbr{sim, sock, net.node(1).ip(), 9000, 512,
                     app::CbrSource::interval_for_rate(512, load_mbps * 1e6)};
  cbr.start(sim::Time::ms(10));
  sim.run_until(sim::Time::sec(10));

  const auto& d = sink.delay_ms();
  std::cout << "One-way delay at " << phy::rate_name(rate) << ", " << distance << " m, "
            << load_mbps << " Mbps offered (" << d.count() << " packets):\n"
            << "  p50 " << d.median() << " ms, p95 " << d.percentile(95) << " ms, p99 "
            << d.percentile(99) << " ms, max " << d.max() << " ms\n";
  return 0;
}

std::optional<obs::ObsLevel> obs_level_flag(const tools::CliArgs& args,
                                            const std::string& fallback) {
  const std::string name = args.str("obs-level", fallback);
  const auto level = obs::obs_level_from_string(name);
  if (!level) {
    std::cerr << "adhocsim: unknown --obs-level '" << name
              << "' (off|metrics|trace|full|journeys)\n";
  }
  return level;
}

/// One fully-observed replication: runs a paper scenario under a
/// RunObserver and exports the trace / metrics snapshots.
int cmd_run(const tools::CliArgs& args) {
  const std::string scen =
      args.choice("scenario", "fig7", {"two-node", "fig7", "fig9", "fig11", "fig12", "manet"});
  const auto level = obs_level_flag(args, "full");
  if (!level) return 1;
  auto cfg = config_flag(args);
  const auto seed = static_cast<std::uint64_t>(args.positive_integer("seed", 1));
  const bool rts = args.has("rts");
  const auto transport =
      args.has("tcp") ? scenario::Transport::kTcp : scenario::Transport::kUdp;

  obs::RunObserver observer{*level};
  const std::string trace_json = args.str("trace-json", "");
  const std::string trace_csv = args.str("trace-csv", "");
  const std::string metrics = args.str("metrics", "");
  // Reject export flags the chosen level cannot serve up front, before
  // spending wall time on the simulation.
  if ((!trace_json.empty() || !trace_csv.empty()) && observer.trace_sink() == nullptr) {
    std::cerr << "adhocsim run: " << (trace_json.empty() ? "--trace-csv" : "--trace-json")
              << " needs --obs-level trace or full\n";
    return 1;
  }
  if (!metrics.empty() && observer.registry() == nullptr) {
    std::cerr << "adhocsim run: --metrics needs --obs-level metrics or higher\n";
    return 1;
  }
  const std::string journeys_csv = args.str("journeys", "");
  if (!journeys_csv.empty() && observer.journeys() == nullptr) {
    std::cerr << "adhocsim run: --journeys needs --obs-level journeys\n";
    return 1;
  }
  if (observer.journeys() != nullptr) {
    observer.journeys()->set_sample_every(
        static_cast<std::uint32_t>(args.positive_integer("journey-sample", 1)));
  }
  // ... and reject unwritable export paths just as early.
  if (!tools::require_writable("--trace-json", trace_json) ||
      !tools::require_writable("--trace-csv", trace_csv) ||
      !tools::require_writable("--metrics", metrics) ||
      !tools::require_writable("--journeys", journeys_csv)) {
    return 1;
  }

  // Build id first: the one-observed-replication artifacts only mean
  // something pinned to the code that produced them.
  std::cout << "adhocsim " << cache::code_version() << '\n';
  if (scen == "two-node") {
    experiments::TwoNodeSpec spec;
    spec.rate = rate_flag(args);
    spec.rts = rts;
    spec.transport = transport;
    spec.distance_m = args.num("distance", 10.0);
    const auto r = experiments::two_node_run(spec, cfg, seed, &observer);
    std::cout << "two-node seed " << seed << ": " << r.value / 1000.0 << " Mbps, " << r.events
              << " events\n";
  } else if (scen == "manet") {
    experiments::ManetRunSpec spec;
    // 2 Mbps default: its ~100 m decode range matches the 60 m spacing.
    spec.rate = phy::rate_from_mbps(args.num("rate", 2.0));
    spec.rts = rts;
    spec.manet.stations = static_cast<std::size_t>(args.positive_integer("stations", 50));
    spec.manet.placement = args.choice("placement", "uniform", {"grid", "uniform"}) == "grid"
                               ? scenario::ManetPlacement::kGrid
                               : scenario::ManetPlacement::kUniform;
    const std::string mob =
        args.choice("mobility", "waypoint", {"static", "waypoint", "gauss-markov"});
    spec.manet.mobility = mob == "static"     ? scenario::ManetMobility::kStatic
                          : mob == "waypoint" ? scenario::ManetMobility::kWaypoint
                                              : scenario::ManetMobility::kGaussMarkov;
    spec.manet.field_m = args.num("field", 0.0);
    spec.manet.spacing_m = args.positive_num("spacing", spec.manet.spacing_m);
    spec.manet.flows = static_cast<std::size_t>(args.integer("flows", 0));
    spec.manet.flow_kbps = args.positive_num("flow-kbps", spec.manet.flow_kbps);
    const auto r = experiments::manet_run(spec, cfg, seed, &observer);
    std::cout << "manet seed " << seed << ": " << spec.manet.stations << " stations, "
              << r.goodput_kbps << " kbps goodput, delivery "
              << stats::Table::fmt(r.delivery_ratio) << ", delay "
              << stats::Table::fmt(r.mean_delay_ms) << " ms, " << r.events << " events\n"
              << "medium: " << r.deliveries_scheduled << " deliveries scheduled, "
              << r.deliveries_culled << " culled ("
              << stats::Table::fmt(100.0 * r.culled_fraction(), 1) << "% of fan-out), cutoff "
              << stats::Table::fmt(r.cs_cutoff_m, 1) << " m\n";
  } else {  // choice() above guarantees a four-station figure scenario
    experiments::FourStationSpec spec;
    if (scen == "fig7") spec = experiments::fig7_spec(rts, transport);
    if (scen == "fig9") spec = experiments::fig9_spec(rts, transport);
    if (scen == "fig11") spec = experiments::fig11_spec(rts, transport);
    if (scen == "fig12") spec = experiments::fig12_spec(rts, transport);
    const auto r = experiments::four_station_run(spec, cfg, seed, &observer);
    std::cout << scen << " seed " << seed << ": s1 " << r.session1_kbps << " kbps, s2 "
              << r.session2_kbps << " kbps, " << r.events << " events\n";
  }

  if (!trace_json.empty()) {
    observer.write_trace_json(trace_json);
    std::cout << "trace   : " << trace_json << " (" << observer.trace_sink()->size()
              << " events, " << observer.trace_sink()->dropped() << " dropped)\n";
  }
  if (!trace_csv.empty()) {
    observer.write_trace_csv(trace_csv);
    std::cout << "traceCSV: " << trace_csv << '\n';
  }
  if (!metrics.empty()) {
    observer.write_metrics_json(metrics);
    std::cout << "metrics : " << metrics << " (" << observer.registry()->component_count()
              << " components)\n";
  }
  if (const obs::JourneyRecorder* journeys = observer.journeys(); journeys != nullptr) {
    const obs::JourneyLedger& ledger = journeys->ledger();
    std::cout << "journeys: " << ledger.minted << " minted, " << ledger.delivered
              << " delivered, "
              << (ledger.dropped_retry_limit + ledger.dropped_buffer + ledger.dropped_radio_off +
                  ledger.dropped_blackout)
              << " dropped, " << ledger.in_flight << " in flight ("
              << (ledger.balanced() ? "ledger balanced" : "LEDGER IMBALANCE") << ")\n";
    if (!journeys_csv.empty()) {
      observer.write_journeys_csv(journeys_csv);
      std::cout << "journeyCSV: " << journeys_csv << " (" << journeys->retained()
                << " records, " << journeys->dropped() << " dropped)\n";
    }
  }
  return 0;
}

int cmd_campaign(const tools::CliArgs& args) {
  const std::string grid = args.str("grid", "fig2");
  const auto level = obs_level_flag(args, "off");
  if (!level) return 1;
  auto cfg = config_flag(args);
  cfg.obs_level = *level;
  // The shared grid registry (experiments::campaign_by_name) is the
  // same resolution path the serve daemon uses; unknown names throw,
  // listing the valid grids, and main() prints that to stderr.
  const auto def = experiments::campaign_by_name(
      grid, cfg, static_cast<std::uint32_t>(args.positive_integer("probes", 300)));

  // Fail fast on unwritable output sinks before any run is spent.
  // "-" (stdout telemetry) needs no probe; the scorecard probe targets
  // the exact artifact path the writer will use.
  const std::string telemetry = args.str("telemetry", "");
  const std::string scorecard_dir = args.str("scorecard", "");
  if (!tools::require_writable("--telemetry", telemetry)) return 1;
  if (!scorecard_dir.empty() &&
      !tools::require_writable(
          "--scorecard", scorecard_dir + "/" + report::Scorecard::file_name("campaign_" + grid))) {
    return 1;
  }

  campaign::EngineConfig ec;
  ec.jobs = args.has("jobs") ? static_cast<unsigned>(args.positive_integer("jobs", 1)) : 0;
  std::unique_ptr<campaign::JsonlSink> sink;
  if (telemetry == "-") {
    sink = std::make_unique<campaign::JsonlSink>(std::cout);
  } else if (!telemetry.empty()) {
    sink = std::make_unique<campaign::JsonlSink>(telemetry);
  }
  ec.telemetry = sink.get();

  // Startup log carries the build id (the same stamp cache keys use);
  // keep it off stdout when stdout is the JSONL telemetry stream.
  (telemetry == "-" ? std::cerr : std::cout)
      << "adhocsim " << cache::code_version() << " campaign --grid " << grid << '\n';
  const campaign::CampaignEngine engine{ec};
  const auto n_shards = static_cast<std::size_t>(args.positive_integer("shards", 1));
  const auto shard_idx = static_cast<std::size_t>(args.integer("shard", 0));
  const auto result =
      n_shards > 1 ? engine.run_shard(def.plan, shard_idx, n_shards, def.run)
                   : engine.run(def.plan, def.run);

  // Aggregated table: one row per grid point, mean +- 95% CI per metric.
  const auto points = campaign::aggregate_by_point(result);
  std::vector<std::string> header;
  for (std::size_t a = 0; a < def.plan.grid.axes(); ++a) {
    header.push_back(def.plan.grid.axis(a).name);
  }
  std::vector<std::string> metric_names;
  if (!points.empty()) {
    for (const auto& [name, summary] : points.front().metrics) metric_names.push_back(name);
  }
  for (const auto& m : metric_names) header.push_back(m + " (mean +- ci95)");
  header.push_back("runs");
  stats::Table table{header};
  for (const auto& p : points) {
    std::vector<std::string> row;
    for (const auto& [name, value] : p.params) row.push_back(stats::Table::fmt(value, 1));
    for (const auto& m : metric_names) {
      const auto it = p.metrics.find(m);
      row.push_back(it == p.metrics.end()
                        ? "-"
                        : stats::Table::fmt(it->second.mean()) + " +- " +
                              stats::Table::fmt(it->second.ci95_halfwidth()));
    }
    row.push_back(std::to_string(p.ok_runs) +
                  (p.failed_runs > 0 ? " (+" + std::to_string(p.failed_runs) + " failed)" : ""));
    table.add_row(std::move(row));
  }
  std::cout << "=== campaign '" << result.name << "': " << result.runs.size() << " runs on "
            << result.jobs << " worker(s) ===\n\n"
            << table.to_string();

  std::uint64_t events = 0;
  for (const auto& r : result.runs) {
    if (r.ok) events += r.metrics.events;
  }
  std::cout << '\n'
            << result.ok_count() << " ok, " << result.error_count() << " failed, "
            << stats::Table::fmt(result.wall_seconds, 2) << " s wall, " << events << " events ("
            << stats::Table::fmt(result.wall_seconds > 0
                                     ? static_cast<double>(events) / result.wall_seconds / 1e6
                                     : 0.0,
                                 2)
            << " M events/s)\n";
  for (const auto& r : result.runs) {
    if (!r.ok) {
      std::cout << "  run " << r.spec.run_index << " (point " << r.spec.point_index << ", seed "
                << r.spec.seed << ") failed: " << r.error << '\n';
    }
  }

  if (!scorecard_dir.empty()) {
    // "campaign_<grid>" keeps CLI artifacts from colliding with the
    // bench_* binaries' BENCH_<grid>.json files in a shared output dir.
    report::Scorecard card{"campaign_" + grid};
    card.set_seeds(cfg.seeds);
    card.add_points(points);
    card.add_campaign(result);
    card.write(scorecard_dir);
    std::cout << "scorecard: " << scorecard_dir << '/'
              << report::Scorecard::file_name("campaign_" + grid) << '\n';
  }
  return result.error_count() == 0 ? 0 : 1;
}

/// SIGTERM/SIGINT target for cmd_serve. A handler may only touch
/// async-signal-safe state; Server::stop() qualifies (one write() on a
/// pre-opened pipe), so graceful shutdown — drain, flight dump, cache
/// summary — runs on the normal path after run() returns.
serve::Server* g_serve_server = nullptr;

/// `adhocsim serve`: bring up the campaign daemon on an AF_UNIX socket
/// with an on-disk content-addressed result cache. Runs until a client
/// sends {"type":"shutdown"} or the process receives SIGTERM/SIGINT;
/// either way the flight recorder is dumped to --flight-dump on exit.
int cmd_serve(const tools::CliArgs& args) {
  const std::string socket_path = args.str("socket", "");
  if (socket_path.empty()) {
    std::cerr << "adhocsim serve: --socket PATH is required\n";
    return 2;
  }
  std::unique_ptr<cache::ResultCache> result_cache;
  const std::string cache_dir = args.str("cache", "");
  if (!cache_dir.empty()) {
    cache::CacheConfig cc;
    cc.root = cache_dir;
    cc.max_entries = static_cast<std::size_t>(args.integer("cache-entries", 0));
    cc.max_bytes = static_cast<std::uint64_t>(args.integer("cache-mb", 0)) * 1024 * 1024;
    result_cache = std::make_unique<cache::ResultCache>(cc);
  }

  obs::svc::TelemetryConfig tc;
  tc.flight_requests = static_cast<std::size_t>(args.positive_integer("flight-requests", 256));
  tc.flight_errors = static_cast<std::size_t>(args.positive_integer("flight-errors", 64));
  obs::svc::ServiceTelemetry telemetry{tc};
  if (result_cache != nullptr) {
    telemetry.metrics.attach(
        [&](obs::MetricsRegistry& reg) { result_cache->attach_metrics(reg); });
  }
  const auto log_format =
      obs::svc::parse_log_format(args.choice("log-format", "text", {"text", "json"}));
  obs::svc::Logger logger{args.has("quiet") ? nullptr : &std::cout, log_format};

  serve::ServerConfig sc;
  sc.socket_path = socket_path;
  sc.service.jobs = args.has("jobs") ? static_cast<unsigned>(args.positive_integer("jobs", 1)) : 0;
  sc.service.cache = result_cache.get();
  sc.log = &logger;
  sc.telemetry = &telemetry;
  sc.shutdown_grace_ms = static_cast<unsigned>(args.positive_integer("shutdown-grace-ms", 5000));

  std::cout << "adhocsim " << cache::code_version() << " serve --socket " << socket_path << '\n';
  if (result_cache != nullptr) {
    const auto s = result_cache->stats();
    std::cout << "cache: " << result_cache->root() << " (version " << result_cache->version()
              << ", " << s.entries << " entries, " << s.bytes << " bytes, " << s.invalidated
              << " invalidated)\n";
  } else {
    std::cout << "cache: disabled (no --cache DIR; every submit runs cold)\n";
  }
  std::cout.flush();

  serve::Server server{sc};
  server.start();
  g_serve_server = &server;
  std::signal(SIGTERM, [](int) {
    if (g_serve_server != nullptr) g_serve_server->stop();
  });
  std::signal(SIGINT, [](int) {
    if (g_serve_server != nullptr) g_serve_server->stop();
  });
  server.run();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_serve_server = nullptr;

  const std::string flight_path = args.str("flight-dump", socket_path + ".flight.jsonl");
  {
    std::ofstream flight_out{flight_path, std::ios::binary | std::ios::trunc};
    if (flight_out) {
      telemetry.recorder.dump(flight_out, obs::svc::unix_ms());
      std::cout << "flight: " << flight_path << " (" << telemetry.recorder.recorded()
                << " requests recorded, " << telemetry.recorder.dropped() << " dropped)\n";
    } else {
      std::cerr << "adhocsim serve: cannot write flight dump to " << flight_path << '\n';
    }
  }
  if (result_cache != nullptr) {
    const auto s = result_cache->stats();
    std::cout << "cache: " << s.hits << " hits, " << s.misses << " misses, " << s.stores
              << " stores, " << s.evictions << " evictions\n";
  }
  return 0;
}

/// `adhocsim submit`: one request against a running daemon. Streams the
/// response lines to stdout (--quiet keeps only the summary), writes
/// the scorecard artifact when --scorecard DIR is given.
int cmd_submit(const tools::CliArgs& args) {
  const std::string socket_path = args.str("socket", "");
  if (socket_path.empty()) {
    std::cerr << "adhocsim submit: --socket PATH is required\n";
    return 2;
  }
  serve::Client client{socket_path};
  const bool quiet = args.has("quiet");

  // Control requests: terminal line only, no campaign involved.
  if (args.has("stats") || args.has("ping") || args.has("shutdown") || args.has("metrics") ||
      args.has("debug")) {
    std::string request_line;
    if (args.has("metrics")) {
      const std::string fmt = args.choice("format", "json", {"json", "prometheus"});
      request_line = R"({"format":")" + fmt + R"(","type":"metrics"})";
    } else if (args.has("debug")) {
      request_line = R"({"type":"debug"})";
    } else {
      const std::string type =
          args.has("stats") ? "stats" : args.has("ping") ? "ping" : "shutdown";
      request_line = R"({"type":")" + type + R"("})";
    }
    const std::string reply = client.request(request_line);
    // Prometheus expositions and flight dumps embed multi-line text;
    // unescape so the output is directly scrapeable / greppable.
    bool printed_raw = false;
    if (reply.find(R"("type":"error")") == std::string::npos) {
      const auto doc = report::JsonValue::parse(reply);
      const auto* text = doc.find("text");
      const auto* flight = doc.find("flight");
      if (text != nullptr && text->is_string()) {
        std::cout << text->str();
        printed_raw = true;
      } else if (flight != nullptr && flight->is_string()) {
        std::cout << flight->str();
        printed_raw = true;
      }
    }
    if (!printed_raw) std::cout << reply << '\n';
    return reply.find(R"("type":"error")") == std::string::npos ? 0 : 1;
  }

  serve::SubmitRequest req;
  req.grid = args.str("grid", "fig2");
  req.seeds.clear();
  const auto n_seeds = args.positive_integer("seeds", 3);
  for (std::int64_t s = 1; s <= n_seeds; ++s) req.seeds.push_back(static_cast<std::uint64_t>(s));
  req.seconds = args.positive_num("seconds", 8.0);
  req.warmup_s = args.positive_num("warmup", 0.5);
  req.obs_level = args.str("obs-level", "off");
  req.fault_plan = args.str("fault-plan", "");
  req.probes = static_cast<std::uint32_t>(args.positive_integer("probes", 300));

  const std::string scorecard_dir = args.str("scorecard", "");
  std::string scorecard_error;
  const std::string terminal =
      client.request(req.to_json(), [&](const std::string& line) {
        if (!quiet) std::cout << line << '\n';
        if (scorecard_dir.empty() || line.find(R"("type":"scorecard")") == std::string::npos) {
          return;
        }
        try {
          // Unescaping the "scorecard" member yields the exact
          // byte-stable fidelity document the daemon built.
          const auto doc = report::JsonValue::parse(line);
          const auto* body = doc.find("scorecard");
          const auto* bench = doc.find("bench");
          if (body == nullptr || bench == nullptr) throw std::runtime_error("malformed scorecard line");
          const std::string path =
              scorecard_dir + "/" + report::Scorecard::file_name(bench->str());
          std::ofstream out{path, std::ios::binary | std::ios::trunc};
          if (!out) throw std::runtime_error("cannot write " + path);
          out << body->str();
          if (!quiet) std::cout << "scorecard: " << path << '\n';
        } catch (const std::exception& e) {
          scorecard_error = e.what();
        }
      });
  if (quiet) std::cout << terminal << '\n';
  if (!scorecard_error.empty()) {
    std::cerr << "adhocsim submit: scorecard: " << scorecard_error << '\n';
    return 1;
  }
  if (terminal.find(R"("type":"error")") != std::string::npos) return 1;
  // submit_end carries the error count; non-zero means failed runs.
  const auto doc = report::JsonValue::parse(terminal);
  return doc.number_or("errors", 0.0) == 0.0 ? 0 : 1;  // NOLINT-ADHOC(fp-compare)
}

int cmd_version() {
  std::cout << "adhocsim " << cache::code_version() << '\n';
  return 0;
}

void usage() {
  std::cout <<
      "adhocsim <command> [flags]\n"
      "  table2                            analytical max throughput table\n"
      "  two-node [--rate R] [--rts] [--tcp] [--distance D] [--payload B]\n"
      "  four-station [--rate R] [--d23 D] [--rts] [--tcp] [--reversed]\n"
      "  range [--rate R]                  estimate TX range\n"
      "  saturation [--stations N] [--rts] simulated vs Bianchi\n"
      "  delay [--rate R] [--distance D] [--load-mbps L]\n"
      "  run --scenario two-node|fig7|fig9|fig11|fig12|manet [--seed N] [--rts] [--tcp]\n"
      "      [--obs-level off|metrics|trace|full|journeys] [--trace-json PATH]\n"
      "      [--trace-csv PATH] [--metrics PATH]  one observed replication\n"
      "      [--journeys PATH] [--journey-sample N]  packet-journey CSV + ledger\n"
      "      manet extras: [--stations N] [--placement grid|uniform]\n"
      "      [--mobility static|waypoint|gauss-markov] [--field M] [--spacing M]\n"
      "      [--flows N] [--flow-kbps K]\n"
      "  campaign --grid fig2|rates|fig3|fig7|fig9|fig11|fig12|saturation|faults\n"
      "           |manet_sweep\n"
      "           [--jobs N] [--telemetry PATH|-] [--obs-level L]\n"
      "           [--shard I --shards N] [--scorecard DIR]\n"
      "                                    parallel sweep + JSONL telemetry\n"
      "  serve --socket PATH [--cache DIR] [--cache-entries N] [--cache-mb M]\n"
      "        [--jobs N] [--quiet] [--log-format text|json]\n"
      "        [--shutdown-grace-ms MS] [--flight-requests N] [--flight-errors K]\n"
      "        [--flight-dump PATH]\n"
      "                                    campaign daemon + result cache;\n"
      "                                    dumps the flight recorder on exit\n"
      "  submit --socket PATH [--grid G] [--seeds N] [--seconds S] [--warmup W]\n"
      "         [--obs-level L] [--fault-plan P] [--probes N] [--scorecard DIR]\n"
      "         [--quiet] | --stats | --ping | --shutdown\n"
      "         | --metrics [--format json|prometheus] | --debug\n"
      "                                    send one request to a serve daemon\n"
      "  version                           build id (also --version)\n"
      "common flags: --seeds N --seconds S --fault-plan NAME|FILE|SPEC\n"
      "  (fault-plan builtins: none|midrun-jam|crash|fig4-burst; see EXPERIMENTS.md)\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const tools::CliArgs args{argc, argv};
    const std::string& cmd = args.command();
    if (cmd == "table2") return cmd_table2();
    if (cmd == "two-node") return cmd_two_node(args);
    if (cmd == "four-station") return cmd_four_station(args);
    if (cmd == "range") return cmd_range(args);
    if (cmd == "saturation") return cmd_saturation(args);
    if (cmd == "delay") return cmd_delay(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "campaign") return cmd_campaign(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "submit") return cmd_submit(args);
    if (cmd == "version" || (cmd.empty() && args.has("version"))) return cmd_version();
    usage();
    return cmd.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "adhocsim: " << e.what() << '\n';
    return 1;
  }
}
