// Property suite for the adaptive MAC feature: ARF settling behaviour
// across the Table 3 range staircase.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "mac/arf.hpp"
#include "phy/calibration.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"

namespace adhoc::mac {
namespace {

// ---------------------------------------------------------------------------
// Property: for each distance band of Table 3, ARF settles at (or below)
// the highest rate whose calibrated range covers the link, and traffic
// keeps flowing at that rate.
// ---------------------------------------------------------------------------

struct ArfCase {
  double distance_m;
  phy::Rate max_supported;  // highest rate with range >= distance
};

class ArfSettlingProperty : public ::testing::TestWithParam<ArfCase> {};

TEST_P(ArfSettlingProperty, SettlesAtSupportedRate) {
  const ArfCase c = GetParam();
  sim::Simulator sim{101};
  const auto params = phy::paper_calibrated_params(phy::default_outdoor_model());
  phy::Medium medium{sim, phy::default_outdoor_model()};
  phy::Radio r0{sim, medium, 0, params, {0, 0}};
  phy::Radio r1{sim, medium, 1, params, {c.distance_m, 0}};
  Dcf d0{sim, r0, MacAddress::from_station(0), {}};
  Dcf d1{sim, r1, MacAddress::from_station(1), {}};
  int delivered = 0;
  d1.set_rx_handler(
      [&](std::shared_ptr<const void>, std::uint32_t, MacAddress, MacAddress) { ++delivered; });

  ArfParams ap;
  ap.initial_rate = phy::Rate::kR11;  // start too fast; must adapt down
  ArfController arf{d0, ap};
  // Feed in batches: a single bulk enqueue would overflow the MAC queue.
  for (int batch = 0; batch < 3; ++batch) {
    sim.at(sim::Time::sec(4 * batch), [&] {
      for (int i = 0; i < 40; ++i) d0.enqueue(d1.address(), std::make_shared<int>(0), 512);
    });
  }
  sim.run_until(sim::Time::sec(25));

  const phy::Rate settled = arf.rate_for(d1.address());
  // ARF hovers around the supported boundary: within one step of the
  // highest rate the link carries (it may be mid-probe one step above,
  // or one step below right after a failed probe).
  const int supported = static_cast<int>(phy::rate_index(c.max_supported));
  const int got = static_cast<int>(phy::rate_index(settled));
  EXPECT_LE(got, supported + 1) << "settled at " << phy::rate_name(settled);
  EXPECT_GE(got, supported - 1) << "settled at " << phy::rate_name(settled);
  // The stream flows regardless of the adaptation dance.
  EXPECT_GT(delivered, 110);
}

INSTANTIATE_TEST_SUITE_P(
    Table3Bands, ArfSettlingProperty,
    ::testing::Values(ArfCase{20.0, phy::Rate::kR11},   // < 30 m
                      ArfCase{50.0, phy::Rate::kR5_5},  // 30..70 m
                      ArfCase{80.0, phy::Rate::kR2},    // 70..95 m
                      ArfCase{105.0, phy::Rate::kR1}),  // 95..120 m
    [](const ::testing::TestParamInfo<ArfCase>& param_info) {
      return "d" + std::to_string(static_cast<int>(param_info.param.distance_m));
    });

}  // namespace
}  // namespace adhoc::mac
