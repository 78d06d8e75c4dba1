#include "phy/mobility.hpp"

#include <gtest/gtest.h>

#include "phy/calibration.hpp"
#include "phy/medium.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"

namespace adhoc::phy {
namespace {

TEST(LinearMobility, MovesAtConstantVelocity) {
  LinearMobility m{{0, 0}, 2.0, -1.0};
  EXPECT_EQ(m.position_at(sim::Time::zero()), (Position{0, 0}));
  EXPECT_EQ(m.position_at(sim::Time::sec(3)), (Position{6, -3}));
}

TEST(LinearMobility, HoldsBeforeStartTime) {
  LinearMobility m{{5, 5}, 1.0, 0.0, sim::Time::sec(10)};
  EXPECT_EQ(m.position_at(sim::Time::sec(2)), (Position{5, 5}));
  EXPECT_EQ(m.position_at(sim::Time::sec(12)), (Position{7, 5}));
}

TEST(LinearMobility, StopsAtStopTime) {
  LinearMobility m{{0, 0}, 1.0, 0.0, sim::Time::zero(), sim::Time::sec(5)};
  EXPECT_EQ(m.position_at(sim::Time::sec(5)), (Position{5, 0}));
  EXPECT_EQ(m.position_at(sim::Time::sec(50)), (Position{5, 0}));
}

TEST(RadioMobility, PositionTracksModel) {
  sim::Simulator sim{1};
  Medium medium{sim, default_outdoor_model()};
  const auto params = paper_calibrated_params(default_outdoor_model());
  Radio r{sim, medium, 0, params, {0, 0}};
  LinearMobility walk{{0, 0}, 10.0, 0.0};
  r.set_mobility(&walk);
  sim.at(sim::Time::sec(3), [&] { EXPECT_EQ(r.position(), (Position{30, 0})); });
  sim.run();
  r.set_mobility(nullptr);
  EXPECT_EQ(r.position(), (Position{0, 0}));  // static position restored
}

TEST(RadioMobility, WalkingOutOfRangeKillsTheLink) {
  // A sender walks away from a static receiver: early frames decode,
  // late ones do not — the Fig. 3 transition experienced in time.
  sim::Simulator sim{2};
  Medium medium{sim, default_outdoor_model()};
  const auto params = paper_calibrated_params(default_outdoor_model());
  Radio tx{sim, medium, 0, params, {0, 0}};
  Radio rx{sim, medium, 1, params, {0, 0}};
  LinearMobility walk{{10, 0}, 10.0, 0.0};  // 10 m/s away from rx
  tx.set_mobility(&walk);

  int early_decoded = 0;
  int late_decoded = 0;
  class Listener final : public RadioListener {
   public:
    explicit Listener(int& ok) : ok_(ok) {}
    void on_cca(bool) override {}
    void on_rx_ok(std::shared_ptr<const void>, Rate, double) override { ++ok_; }
    void on_rx_error() override {}
    void on_tx_end() override {}

   private:
    int& ok_;
  };
  Listener early{early_decoded};
  Listener late{late_decoded};

  rx.set_listener(&early);
  // 11 Mbps frames every 100 ms while walking 10 -> 150 m.
  for (int i = 0; i < 10; ++i) {
    sim.at(sim::Time::ms(100 * i), [&tx] {
      tx.start_tx(phy::TxDescriptor{Rate::kR11, 1000, Preamble::kLong,
                                    std::make_shared<int>(0)});
    });
  }
  sim.run_until(sim::Time::sec(1));  // up to ~20 m: all decodable
  rx.set_listener(&late);
  for (int i = 0; i < 10; ++i) {
    sim.at(sim::Time::sec(9) + sim::Time::ms(100 * i), [&tx] {
      tx.start_tx(phy::TxDescriptor{Rate::kR11, 1000, Preamble::kLong,
                                    std::make_shared<int>(0)});
    });
  }
  sim.run_until(sim::Time::sec(11));  // ~100 m: far beyond 30 m
  EXPECT_EQ(early_decoded, 10);
  EXPECT_EQ(late_decoded, 0);
}

}  // namespace
}  // namespace adhoc::phy
