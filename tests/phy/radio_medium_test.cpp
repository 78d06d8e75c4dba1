#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "phy/calibration.hpp"
#include "phy/medium.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"

namespace adhoc::phy {
namespace {

struct Event {
  enum Kind { kCcaBusy, kCcaIdle, kRxOk, kRxError, kTxEnd } kind;
  sim::Time at;
  Rate rate = Rate::kR1;
};

class RecordingListener final : public RadioListener {
 public:
  explicit RecordingListener(sim::Simulator& s) : sim_(s) {}

  void on_cca(bool busy) override {
    events.push_back({busy ? Event::kCcaBusy : Event::kCcaIdle, sim_.now()});
  }
  void on_rx_ok(std::shared_ptr<const void> payload, Rate rate, double) override {
    events.push_back({Event::kRxOk, sim_.now(), rate});
    last_payload = std::move(payload);
  }
  void on_rx_error() override { events.push_back({Event::kRxError, sim_.now()}); }
  void on_tx_end() override { events.push_back({Event::kTxEnd, sim_.now()}); }

  [[nodiscard]] int count(Event::Kind k) const {
    int n = 0;
    for (const auto& e : events) {
      if (e.kind == k) ++n;
    }
    return n;
  }

  std::vector<Event> events;
  std::shared_ptr<const void> last_payload;

 private:
  sim::Simulator& sim_;
};

class RadioMediumTest : public ::testing::Test {
 protected:
  RadioMediumTest()
      : params_(paper_calibrated_params(default_outdoor_model())),
        medium_(sim_, default_outdoor_model()) {}

  Radio& add_radio(double x, RecordingListener*& listener_out) {
    const auto id = static_cast<std::uint32_t>(radios_.size());
    radios_.push_back(std::make_unique<Radio>(sim_, medium_, id, params_, Position{x, 0}));
    listeners_.push_back(std::make_unique<RecordingListener>(sim_));
    radios_.back()->set_listener(listeners_.back().get());
    listener_out = listeners_.back().get();
    return *radios_.back();
  }

  TxDescriptor data_frame(Rate rate, std::uint32_t bits = 4368) {
    return TxDescriptor{rate, bits, Preamble::kLong, std::make_shared<int>(42)};
  }

  sim::Simulator sim_{1};
  PhyParams params_;
  Medium medium_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::vector<std::unique_ptr<RecordingListener>> listeners_;
};

TEST_F(RadioMediumTest, InRangeFrameIsDecoded) {
  RecordingListener* ltx = nullptr;
  RecordingListener* lrx = nullptr;
  Radio& tx = add_radio(0, ltx);
  add_radio(20, lrx);  // 20 m < 30 m (11 Mbps range)

  tx.start_tx(data_frame(Rate::kR11));
  sim_.run();
  EXPECT_EQ(lrx->count(Event::kRxOk), 1);
  EXPECT_EQ(lrx->count(Event::kRxError), 0);
  EXPECT_EQ(ltx->count(Event::kTxEnd), 1);
}

TEST_F(RadioMediumTest, PayloadCarriesThrough) {
  RecordingListener* ltx = nullptr;
  RecordingListener* lrx = nullptr;
  Radio& tx = add_radio(0, ltx);
  add_radio(20, lrx);

  auto payload = std::make_shared<int>(1234);
  tx.start_tx(TxDescriptor{Rate::kR11, 1000, Preamble::kLong, payload});
  sim_.run();
  ASSERT_TRUE(lrx->last_payload);
  EXPECT_EQ(*std::static_pointer_cast<const int>(lrx->last_payload), 1234);
}

TEST_F(RadioMediumTest, BeyondDataRangeIsRxError) {
  // 50 m: beyond the 11 Mbps range (30 m) but within 1 Mbps PLCP
  // detection (120 m) -> detected but undecodable -> rx error (EIFS).
  RecordingListener* ltx = nullptr;
  RecordingListener* lrx = nullptr;
  Radio& tx = add_radio(0, ltx);
  add_radio(50, lrx);

  tx.start_tx(data_frame(Rate::kR11));
  sim_.run();
  EXPECT_EQ(lrx->count(Event::kRxOk), 0);
  EXPECT_EQ(lrx->count(Event::kRxError), 1);
}

TEST_F(RadioMediumTest, SameDistanceLowerRateDecodes) {
  RecordingListener* ltx = nullptr;
  RecordingListener* lrx = nullptr;
  Radio& tx = add_radio(0, ltx);
  add_radio(50, lrx);  // 50 m < 70 m (5.5 Mbps range)

  tx.start_tx(data_frame(Rate::kR5_5));
  sim_.run();
  EXPECT_EQ(lrx->count(Event::kRxOk), 1);
}

TEST_F(RadioMediumTest, BeyondPlcpRangeButInsideCsRangeOnlyTogglesCca) {
  // 135 m: beyond the 1 Mbps decode range (120 m) but inside the
  // energy-detect range (150 m): CCA busy/idle, no rx callbacks.
  RecordingListener* ltx = nullptr;
  RecordingListener* lrx = nullptr;
  Radio& tx = add_radio(0, ltx);
  add_radio(135, lrx);

  tx.start_tx(data_frame(Rate::kR11));
  sim_.run();
  EXPECT_EQ(lrx->count(Event::kRxOk), 0);
  EXPECT_EQ(lrx->count(Event::kRxError), 0);
  EXPECT_EQ(lrx->count(Event::kCcaBusy), 1);
  EXPECT_EQ(lrx->count(Event::kCcaIdle), 1);
}

TEST_F(RadioMediumTest, BeyondCsRangeNothingHappens) {
  RecordingListener* ltx = nullptr;
  RecordingListener* lrx = nullptr;
  Radio& tx = add_radio(0, ltx);
  add_radio(250, lrx);

  tx.start_tx(data_frame(Rate::kR11));
  sim_.run();
  EXPECT_TRUE(lrx->events.empty());
}

TEST_F(RadioMediumTest, CcaBusyDuringOwnTx) {
  RecordingListener* ltx = nullptr;
  Radio& tx = add_radio(0, ltx);
  RecordingListener* lrx = nullptr;
  add_radio(20, lrx);

  EXPECT_FALSE(tx.cca_busy());
  tx.start_tx(data_frame(Rate::kR11));
  EXPECT_TRUE(tx.cca_busy());
  EXPECT_TRUE(tx.transmitting());
  sim_.run();
  EXPECT_FALSE(tx.cca_busy());
  EXPECT_FALSE(tx.transmitting());
}

TEST_F(RadioMediumTest, TxWhileTxThrows) {
  RecordingListener* ltx = nullptr;
  Radio& tx = add_radio(0, ltx);
  tx.start_tx(data_frame(Rate::kR11));
  EXPECT_THROW(tx.start_tx(data_frame(Rate::kR11)), std::logic_error);
}

TEST_F(RadioMediumTest, CollisionCorruptsReception) {
  // Two senders equidistant from the receiver transmit overlapping
  // frames with comparable power: SINR below threshold -> rx error.
  RecordingListener* l1 = nullptr;
  RecordingListener* l2 = nullptr;
  RecordingListener* lrx = nullptr;
  Radio& tx1 = add_radio(0, l1);
  add_radio(10, lrx);
  Radio& tx2 = add_radio(20, l2);

  sim_.at(sim::Time::zero(), [&] { tx1.start_tx(data_frame(Rate::kR11)); });
  // Overlap midway through the first frame.
  sim_.at(sim::Time::us(100), [&] { tx2.start_tx(data_frame(Rate::kR11)); });
  sim_.run();
  EXPECT_EQ(lrx->count(Event::kRxOk), 0);
  EXPECT_GE(lrx->count(Event::kRxError), 1);
}

TEST_F(RadioMediumTest, CaptureStrongFrameSurvivesWeakInterferer) {
  // Interferer much farther away: SINR stays above threshold.
  RecordingListener* l1 = nullptr;
  RecordingListener* l2 = nullptr;
  RecordingListener* lrx = nullptr;
  Radio& tx1 = add_radio(0, l1);
  add_radio(5, lrx);        // strong link: 5 m
  Radio& tx2 = add_radio(140, l2);  // weak interferer

  sim_.at(sim::Time::zero(), [&] { tx1.start_tx(data_frame(Rate::kR11)); });
  sim_.at(sim::Time::us(100), [&] { tx2.start_tx(data_frame(Rate::kR11)); });
  sim_.run();
  EXPECT_EQ(lrx->count(Event::kRxOk), 1);
}

TEST_F(RadioMediumTest, HalfDuplexMissesFramesWhileTransmitting) {
  RecordingListener* l1 = nullptr;
  RecordingListener* l2 = nullptr;
  Radio& r1 = add_radio(0, l1);
  Radio& r2 = add_radio(20, l2);

  // Both start transmitting at overlapping times: neither receives.
  sim_.at(sim::Time::zero(), [&] { r1.start_tx(data_frame(Rate::kR11)); });
  sim_.at(sim::Time::us(50), [&] { r2.start_tx(data_frame(Rate::kR11)); });
  sim_.run();
  EXPECT_EQ(l1->count(Event::kRxOk), 0);
  EXPECT_EQ(l2->count(Event::kRxOk), 0);
  EXPECT_GE(r2.frames_missed_while_tx() + r1.frames_missed_while_tx(), 1u);
}

TEST_F(RadioMediumTest, TxAbortsInProgressReception) {
  RecordingListener* l1 = nullptr;
  RecordingListener* l2 = nullptr;
  Radio& r1 = add_radio(0, l1);
  Radio& r2 = add_radio(20, l2);

  sim_.at(sim::Time::zero(), [&] { r1.start_tx(data_frame(Rate::kR11)); });
  // r2 starts its own TX mid-reception: the locked frame is lost.
  sim_.at(sim::Time::us(200), [&] { r2.start_tx(data_frame(Rate::kR11)); });
  sim_.run();
  EXPECT_EQ(l2->count(Event::kRxOk), 0);
  EXPECT_EQ(l2->count(Event::kRxError), 0);  // aborted silently, not errored
}

TEST_F(RadioMediumTest, FrameDurationMatchesTiming) {
  RecordingListener* ltx = nullptr;
  Radio& tx = add_radio(0, ltx);
  const auto dur = tx.start_tx(data_frame(Rate::kR11, 4368));
  const auto expected = params_.timing.frame_duration(4368, Rate::kR11);
  EXPECT_EQ(dur, expected);
  sim_.run();
  ASSERT_EQ(ltx->count(Event::kTxEnd), 1);
  EXPECT_EQ(ltx->events.back().at, expected);
}

TEST_F(RadioMediumTest, PropagationDelayOrdersDelivery) {
  RecordingListener* ltx = nullptr;
  RecordingListener* lnear = nullptr;
  RecordingListener* lfar = nullptr;
  Radio& tx = add_radio(0, ltx);
  add_radio(10, lnear);
  add_radio(25, lfar);

  tx.start_tx(data_frame(Rate::kR11));
  sim_.run();
  ASSERT_EQ(lnear->count(Event::kRxOk), 1);
  ASSERT_EQ(lfar->count(Event::kRxOk), 1);
  sim::Time near_at;
  sim::Time far_at;
  for (const auto& e : lnear->events) {
    if (e.kind == Event::kRxOk) near_at = e.at;
  }
  for (const auto& e : lfar->events) {
    if (e.kind == Event::kRxOk) far_at = e.at;
  }
  EXPECT_LT(near_at, far_at);
}

TEST_F(RadioMediumTest, DuplicateRadioIdRejected) {
  RecordingListener* l = nullptr;
  add_radio(0, l);
  EXPECT_THROW(Radio(sim_, medium_, 0, params_, Position{1, 0}), std::invalid_argument);
}

TEST_F(RadioMediumTest, MediumCountsTransmissions) {
  RecordingListener* l1 = nullptr;
  Radio& r1 = add_radio(0, l1);
  RecordingListener* l2 = nullptr;
  add_radio(20, l2);
  EXPECT_EQ(medium_.transmissions(), 0u);
  r1.start_tx(data_frame(Rate::kR11));
  sim_.run();
  EXPECT_EQ(medium_.transmissions(), 1u);
  EXPECT_EQ(medium_.radio_count(), 2u);
}

TEST_F(RadioMediumTest, OutOfOrderArrivalsSumInSignalIdOrder) {
  // Three overlapping transmissions whose sids reach the receiver in
  // reverse order: the far transmitter starts first, the near one last.
  RecordingListener* l = nullptr;
  Radio& rx = add_radio(0, l);
  Radio& far = add_radio(120, l);
  Radio& mid = add_radio(-60, l);
  Radio& near = add_radio(3, l);
  std::vector<Medium::DeliveryRecord> at_rx;  // in transmission (sid) order
  medium_.set_delivery_probe([&](const Medium::DeliveryRecord& d) {
    if (d.rx == rx.id()) at_rx.push_back(d);
  });
  sim_.at(sim::Time::ns(0), [&] { far.start_tx(data_frame(Rate::kR11)); });
  sim_.at(sim::Time::ns(1), [&] { mid.start_tx(data_frame(Rate::kR11)); });
  sim_.at(sim::Time::ns(2), [&] { near.start_tx(data_frame(Rate::kR11)); });
  double total_dbm = 0.0;
  std::size_t active = 0;
  sim_.at(sim::Time::us(1), [&] {
    total_dbm = rx.total_signal_dbm();
    active = rx.active_signals();
  });
  sim_.run();

  ASSERT_EQ(at_rx.size(), 3u);
  EXPECT_EQ(active, 3u);
  // Arrival order is the reverse of sid order.
  EXPECT_GT(at_rx[0].start, at_rx[1].start);
  EXPECT_GT(at_rx[1].start, at_rx[2].start);
  double sid_order_mw = 0.0;
  for (const auto& d : at_rx) sid_order_mw += dbm_to_mw(d.rx_dbm);
  EXPECT_EQ(total_dbm, mw_to_dbm(sid_order_mw));  // bit-equal, not near
  EXPECT_EQ(rx.active_signals(), 0u);
}

TEST_F(RadioMediumTest, DuplicateStartAndUnknownEndAreNoOps) {
  RecordingListener* l = nullptr;
  Radio& r = add_radio(0, l);
  r.signal_start(7, -70.0, data_frame(Rate::kR11));
  r.signal_start(7, -40.0, data_frame(Rate::kR11));  // keeps the first power
  EXPECT_EQ(r.active_signals(), 1u);
  EXPECT_EQ(r.total_signal_dbm(), mw_to_dbm(dbm_to_mw(-70.0)));
  r.noise_start(7, -30.0);
  EXPECT_EQ(r.active_signals(), 1u);
  EXPECT_EQ(r.total_signal_dbm(), mw_to_dbm(dbm_to_mw(-70.0)));

  r.signal_end(99);
  r.signal_end(3);
  EXPECT_EQ(r.active_signals(), 1u);
  EXPECT_EQ(r.total_signal_dbm(), mw_to_dbm(dbm_to_mw(-70.0)));
  r.signal_end(7);
  EXPECT_EQ(r.active_signals(), 0u);
  r.signal_end(7);  // a second end is unknown too
  EXPECT_EQ(r.active_signals(), 0u);
}

TEST_F(RadioMediumTest, PowerOffClearsTheSignalTable) {
  RecordingListener* l = nullptr;
  Radio& r = add_radio(0, l);
  r.signal_start(1, -60.0, data_frame(Rate::kR11));
  r.noise_start(2, -65.0);
  ASSERT_EQ(r.active_signals(), 2u);
  r.set_enabled(false);
  EXPECT_EQ(r.active_signals(), 0u);
  EXPECT_EQ(r.total_signal_dbm(), -std::numeric_limits<double>::infinity());
  r.signal_end(1);  // the medium's pending ends become no-ops
  r.set_enabled(true);
  EXPECT_EQ(r.active_signals(), 0u);
}

}  // namespace
}  // namespace adhoc::phy
