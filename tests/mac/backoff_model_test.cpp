// Reference-model test for the DCF backoff countdown.
//
// PerSlotModel below shares no code with Dcf: it counts a backoff down
// with one scheduled event per slot, which is the semantics the Dcf's
// countdown must keep. Each station gets a saturated broadcast queue on a
// medium of its own plus a list of stimuli: carrier-sense busy
// intervals, power cycles, overheard NAV reservations and receive
// errors. The Dcf and the model see the same stimuli, scheduled at the
// same instants, and must agree on every transmission start and on the
// backoff slots left after each stimulus.
//
// Stimuli are scheduled the way the stack schedules them, because that
// decides who runs first when a stimulus lands exactly on a slot
// boundary: a busy edge travels over the medium, so it is scheduled
// between 1 ns and one slot ahead; a power fault, an overheard frame's
// end and a receive error are scheduled long before (here: at time 0).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mac/airtime.hpp"
#include "mac/dcf.hpp"
#include "phy/calibration.hpp"
#include "phy/medium.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace adhoc::mac {
namespace {

using sim::Time;

const Time kSlot = MacParams{}.timing.slot;
constexpr std::uint32_t kFrameBytes = 100;
constexpr int kQueuedFrames = 100;  // MacParams::queue_limit
constexpr double kNoiseDbm = -50.0;

struct Stimulus {
  enum class Kind { kBusy, kPowerCycle, kNav, kRxError };
  Kind kind = Kind::kBusy;
  Time at;                    ///< the edge or freeze instant
  Time until = Time::zero();  ///< kBusy: energy ends; kPowerCycle: power on; kNav: NAV ends
  Time lead = Time::ns(1);    ///< kBusy: the edge is scheduled this long before `at`
};

/// Backoff slots left right after a stimulus was applied; nullopt where
/// the model leaves the value undefined (see PerSlotModel::backoff_slots).
struct Observation {
  Time at;
  std::optional<int> slots;
};

/// What a stimulus does to a station: the Dcf and the model implement it.
class Target {
 public:
  virtual ~Target() = default;
  virtual void noise_start(std::uint64_t sid) = 0;
  virtual void noise_end(std::uint64_t sid) = 0;
  virtual void set_power(bool on) = 0;
  virtual void overhear_cts(Time nav) = 0;
  virtual void rx_error() = 0;
  [[nodiscard]] virtual std::optional<int> backoff_slots() const = 0;
};

void arm(sim::Scheduler& sched, Target& target, const std::vector<Stimulus>& stimuli,
         std::vector<Observation>& log) {
  const auto observe = [&sched, &target, &log] {
    log.push_back({sched.now(), target.backoff_slots()});
  };
  std::uint64_t next_sid = 0;
  for (const Stimulus& s : stimuli) {
    switch (s.kind) {
      case Stimulus::Kind::kBusy:
        // Start and end are both scheduled when the energy leaves its
        // source, as the medium does.
        sched.schedule_at(s.at - s.lead, [&sched, &target, observe, s, sid = ++next_sid] {
          sched.schedule_in(s.lead, [&target, observe, sid] {
            target.noise_start(sid);
            observe();
          });
          sched.schedule_at(s.until, [&target, observe, sid] {
            target.noise_end(sid);
            observe();
          });
        });
        break;
      case Stimulus::Kind::kPowerCycle:
        sched.schedule_at(s.at, [&target, observe] {
          target.set_power(false);
          observe();
        });
        sched.schedule_at(s.until, [&target, observe] {
          target.set_power(true);
          observe();
        });
        break;
      case Stimulus::Kind::kNav:
        sched.schedule_at(s.at, [&target, observe, nav = s.until - s.at] {
          target.overhear_cts(nav);
          observe();
        });
        break;
      case Stimulus::Kind::kRxError:
        sched.schedule_at(s.at, [&target, observe] {
          target.rx_error();
          observe();
        });
        break;
    }
  }
}

/// The station under test: a Dcf on a radio alone on its medium.
class DcfStation final : public Target {
 public:
  DcfStation(sim::Simulator& sim, std::uint32_t id)
      : medium_(sim, phy::default_outdoor_model()),
        radio_(sim, medium_, id, phy::paper_calibrated_params(phy::default_outdoor_model()),
               phy::Position{0, 0}),
        dcf_(sim, radio_, MacAddress::from_station(static_cast<std::uint16_t>(id)), MacParams{}) {
    dcf_.set_trace_sink(&trace_);
    dcf_.set_tx_status_handler([this](const TxStatus&) { draws_.push_back(dcf_.backoff_slots()); });
    for (int i = 0; i < kQueuedFrames; ++i) {
      dcf_.enqueue(MacAddress::broadcast(), std::make_shared<int>(i), kFrameBytes);
    }
  }

  void noise_start(std::uint64_t sid) override { radio_.noise_start(sid, kNoiseDbm); }
  void noise_end(std::uint64_t sid) override { radio_.signal_end(sid); }
  void set_power(bool on) override { radio_.set_enabled(on); }
  void overhear_cts(Time nav) override {
    auto cts = std::make_shared<Frame>();
    cts->type = FrameType::kCts;
    cts->dst = MacAddress::from_station(999);
    cts->duration = nav;
    dcf_.on_rx_ok(cts, phy::Rate::kR1, -60.0);
  }
  void rx_error() override { dcf_.on_rx_error(); }
  [[nodiscard]] std::optional<int> backoff_slots() const override { return dcf_.backoff_slots(); }

  [[nodiscard]] std::vector<Time> tx_starts() const {
    std::vector<Time> out;
    for (const obs::Event& e : trace_.events()) {
      if (e.kind == obs::EventKind::kMacTxStart) out.push_back(e.ts);
    }
    return out;
  }
  /// The post-backoff drawn after each transmission, in order.
  [[nodiscard]] const std::vector<int>& draws() const { return draws_; }

 private:
  phy::Medium medium_;
  phy::Radio radio_;
  Dcf dcf_;
  obs::TraceSink trace_{4096};
  std::vector<int> draws_;
};

/// Reference: the countdown with one event per backoff slot, plus just
/// enough of the radio (carrier sense) and of the DCF (DIFS/EIFS, NAV,
/// broadcast transmission, post-backoff) to drive it. Backoff draws come
/// from the Dcf run, so both sides count down the same numbers.
class PerSlotModel final : public Target {
 public:
  PerSlotModel(sim::Scheduler& sched, std::vector<int> draws)
      : sched_(sched), draws_(std::move(draws)) {}

  void start() {
    queued_ = kQueuedFrames;
    try_begin_access();
  }

  void noise_start(std::uint64_t sid) override {
    if (off_) return;  // a powered-off front end hears nothing
    noise_.insert(sid);
    update_cca();
  }
  void noise_end(std::uint64_t sid) override {
    noise_.erase(sid);
    update_cca();
  }
  void set_power(bool on) override {
    if (on != off_) return;  // no change
    off_ = !on;
    if (off_) {
      noise_.clear();
      if (tx_until_ > now()) tx_until_ = now();
    }
    update_cca();
  }
  void overhear_cts(Time nav) override {
    eifs_ = false;
    set_nav(now() + nav);
  }
  void rx_error() override {
    eifs_ = true;
    cancel_timers();
    try_begin_access();
  }
  /// A running countdown observed exactly on a slot boundary depends on
  /// whether that boundary's slot event has run yet; it is left
  /// undefined. Frozen countdowns are always defined.
  [[nodiscard]] std::optional<int> backoff_slots() const override {
    if (slot_ != sim::kInvalidEvent && (slot_due_ == now() || slot_due_ - kSlot == now())) {
      return std::nullopt;
    }
    return backoff_;
  }

  [[nodiscard]] const std::vector<Time>& tx_starts() const { return tx_starts_; }
  /// Countdowns frozen exactly on a slot boundary.
  [[nodiscard]] int boundary_freezes() const { return boundary_freezes_; }

 private:
  [[nodiscard]] Time now() const { return sched_.now(); }
  [[nodiscard]] bool cca_busy() const { return off_ || now() < tx_until_ || !noise_.empty(); }
  [[nodiscard]] bool medium_busy() const { return cca_busy() || now() < nav_until_; }

  void update_cca() {
    const bool busy = cca_busy();
    if (busy == last_cca_busy_) return;
    last_cca_busy_ = busy;
    if (busy) {
      cancel_timers();
    } else {
      try_begin_access();
    }
  }
  void cancel_timers() {
    sched_.cancel(defer_);
    defer_ = sim::kInvalidEvent;
    if (sched_.cancel(slot_) && (slot_due_ == now() || slot_due_ - kSlot == now())) {
      ++boundary_freezes_;
    }
    slot_ = sim::kInvalidEvent;
  }
  void set_nav(Time until) {
    if (until <= nav_until_) return;
    nav_until_ = until;
    sched_.cancel(nav_);
    nav_ = sched_.schedule_at(until, [this] {
      nav_ = sim::kInvalidEvent;
      try_begin_access();
    });
    cancel_timers();
  }
  void try_begin_access() {
    if (transmitting_) return;
    if (queued_ == 0 && backoff_ <= 0) return;
    if (medium_busy()) {
      cancel_timers();
      return;
    }
    if (defer_ != sim::kInvalidEvent || slot_ != sim::kInvalidEvent) return;
    const MacParams p;
    defer_ = sched_.schedule_in(eifs_ ? eifs(p.timing, p.preamble) : p.timing.difs, [this] {
      defer_ = sim::kInvalidEvent;
      eifs_ = false;
      if (medium_busy()) return;
      if (backoff_ <= 0) {
        transmit();
      } else {
        arm_slot();
      }
    });
  }
  void arm_slot() {
    slot_due_ = now() + kSlot;
    slot_ = sched_.schedule_at(slot_due_, [this] {
      slot_ = sim::kInvalidEvent;
      if (medium_busy()) return;
      if (--backoff_ > 0) {
        arm_slot();
      } else {
        transmit();
      }
    });
  }
  void transmit() {
    backoff_ = -1;
    if (queued_ == 0) return;  // only a post-backoff was pending
    transmitting_ = true;
    tx_starts_.push_back(now());
    const MacParams p;
    Frame f;
    f.type = FrameType::kData;
    f.dst = MacAddress::broadcast();
    f.sdu_bytes = kFrameBytes;
    tx_until_ = now() + p.timing.frame_duration(f.psdu_bits(), p.broadcast_rate, p.preamble);
    sched_.schedule_at(tx_until_, [this] {
      transmitting_ = false;
      --queued_;
      backoff_ = next_draw_ < draws_.size() ? draws_[next_draw_++] : -1;
      try_begin_access();
      update_cca();
    });
    update_cca();
  }

  sim::Scheduler& sched_;
  std::vector<int> draws_;
  std::size_t next_draw_ = 0;
  int queued_ = 0;
  int backoff_ = -1;
  bool eifs_ = false;
  bool off_ = false;
  bool transmitting_ = false;
  bool last_cca_busy_ = false;
  std::set<std::uint64_t> noise_;
  Time tx_until_ = Time::zero();
  Time nav_until_ = Time::zero();
  Time slot_due_ = Time::zero();
  sim::EventId defer_ = sim::kInvalidEvent;
  sim::EventId slot_ = sim::kInvalidEvent;
  sim::EventId nav_ = sim::kInvalidEvent;
  std::vector<Time> tx_starts_;
  int boundary_freezes_ = 0;
};

struct StationOutcome {
  std::vector<Time> tx_starts;
  std::vector<Observation> observations;
};

struct Outcome {
  std::vector<StationOutcome> stations;
  int boundary_freezes = 0;  // in the model, over all stations
};

/// Run every station's stimuli through the Dcf and the model, expect
/// both to agree, and return the Dcf's outcome.
Outcome expect_model_agrees(const std::vector<std::vector<Stimulus>>& stimuli, Time horizon,
                            std::uint64_t seed) {
  const std::size_t n = stimuli.size();
  sim::Simulator sim{seed};
  std::vector<std::unique_ptr<DcfStation>> dcfs;
  Outcome dcf_side;
  dcf_side.stations.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    dcfs.push_back(std::make_unique<DcfStation>(sim, static_cast<std::uint32_t>(i)));
    arm(sim.scheduler(), *dcfs[i], stimuli[i], dcf_side.stations[i].observations);
  }
  sim.run_until(horizon);

  sim::Scheduler sched;
  std::vector<std::unique_ptr<PerSlotModel>> models;
  std::vector<std::vector<Observation>> model_logs(n);
  for (std::size_t i = 0; i < n; ++i) {
    models.push_back(std::make_unique<PerSlotModel>(sched, dcfs[i]->draws()));
    models[i]->start();
    arm(sched, *models[i], stimuli[i], model_logs[i]);
  }
  sched.run_until(horizon);

  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("station " + std::to_string(i));
    StationOutcome& got = dcf_side.stations[i];
    got.tx_starts = dcfs[i]->tx_starts();
    EXPECT_EQ(got.tx_starts, models[i]->tx_starts());
    const std::vector<Observation>& want = model_logs[i];
    EXPECT_EQ(got.observations.size(), want.size());
    for (std::size_t k = 0; k < std::min(got.observations.size(), want.size()); ++k) {
      EXPECT_EQ(got.observations[k].at, want[k].at) << "observation " << k;
      if (want[k].slots.has_value()) {
        EXPECT_EQ(got.observations[k].slots, want[k].slots)
            << "observation " << k << " at " << want[k].at.count_ns() << " ns";
      }
    }
    dcf_side.boundary_freezes += models[i]->boundary_freezes();
  }
  return dcf_side;
}

constexpr std::uint64_t kSeed = 7;

/// Station 0's first countdown (the post-backoff after its first
/// broadcast) in a run without stimuli.
struct Countdown {
  Time start;
  int slots = 0;
  [[nodiscard]] Time boundary(int k) const { return start + kSlot * k; }
};

Countdown first_countdown() {
  sim::Simulator sim{kSeed};
  DcfStation station{sim, 0};
  sim.run_until(Time::ms(5));
  const int slots = station.draws().at(0);
  return Countdown{station.tx_starts().at(1) - kSlot * slots, slots};
}

/// The observation logged at `at` (the test fails if there is none).
std::optional<int> slots_at(const Outcome& o, Time at) {
  for (const Observation& obs : o.stations[0].observations) {
    if (obs.at == at) return obs.slots;
  }
  ADD_FAILURE() << "no observation at " << at.count_ns() << " ns";
  return std::nullopt;
}

class BackoffModel : public ::testing::Test {
 protected:
  void SetUp() override {
    c_ = first_countdown();
    // Room for a freeze on boundary 3 with slots still to go.
    ASSERT_GE(c_.slots, 5);
  }
  Countdown c_;
};

TEST_F(BackoffModel, PropagatedEdgeOnBoundaryCountsThatSlot) {
  // Per slot, boundary 3's slot event was scheduled a slot ahead, before
  // the edge: slot 3 was idle to its end and counts.
  for (const Time lead : {Time::ns(1), Time::us(10), kSlot - Time::ns(1)}) {
    SCOPED_TRACE("lead " + std::to_string(lead.count_ns()) + " ns");
    const Time edge = c_.boundary(3);
    const Outcome o = expect_model_agrees(
        {{{Stimulus::Kind::kBusy, edge, edge + Time::us(300), lead}}}, Time::ms(5), kSeed);
    EXPECT_EQ(slots_at(o, edge), c_.slots - 3);
  }
}

TEST_F(BackoffModel, NodeOffOnBoundaryLosesThatSlot) {
  // The fault was scheduled at plan time, before boundary 3's slot event:
  // it runs first and slot 3 does not count.
  const Time off = c_.boundary(3);
  const Outcome o = expect_model_agrees(
      {{{Stimulus::Kind::kPowerCycle, off, off + Time::us(500)}}}, Time::ms(5), kSeed);
  EXPECT_EQ(slots_at(o, off), c_.slots - 2);
}

TEST_F(BackoffModel, NavFreezesMidSlotAndOnBoundary) {
  const Time mid = c_.boundary(3) + Time::us(10);
  Outcome o = expect_model_agrees(
      {{{Stimulus::Kind::kNav, mid, mid + Time::us(200)}}}, Time::ms(5), kSeed);
  EXPECT_EQ(slots_at(o, mid), c_.slots - 3);
  // An overheard frame's end is scheduled an airtime ahead, so on a
  // boundary it runs before that slot's event: the slot does not count.
  const Time on = c_.boundary(3);
  o = expect_model_agrees({{{Stimulus::Kind::kNav, on, on + Time::us(200)}}}, Time::ms(5),
                          kSeed);
  EXPECT_EQ(slots_at(o, on), c_.slots - 2);
}

TEST_F(BackoffModel, EifsResumesTheFrozenCountdown) {
  const Time err = c_.boundary(2) + Time::us(7);
  const Outcome o =
      expect_model_agrees({{{Stimulus::Kind::kRxError, err}}}, Time::ms(5), kSeed);
  EXPECT_EQ(slots_at(o, err), c_.slots - 2);
  // The countdown resumes after EIFS and finishes the remaining slots.
  const MacParams p;
  ASSERT_GE(o.stations[0].tx_starts.size(), 2u);
  EXPECT_EQ(o.stations[0].tx_starts[1], err + eifs(p.timing, p.preamble) + kSlot * (c_.slots - 2));
}

TEST_F(BackoffModel, CountdownEndingWithABusyEdge) {
  const Time end = c_.boundary(c_.slots);
  // A propagated edge in the countdown's last nanosecond loses to the
  // transmission.
  Outcome o = expect_model_agrees(
      {{{Stimulus::Kind::kBusy, end, end + Time::us(100), Time::ns(1)}}}, Time::ms(5), kSeed);
  ASSERT_GE(o.stations[0].tx_starts.size(), 2u);
  EXPECT_EQ(o.stations[0].tx_starts[1], end);
  // A power fault there wins: the last slot does not count.
  o = expect_model_agrees({{{Stimulus::Kind::kPowerCycle, end, end + Time::us(100)}}},
                          Time::ms(5), kSeed);
  EXPECT_EQ(slots_at(o, end), 1);
  ASSERT_GE(o.stations[0].tx_starts.size(), 2u);
  EXPECT_GT(o.stations[0].tx_starts[1], end);
}

/// Random stimuli for one station. Most instants are whole microseconds,
/// the grid every countdown starts on while freeing edges stay on it,
/// so many freezes land exactly on a slot boundary.
std::vector<Stimulus> random_stimuli(sim::Rng& rng, Time horizon) {
  std::vector<Stimulus> out;
  const int count = static_cast<int>(rng.uniform_int(20, 60));
  const std::int64_t horizon_us = horizon.count_ns() / 1000;
  for (int i = 0; i < count; ++i) {
    Stimulus s;
    s.at = Time::us(rng.uniform_int(kSlot.count_ns() / 1000, horizon_us));
    if (rng.bernoulli(0.25)) s.at += Time::ns(rng.uniform_int(1, 999));  // mid-slot
    const double kind = rng.uniform01();
    if (kind < 0.5) {
      s.kind = Stimulus::Kind::kBusy;
      s.until = Time::us((s.at.count_ns() / 1000) + rng.uniform_int(1, 800));
      const double lead = rng.uniform01();
      s.lead = lead < 0.3   ? Time::ns(1)
               : lead < 0.6 ? kSlot - Time::ns(1)
                            : Time::ns(rng.uniform_int(1, kSlot.count_ns() - 1));
    } else if (kind < 0.7) {
      s.kind = Stimulus::Kind::kNav;
      s.until = s.at + Time::us(rng.uniform_int(1, 600));
    } else if (kind < 0.9) {
      s.kind = Stimulus::Kind::kRxError;
    } else {
      s.kind = Stimulus::Kind::kPowerCycle;
      s.until = Time::us((s.at.count_ns() / 1000) + rng.uniform_int(10, 2000));
    }
    out.push_back(s);
  }
  return out;
}

TEST(BackoffModelRandom, SeededEdgeSequencesMatchThePerSlotModel) {
  const Time horizon = Time::ms(40);
  int boundary_freezes = 0;
  std::size_t transmissions = 0;
  for (std::uint64_t seed = 1; seed <= 100 && !::testing::Test::HasFailure(); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng{seed};
    std::vector<std::vector<Stimulus>> stimuli;
    for (int station = 0; station < 3; ++station) stimuli.push_back(random_stimuli(rng, horizon));
    const Outcome o = expect_model_agrees(stimuli, horizon, seed);
    boundary_freezes += o.boundary_freezes;
    for (const StationOutcome& s : o.stations) transmissions += s.tx_starts.size();
  }
  // The sequences must exercise the tie rules, not only mid-slot freezes.
  EXPECT_GE(boundary_freezes, 50) << boundary_freezes;
  EXPECT_GE(transmissions, 5000u) << transmissions;
}

}  // namespace
}  // namespace adhoc::mac
