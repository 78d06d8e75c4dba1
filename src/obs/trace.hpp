#pragma once
// Structured cross-layer event tracing.
//
// A TraceSink is a bounded ring buffer that PHY, MAC and transport all
// publish typed events into. Events carry (time, optional duration,
// station track, layer, kind, two kind-specific numeric args); the sink
// keeps the most recent `capacity` events and counts overwritten ones,
// so long runs stay memory-bounded while the tail of the timeline — the
// part a hidden-terminal episode lives in — survives intact.
//
// Export targets:
//  * CSV, for offline analysis;
//  * Chrome trace-event JSON (chrome://tracing / Perfetto): one process
//    per station, one thread-track per layer, instant + duration events,
//    plus counter tracks for sampled values such as TCP cwnd.
//
// The sink is scheduler-context only: one simulator, one thread. Runs on
// campaign workers each get their own sink via obs::RunObserver.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace adhoc::obs {

enum class Layer : std::uint8_t { kPhy = 0, kMac = 1, kTransport = 2, kApp = 3, kFault = 4 };

[[nodiscard]] std::string_view layer_name(Layer l);

enum class EventKind : std::uint8_t {
  // PHY (args: a = rate Mbps, b = psdu bits / rx dBm)
  kPhyTx = 0,        // duration event spanning the frame airtime
  kPhyRxOk = 1,      // frame decoded (a = rate Mbps, b = rx dBm)
  kPhyRxError = 2,   // detected but undecodable (out of range / interference)
  kPhyCollision = 3, // locked frame corrupted by a later arrival
  kPhyCapture = 4,   // stronger arrival stole the receiver from a lock
  // MAC (args: a = seq, b = bytes) — generalises mac::TraceEvent
  kMacTxStart = 5,
  kMacRxOk = 6,
  kMacRxError = 7,
  kMacAckTimeout = 8,
  kMacCtsTimeout = 9,
  kMacDrop = 10,       // MSDU dropped at retry limit
  kMacQueueDrop = 11,  // MSDU rejected, queue full
  // Transport (TCP)
  kTcpCwnd = 12,            // counter event (a = cwnd bytes, b = ssthresh)
  kTcpRto = 13,             // RTO fired (a = backed-off RTO ms, b = flight bytes)
  kTcpRetransmit = 14,      // segment retransmitted (a = seq, b = bytes)
  kTcpFastRetransmit = 15,  // dupack-triggered loss recovery (a = seq)
  // Faults (src/faults): scripted disturbances. Start/end pairs share a
  // track (emitter ordinal / node id) and alternate on it.
  kFaultInterferenceStart = 16,  // a = power dBm, b = emitter id
  kFaultInterferenceEnd = 17,    // a = power dBm, b = emitter id
  kFaultNodeOff = 18,            // a = node (track = node)
  kFaultNodeOn = 19,             // a = node (track = node)
  kFaultTxPower = 20,            // a = new tx power dBm, b = previous
  kFaultDayOffset = 21,          // a = new day offset dB, b = previous
  kFaultBlackoutStart = 22,      // a = tx node, b = rx node
  kFaultBlackoutEnd = 23,        // a = tx node, b = rx node
  // Journeys (src/obs/journey): causal packet-journey milestones. Hop
  // and deliver export as duration slices plus Chrome flow events
  // ("s"/"t"/"f" arrows keyed by the journey id in `a`) binding the
  // per-station tracks together.
  kJourneyHop = 24,      // a = journey id, b = hop index (0 = first)
  kJourneyDeliver = 25,  // a = journey id, b = hop count
  kJourneyDrop = 26,     // a = journey id, b = terminal bucket
};

[[nodiscard]] std::string_view event_kind_name(EventKind k);
/// True for kinds exported as Chrome counter tracks ("ph":"C").
[[nodiscard]] bool event_kind_is_counter(EventKind k);
/// True for journey kinds that also emit a Chrome flow event binding
/// to their own slice (kJourneyHop -> "s"/"t", kJourneyDeliver -> "f").
[[nodiscard]] bool event_kind_is_journey_flow(EventKind k);

struct Event {
  sim::Time ts;
  sim::Time dur = sim::Time::zero();  ///< > 0: duration ("X") event
  std::uint32_t track = 0;            ///< station / node id
  Layer layer = Layer::kMac;
  EventKind kind = EventKind::kMacTxStart;
  double a = 0.0;
  double b = 0.0;
};

class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  explicit TraceSink(std::size_t capacity = kDefaultCapacity);

  void record(const Event& e);

  /// Convenience: instant event.
  void instant(sim::Time ts, Layer layer, std::uint32_t track, EventKind kind, double a = 0.0,
               double b = 0.0) {
    record(Event{ts, sim::Time::zero(), track, layer, kind, a, b});
  }
  /// Convenience: duration event.
  void span(sim::Time ts, sim::Time dur, Layer layer, std::uint32_t track, EventKind kind,
            double a = 0.0, double b = 0.0) {
    record(Event{ts, dur, track, layer, kind, a, b});
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const { return full_ ? capacity_ : head_; }
  /// Events published over the sink's lifetime.
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  /// Events overwritten because the ring wrapped.
  [[nodiscard]] std::uint64_t dropped() const { return total_ - size(); }

  /// Retained events in chronological (publication) order.
  [[nodiscard]] std::vector<Event> events() const;

  void clear();

  /// CSV export: time_us,dur_us,track,layer,event,a,b. Throws on I/O error.
  void write_csv(const std::string& path) const;

  /// Chrome trace-event JSON (chrome://tracing, https://ui.perfetto.dev):
  /// pid = station, tid = layer, with process/thread-name metadata so the
  /// UI shows "sta2 / mac" tracks. Timestamps are microseconds.
  void write_chrome_trace(const std::string& path) const;
  /// Same, into an arbitrary stream (for tests).
  void write_chrome_trace(std::ostream& out) const;

 private:
  std::size_t capacity_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;  // next write position
  bool full_ = false;
  std::uint64_t total_ = 0;
};

}  // namespace adhoc::obs
