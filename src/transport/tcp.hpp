#pragma once
// TCP (Reno) over the simulated stack.
//
// Implements the transport the paper's ftp workload runs on: connection
// establishment (SYN / SYN-ACK / ACK), cumulative and delayed ACKs,
// slow start and congestion avoidance, fast retransmit / fast recovery
// with NewReno-style partial-ACK retransmission, and RTO estimation per
// RFC 6298 with Karn's rule and exponential backoff.
//
// Connections never close: the paper's ftp sessions are long-lived, so
// there is no FIN or RST. The only way back to kClosed is an active
// open whose SYN retries run out (the closed handler then fires, and
// app::FtpSource re-dials).
//
// Data is virtual: the stream carries byte *counts*, not bytes — the
// congestion behaviour (which is what shapes the paper's TCP results) is
// exact, while payload contents never exist. Sequence arithmetic uses
// plain 32-bit comparisons; transfers are limited to < 4 GiB per
// connection, far above anything a simulated 802.11b link moves.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace adhoc::transport {

class TcpStack;

struct TcpParams {
  std::uint32_t mss = 512;                ///< segment payload (paper: 512-byte app packets)
  std::uint32_t initial_cwnd_segments = 2;
  std::uint32_t rwnd_bytes = 65535;
  sim::Time initial_rto = sim::Time::sec(1);
  sim::Time min_rto = sim::Time::ms(200);
  sim::Time max_rto = sim::Time::sec(60);
  bool delayed_ack = true;
  sim::Time delack_timeout = sim::Time::ms(40);
  std::uint32_t dupack_threshold = 3;
  std::uint32_t syn_retry_limit = 5;
};

struct TcpCounters {
  std::uint64_t segments_tx = 0;
  std::uint64_t segments_rx = 0;
  std::uint64_t data_segments_tx = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rto_fires = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t dup_acks_rx = 0;
  std::uint64_t acks_tx = 0;
};

class TcpConnection {
 public:
  enum class State {
    kClosed,
    kSynSent,
    kSynRcvd,
    kEstablished,
  };

  /// Receiver-side in-order delivery of `bytes`.
  using DeliveredHandler = std::function<void(std::uint32_t bytes)>;
  using EstablishedHandler = std::function<void()>;
  using ClosedHandler = std::function<void()>;

  TcpConnection(TcpStack& stack, std::uint16_t local_port, net::Ipv4Address remote_ip,
                std::uint16_t remote_port, TcpParams params);

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // ---- application interface -----------------------------------------
  /// Active open (client side). No-op unless kClosed.
  void connect();
  /// Append `bytes` of virtual data to the send stream.
  void send(std::uint64_t bytes);
  /// Greedy source: the sender always has data pending (ftp in
  /// asymptotic conditions, as in the paper).
  void set_infinite_source(bool on);

  void set_delivered_handler(DeliveredHandler h) { on_delivered_ = std::move(h); }
  void set_established_handler(EstablishedHandler h) { on_established_ = std::move(h); }
  void set_closed_handler(ClosedHandler h) { on_closed_ = std::move(h); }

  // ---- introspection ---------------------------------------------------
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }
  [[nodiscard]] net::Ipv4Address remote_ip() const { return remote_ip_; }
  [[nodiscard]] std::uint16_t remote_port() const { return remote_port_; }
  [[nodiscard]] double cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] std::uint32_t ssthresh_bytes() const { return ssthresh_; }
  [[nodiscard]] sim::Time current_rto() const { return rto_; }
  [[nodiscard]] std::optional<sim::Time> srtt() const { return srtt_; }
  [[nodiscard]] std::uint64_t bytes_acked() const;
  [[nodiscard]] std::uint64_t bytes_delivered() const { return delivered_total_; }
  [[nodiscard]] const TcpCounters& counters() const { return counters_; }
  [[nodiscard]] bool in_fast_recovery() const { return in_recovery_; }

  // ---- stack-facing -----------------------------------------------------
  void on_segment(const net::TcpHeader& h, std::uint32_t payload_len);
  /// Passive-open bootstrap: process the initial SYN.
  void accept_syn(const net::TcpHeader& syn);

  /// Journey tag carried by the segment about to be processed (stamped by
  /// the stack before on_segment; 0 = untracked).
  void set_rx_journey(std::uint64_t journey) { rx_journey_ = journey; }
  /// Journey tag for the packet the stack is about to transmit (set by
  /// send_segment; 0 = untracked control/ACK traffic).
  [[nodiscard]] std::uint64_t pending_tx_journey() const { return pending_tx_journey_; }

  static std::string_view state_name(State s);

 private:
  // segment emission
  void send_segment(std::uint32_t seq, std::uint32_t len, net::TcpFlags flags, bool retransmit);
  void send_ack_now();
  void schedule_ack();

  // sender machinery
  void try_send();
  [[nodiscard]] std::uint32_t app_limit_seq() const;  // first seq beyond queued data
  [[nodiscard]] std::uint32_t flight_size() const { return snd_nxt_ - snd_una_; }
  void retransmit_front();
  void arm_rto();
  void cancel_rto();
  void on_rto();
  void handle_ack(const net::TcpHeader& h, std::uint32_t payload_len);
  void update_rtt(sim::Time sample);
  void enter_established();
  /// SYN retries ran out: stop the timers and fire the closed handler.
  void become_closed();

  // receiver machinery
  void handle_data(std::uint32_t seq, std::uint32_t len);
  void deliver(std::uint32_t bytes);

  // journey linkage (no-ops unless the node has a journey recorder).
  // New data segments mint a journey; a retransmission re-carries the
  // original segment's journey (the journey follows the *data*, so its
  // e2e delay spans every retransmission — Karn-style linkage); the
  // cumulative ACK retires sender-side bookkeeping.
  [[nodiscard]] std::uint64_t journey_for_segment(std::uint32_t seq, std::uint32_t len,
                                                  bool retransmit);
  void journey_delivered(std::uint64_t journey);

  // observability (no-ops unless the stack has a trace sink attached)
  void trace_cwnd();
  void trace_event(obs::EventKind kind, double a, double b);

  TcpStack& stack_;
  sim::Simulator& sim_;
  TcpParams params_;
  std::uint16_t local_port_;
  net::Ipv4Address remote_ip_;
  std::uint16_t remote_port_;

  State state_ = State::kClosed;

  // --- send side ---
  std::uint32_t iss_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint64_t app_queued_ = 0;  // bytes written by the app
  bool infinite_source_ = false;

  double cwnd_ = 0.0;
  std::uint32_t ssthresh_ = 0;
  std::uint32_t peer_rwnd_ = 65535;
  std::uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint32_t recover_ = 0;

  sim::Time rto_;
  std::optional<sim::Time> srtt_;
  sim::Time rttvar_ = sim::Time::zero();
  sim::EventId rto_timer_ = sim::kInvalidEvent;
  std::uint32_t syn_retries_ = 0;
  /// RTT timing (Karn): the seq whose cumulative ACK times one sample.
  std::optional<std::pair<std::uint32_t, sim::Time>> rtt_probe_;

  // --- journey linkage ---
  /// In-flight data segments: seq end -> {seq start, journey id}.
  struct SegJourney {
    std::uint32_t start = 0;
    std::uint64_t journey = 0;
  };
  std::map<std::uint32_t, SegJourney> seg_journeys_;
  std::uint64_t pending_tx_journey_ = 0;  ///< tag for the next stack transmit
  std::uint64_t rx_journey_ = 0;          ///< tag of the segment being processed

  // --- receive side ---
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  /// Out-of-order segments: seq -> {len, journey}.
  struct OooSeg {
    std::uint32_t len = 0;
    std::uint64_t journey = 0;
  };
  std::map<std::uint32_t, OooSeg> ooo_;
  std::uint32_t pending_ack_segments_ = 0;
  sim::EventId delack_timer_ = sim::kInvalidEvent;
  std::uint64_t delivered_total_ = 0;

  DeliveredHandler on_delivered_;
  EstablishedHandler on_established_;
  ClosedHandler on_closed_;
  TcpCounters counters_;
};

class TcpStack {
 public:
  using AcceptHandler = std::function<void(TcpConnection&)>;

  explicit TcpStack(net::Node& node, TcpParams default_params = {});

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  /// Active open to (dst, port). The connection is owned by the stack.
  TcpConnection& connect(net::Ipv4Address dst, std::uint16_t dst_port,
                         std::optional<TcpParams> params = std::nullopt);

  /// Passive open: `handler` runs for each new inbound connection before
  /// the SYN-ACK goes out (install handlers there).
  void listen(std::uint16_t port, AcceptHandler handler);

  [[nodiscard]] net::Node& node() { return node_; }
  [[nodiscard]] sim::Simulator& simulator() { return node_.simulator(); }
  [[nodiscard]] const TcpParams& default_params() const { return default_params_; }
  [[nodiscard]] std::size_t connection_count() const { return connections_.size(); }

  /// Publish cwnd/RTO/retransmit events from every connection into a
  /// cross-layer trace sink (nullptr disables). `track` identifies this
  /// station in the exported trace.
  void set_trace_sink(obs::TraceSink* sink, std::uint32_t track) {
    trace_ = sink;
    trace_track_ = track;
  }
  [[nodiscard]] obs::TraceSink* trace_sink() const { return trace_; }
  [[nodiscard]] std::uint32_t trace_track() const { return trace_track_; }

  /// Counters summed across every connection this stack owns.
  [[nodiscard]] TcpCounters aggregate_counters() const;

  // --- connection-facing -------------------------------------------------
  bool transmit(const TcpConnection& c, const net::TcpHeader& h, std::uint32_t payload_len);

 private:
  struct FlowKey {
    std::uint16_t local_port;
    std::uint32_t remote_ip;
    std::uint16_t remote_port;
    friend bool operator==(const FlowKey&, const FlowKey&) = default;
  };
  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const {
      return (static_cast<std::size_t>(k.remote_ip) << 16) ^
             (static_cast<std::size_t>(k.local_port) << 1) ^ k.remote_port;
    }
  };

  void on_ip(net::PacketPtr packet, const net::Ipv4Header& ip);
  std::uint16_t next_ephemeral_port();

  net::Node& node_;
  TcpParams default_params_;
  obs::TraceSink* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;
  std::vector<std::unique_ptr<TcpConnection>> connections_;
  std::unordered_map<FlowKey, TcpConnection*, FlowKeyHash> flows_;
  std::unordered_map<std::uint16_t, AcceptHandler> listeners_;
  std::uint16_t next_port_ = 49152;
};

}  // namespace adhoc::transport
