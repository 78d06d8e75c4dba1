#pragma once
// ftp workload: a greedy bulk transfer over TCP (the paper's TCP traffic
// generator, run in asymptotic conditions).

#include "transport/tcp.hpp"

namespace adhoc::app {

class FtpSource {
 public:
  /// Opens a connection from `stack` to (dst, port) at `start`; the
  /// connection then sends for as long as the simulation runs.
  FtpSource(sim::Simulator& simulator, transport::TcpStack& stack, net::Ipv4Address dst,
            std::uint16_t dst_port);

  FtpSource(const FtpSource&) = delete;
  FtpSource& operator=(const FtpSource&) = delete;

  /// Like a real ftp client, the source re-dials kReconnectDelay after
  /// the connection dies (e.g. SYN retries exhausted on a congested
  /// channel).
  static constexpr sim::Time kReconnectDelay = sim::Time::ms(500);

  void start(sim::Time at);

  [[nodiscard]] bool started() const { return connection_ != nullptr; }
  [[nodiscard]] std::uint32_t connect_attempts() const { return attempts_; }
  [[nodiscard]] const transport::TcpConnection* connection() const { return connection_; }
  [[nodiscard]] std::uint64_t bytes_acked() const {
    return connection_ ? connection_->bytes_acked() : 0;
  }

 private:
  void dial();

  sim::Simulator& sim_;
  transport::TcpStack& stack_;
  net::Ipv4Address dst_;
  std::uint16_t dst_port_;
  transport::TcpConnection* connection_ = nullptr;
  std::uint32_t attempts_ = 0;
};

}  // namespace adhoc::app
