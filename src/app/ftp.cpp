#include "app/ftp.hpp"

namespace adhoc::app {

FtpSource::FtpSource(sim::Simulator& simulator, transport::TcpStack& stack, net::Ipv4Address dst,
                     std::uint16_t dst_port)
    : sim_(simulator), stack_(stack), dst_(dst), dst_port_(dst_port) {}

void FtpSource::start(sim::Time at) {
  sim_.at(at, [this] { dial(); }, "app.ftp");
}

void FtpSource::dial() {
  ++attempts_;
  transport::TcpConnection& c = stack_.connect(dst_, dst_port_);
  c.set_infinite_source(true);
  c.set_closed_handler([this] {
    connection_ = nullptr;
    sim_.after(kReconnectDelay, [this] {
      if (connection_ == nullptr) dial();
    }, "app.ftp");
  });
  connection_ = &c;
}

}  // namespace adhoc::app
