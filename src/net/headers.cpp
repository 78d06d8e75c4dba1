#include "net/headers.hpp"

#include <sstream>

namespace adhoc::net {

std::string Ipv4Address::to_string() const {
  std::ostringstream oss;
  oss << ((value_ >> 24) & 0xff) << '.' << ((value_ >> 16) & 0xff) << '.'
      << ((value_ >> 8) & 0xff) << '.' << (value_ & 0xff);
  return oss.str();
}

std::ostream& operator<<(std::ostream& os, const Ipv4Address& a) { return os << a.to_string(); }

std::ostream& operator<<(std::ostream& os, const TcpHeader& h) {
  os << "tcp " << h.src_port << "->" << h.dst_port << " seq=" << h.seq << " ack=" << h.ack << ' ';
  if (h.flags.syn) os << 'S';
  if (h.flags.ack) os << 'A';
  os << " win=" << h.window;
  return os;
}

}  // namespace adhoc::net
