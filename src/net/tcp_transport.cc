#include "src/net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/logging.h"
#include "src/wire/serialize.h"

namespace itv::net {

namespace {

uint64_t EndpointKey(const wire::Endpoint& ep) {
  return (static_cast<uint64_t>(ep.host) << 16) | ep.port;
}

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  ITV_CHECK(flags >= 0);
  ITV_CHECK(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

}  // namespace

TcpTransport::TcpTransport(EventLoop& loop, uint16_t port, Metrics* metrics)
    : loop_(loop), metrics_(metrics) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  ITV_CHECK(listen_fd_ >= 0);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ITV_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) == 0)
      << "cannot bind 127.0.0.1:" << port;
  ITV_CHECK(::listen(listen_fd_, 64) == 0);

  socklen_t len = sizeof(addr);
  ITV_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0);
  local_ = wire::Endpoint{kLoopbackHost, ntohs(addr.sin_port)};

  SetNonBlocking(listen_fd_);
  loop_.WatchFd(listen_fd_, /*want_read=*/true, /*want_write=*/false,
                [this](bool, bool) { AcceptReady(); });
}

TcpTransport::~TcpTransport() {
  loop_.UnwatchFd(listen_fd_);
  ::close(listen_fd_);
  for (auto& conn : connections_) {
    if (conn->fd >= 0) {
      loop_.UnwatchFd(conn->fd);
      ::close(conn->fd);
    }
  }
}

void TcpTransport::AcceptReady() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      return;  // EAGAIN or transient error; poll will call us again.
    }
    SetNonBlocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    connections_.push_back(std::move(conn));
    WatchConnection(raw);
  }
}

TcpTransport::Connection* TcpTransport::ConnectTo(const wire::Endpoint& dst) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return nullptr;
  }
  SetNonBlocking(fd);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(dst.port);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return nullptr;
  }
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->connecting = rc != 0;
  conn->peer = dst;
  Connection* raw = conn.get();
  connections_.push_back(std::move(conn));
  by_destination_[EndpointKey(dst)] = raw;
  WatchConnection(raw);
  return raw;
}

void TcpTransport::WatchConnection(Connection* conn) {
  if (conn->closed) {
    return;
  }
  bool want_write = conn->connecting || !conn->write_queue.empty();
  loop_.WatchFd(conn->fd, /*want_read=*/true, want_write,
                [this, conn](bool readable, bool writable) {
                  OnConnectionReady(conn, readable, writable);
                });
}

wire::Bytes TcpTransport::TakeFrameBuffer() {
  if (frame_pool_.empty()) {
    return {};
  }
  wire::Bytes buffer = std::move(frame_pool_.back());
  frame_pool_.pop_back();
  return buffer;
}

void TcpTransport::RecycleFrameBuffer(wire::Bytes buffer) {
  constexpr size_t kMaxPooled = 16;
  constexpr size_t kMaxPooledCapacity = 256 * 1024;
  if (frame_pool_.size() < kMaxPooled && buffer.capacity() > 0 &&
      buffer.capacity() <= kMaxPooledCapacity) {
    frame_pool_.push_back(std::move(buffer));
  }
}

std::vector<uint8_t> TcpTransport::FrameMessage(const wire::Message& msg) {
  size_t body_size = msg.EncodedSize();
  // Serialize straight into the (recycled) frame buffer: no intermediate
  // body vector, one reservation for the whole frame.
  wire::Writer frame(TakeFrameBuffer());
  frame.Reserve(4 + 6 + body_size);
  frame.WriteU32(static_cast<uint32_t>(body_size + 6));
  frame.WriteU32(local_.host);
  frame.WriteU16(local_.port);
  wire::EncodeMessageTo(msg, frame);
  return frame.TakeBytes();
}

void TcpTransport::Send(const wire::Endpoint& dst, wire::Message msg) {
  msg.source = local_;
  if (metrics_ != nullptr) {
    if (c_msg_total_ == nullptr) {
      c_msg_total_ = &metrics_->Intern("net.msg.total");
    }
    ++*c_msg_total_;
  }
  Connection* conn = nullptr;
  auto it = by_destination_.find(EndpointKey(dst));
  if (it != by_destination_.end()) {
    conn = it->second;
  } else {
    conn = ConnectTo(dst);
  }
  if (conn == nullptr) {
    if (msg.kind == wire::MsgKind::kRequest) {
      DeliverLocalNack(msg.call_id, dst);
    }
    return;
  }
  if (msg.kind == wire::MsgKind::kRequest) {
    conn->inflight_requests.push_back(msg.call_id);
  }
  conn->write_queue.push_back(FrameMessage(msg));
  if (!conn->connecting) {
    FlushWrites(conn);
  }
  WatchConnection(conn);
}

void TcpTransport::DeliverLocalNack(uint64_t call_id,
                                    const wire::Endpoint& from) {
  wire::Message nack;
  nack.kind = wire::MsgKind::kNack;
  nack.call_id = call_id;
  nack.source = from;
  // Deliver asynchronously so Send never re-enters the runtime.
  loop_.Post([this, nack = std::move(nack)]() mutable {
    if (receiver_) {
      receiver_(std::move(nack));
    }
  });
}

void TcpTransport::OnConnectionReady(Connection* conn, bool readable,
                                     bool writable) {
  if (conn->closed) {
    return;
  }
  if (conn->connecting && writable) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      CloseConnection(conn, /*nack_inflight=*/true);
      return;
    }
    conn->connecting = false;
  }
  if (writable && !conn->connecting) {
    FlushWrites(conn);
    if (conn->closed) {
      return;
    }
  }
  if (readable) {
    char buf[16384];
    for (;;) {
      ssize_t n = ::read(conn->fd, buf, sizeof(buf));
      if (n > 0) {
        conn->read_buffer.insert(conn->read_buffer.end(), buf, buf + n);
        continue;
      }
      if (n == 0) {
        CloseConnection(conn, /*nack_inflight=*/true);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      CloseConnection(conn, /*nack_inflight=*/true);
      return;
    }
    ConsumeFrames(conn);
    if (conn->closed) {
      return;
    }
  }
  WatchConnection(conn);
}

void TcpTransport::FlushWrites(Connection* conn) {
  if (conn->closed) {
    return;
  }
  while (!conn->write_queue.empty()) {
    std::vector<uint8_t>& frame = conn->write_queue.front();
    while (conn->write_offset < frame.size()) {
      ssize_t n = ::write(conn->fd, frame.data() + conn->write_offset,
                          frame.size() - conn->write_offset);
      if (n > 0) {
        conn->write_offset += static_cast<size_t>(n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;  // Try again when writable.
      }
      CloseConnection(conn, /*nack_inflight=*/true);
      return;
    }
    RecycleFrameBuffer(std::move(frame));
    conn->write_queue.pop_front();
    conn->write_offset = 0;
  }
}

void TcpTransport::ConsumeFrames(Connection* conn) {
  size_t offset = 0;
  while (!conn->closed && conn->read_buffer.size() - offset >= 4) {
    uint32_t frame_len = 0;
    std::memcpy(&frame_len, conn->read_buffer.data() + offset, 4);
    if (frame_len < 6 || frame_len > 64 * 1024 * 1024) {
      CloseConnection(conn, /*nack_inflight=*/true);
      return;
    }
    if (conn->read_buffer.size() - offset - 4 < frame_len) {
      break;  // Partial frame.
    }
    const uint8_t* p = conn->read_buffer.data() + offset + 4;
    uint32_t sender_host = 0;
    uint16_t sender_port = 0;
    std::memcpy(&sender_host, p, 4);
    std::memcpy(&sender_port, p + 4, 2);
    wire::Bytes body(p + 6, p + frame_len);
    offset += 4 + frame_len;

    wire::Message msg;
    if (!wire::DecodeMessage(body, &msg)) {
      ITV_LOG(Warn) << "tcp: malformed frame dropped";
      continue;
    }
    msg.source = wire::Endpoint{sender_host, sender_port};
    // Reuse this connection for traffic back to the peer's service address.
    if (conn->peer.is_null()) {
      conn->peer = msg.source;
      by_destination_.emplace(EndpointKey(conn->peer), conn);
    }
    if (msg.kind != wire::MsgKind::kRequest) {
      // A reply or NACK settles an in-flight request.
      auto& inflight = conn->inflight_requests;
      for (auto it = inflight.begin(); it != inflight.end(); ++it) {
        if (*it == msg.call_id) {
          inflight.erase(it);
          break;
        }
      }
    }
    if (receiver_) {
      receiver_(std::move(msg));
    }
  }
  if (conn->closed) {
    return;
  }
  conn->read_buffer.erase(conn->read_buffer.begin(),
                          conn->read_buffer.begin() + static_cast<long>(offset));
}

void TcpTransport::CloseConnection(Connection* conn, bool nack_inflight) {
  if (conn->closed) {
    return;
  }
  conn->closed = true;
  loop_.UnwatchFd(conn->fd);
  ::close(conn->fd);
  conn->fd = -1;
  if (!conn->peer.is_null()) {
    auto it = by_destination_.find(EndpointKey(conn->peer));
    if (it != by_destination_.end() && it->second == conn) {
      by_destination_.erase(it);
    }
  }
  if (nack_inflight) {
    for (uint64_t call_id : conn->inflight_requests) {
      DeliverLocalNack(call_id, conn->peer);
    }
  }
  conn->inflight_requests.clear();
  // Destruction is deferred: callers further up the stack still hold `conn`.
  loop_.Post([this, conn] {
    for (auto it = connections_.begin(); it != connections_.end(); ++it) {
      if (it->get() == conn) {
        connections_.erase(it);
        break;
      }
    }
  });
}

}  // namespace itv::net
