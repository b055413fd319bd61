#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace gryphon::net {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool resolve(const std::string& host, std::uint16_t port, sockaddr_in* out) {
  ::memset(out, 0, sizeof *out);
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  const char* addr = (host.empty() || host == "localhost") ? "127.0.0.1" : host.c_str();
  return ::inet_pton(AF_INET, addr, &out->sin_addr) == 1;
}

}  // namespace

int tcp_listen(std::uint16_t port, std::string* err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err != nullptr) *err = std::string("socket: ") + ::strerror(errno);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  ::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0 || !set_nonblocking(fd)) {
    if (err != nullptr) *err = std::string("bind/listen: ") + ::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int tcp_connect_start(const std::string& host, std::uint16_t port, std::string* err) {
  sockaddr_in addr;
  if (!resolve(host, port, &addr)) {
    if (err != nullptr) *err = "unresolvable host '" + host + "'";
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0 || !set_nonblocking(fd)) {
    if (err != nullptr) *err = std::string("socket: ") + ::strerror(errno);
    if (fd >= 0) ::close(fd);
    return -1;
  }
  set_nodelay(fd);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    if (err != nullptr) *err = std::string("connect: ") + ::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr;
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

TcpListener::TcpListener(EventLoop& loop, int listen_fd, AcceptHandler on_accept)
    : loop_(loop), fd_(listen_fd), port_(local_port(listen_fd)),
      on_accept_(std::move(on_accept)) {
  GRYPHON_CHECK(fd_ >= 0);
  GRYPHON_CHECK(on_accept_ != nullptr);
  loop_.watch_fd(fd_, /*want_read=*/true, /*want_write=*/false,
                 [this](std::uint32_t) {
                   while (true) {
                     const int peer = ::accept(fd_, nullptr, nullptr);
                     if (peer < 0) return;  // EAGAIN or transient error
                     if (!set_nonblocking(peer)) {
                       ::close(peer);
                       continue;
                     }
                     set_nodelay(peer);
                     on_accept_(peer);
                   }
                 });
}

TcpListener::~TcpListener() {
  loop_.unwatch_fd(fd_);
  ::close(fd_);
}

Connection::Connection(EventLoop& loop, int fd, std::string label, bool connecting,
                       FrameReassembler::Options reassembly)
    : loop_(loop),
      fd_(fd),
      label_(std::move(label)),
      connecting_(connecting),
      reassembler_(reassembly),
      alive_(std::make_shared<const char>('c')) {
  GRYPHON_CHECK(fd_ >= 0);
}

Connection::~Connection() { close(); }

void Connection::start() {
  GRYPHON_CHECK(on_close_ != nullptr);
  loop_.watch_fd(fd_, /*want_read=*/!connecting_,
                 /*want_write=*/connecting_ || outbox_bytes() > 0,
                 [this](std::uint32_t events) { on_events(events); });
}

void Connection::send_line(const std::string& line) {
  const std::string framed = line + "\n";
  send_bytes(std::as_bytes(std::span<const char>(framed.data(), framed.size())));
}

void Connection::send_bytes(std::span<const std::byte> bytes) {
  if (fd_ < 0) return;  // already dead: the owner will hear via on_close
  // Compact the sent prefix before it grows unbounded.
  if (out_head_ >= 65536 && out_head_ * 2 >= outbox_.size()) {
    outbox_.erase(outbox_.begin(), outbox_.begin() + static_cast<std::ptrdiff_t>(out_head_));
    out_head_ = 0;
  }
  outbox_.insert(outbox_.end(), bytes.begin(), bytes.end());
  // One send(2) per loop iteration, however many frames this iteration
  // queues; a connecting socket flushes when the connect completes.
  if (connecting_ || flush_deferred_) return;
  flush_deferred_ = true;
  loop_.defer([this, weak = std::weak_ptr<const char>(alive_)] {
    const std::shared_ptr<const char> guard = weak.lock();
    if (guard == nullptr) return;  // destroyed with the flush pending
    flush_deferred_ = false;
    if (fd_ < 0) return;
    flush();
    if (guard.use_count() == 1 || fd_ < 0) return;
    update_interest();
  });
}

bool Connection::close() {
  if (fd_ < 0) return true;
  // Last nonblocking flush: what the kernel takes still reaches the peer.
  if (!connecting_) write_out();
  const bool flushed = outbox_bytes() == 0;
  loop_.unwatch_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  return flushed;
}

void Connection::fail(const std::string& reason) {
  if (fd_ < 0) return;
  loop_.unwatch_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  if (on_close_ != nullptr) {
    // The handler may destroy this Connection; nothing touches members
    // after the call.
    CloseHandler h = on_close_;
    h(reason);
  }
}

void Connection::update_interest() {
  if (fd_ < 0) return;
  loop_.update_fd(fd_, /*want_read=*/!connecting_,
                  /*want_write=*/connecting_ || outbox_bytes() > 0);
}

bool Connection::write_out() {
  while (outbox_bytes() > 0) {
    const ssize_t n = ::send(fd_, outbox_.data() + out_head_, outbox_bytes(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      out_head_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  outbox_.clear();
  out_head_ = 0;
  return true;
}

void Connection::flush() {
  if (!write_out()) fail(std::string("send: ") + ::strerror(errno));
}

void Connection::on_events(std::uint32_t events) {
  const std::shared_ptr<const char> guard = alive_;
  if (connecting_) {
    // Nonblocking connect resolution: writability (or an error bit) means
    // the handshake finished; SO_ERROR says how.
    int soerr = 0;
    socklen_t len = sizeof soerr;
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len);
    if (soerr != 0 || (events & EventLoop::kError) != 0) {
      fail(std::string("connect: ") + ::strerror(soerr != 0 ? soerr : ECONNREFUSED));
      return;
    }
    connecting_ = false;
    update_interest();
    flush();
    update_interest();
    return;
  }
  if ((events & EventLoop::kReadable) != 0) {
    handle_readable(guard);
    if (guard.use_count() == 1 || fd_ < 0) return;
  }
  if ((events & EventLoop::kWritable) != 0) {
    flush();
    if (guard.use_count() == 1 || fd_ < 0) return;
    update_interest();
  } else if ((events & EventLoop::kError) != 0) {
    fail("socket error");
  }
}

void Connection::handle_readable(const std::shared_ptr<const char>& guard) {
  std::byte buf[65536];
  bool drained = false;
  while (fd_ >= 0 && !drained) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n == 0) {
      const bool torn = reassembler_.buffered() > 0;
      fail(torn ? "peer closed mid-frame" : "peer closed");
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      fail(std::string("recv: ") + ::strerror(errno));
      return;
    }
    // A short read drained the socket: stop here rather than spend one more
    // recv(2) on EAGAIN (poll reports anything that arrives meanwhile).
    drained = static_cast<std::size_t>(n) < sizeof buf;
    std::span<const std::byte> chunk(buf, static_cast<std::size_t>(n));
    if (line_mode_) {
      // One preamble line, then frames forever.
      std::size_t i = 0;
      for (; i < chunk.size(); ++i) {
        if (chunk[i] == std::byte{'\n'}) break;
        line_buf_.push_back(static_cast<char>(chunk[i]));
        if (line_buf_.size() > 4096) {
          fail("preamble line too long");
          return;
        }
      }
      if (i == chunk.size()) continue;  // newline not seen yet
      chunk = chunk.subspan(i + 1);
      line_mode_ = false;
      if (on_line_ != nullptr) {
        LineHandler h = on_line_;
        h(line_buf_);
        if (guard.use_count() == 1 || fd_ < 0) return;
      }
    }
    reassembler_.feed(chunk);
    while (auto frame = reassembler_.next()) {
      if (on_frame_ != nullptr) {
        FrameHandler h = on_frame_;
        h(std::move(frame));
        if (guard.use_count() == 1 || fd_ < 0) return;
      }
    }
  }
}

}  // namespace gryphon::net
