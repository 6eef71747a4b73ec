#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace midas {
namespace perfbench {

LoopbackClient::~LoopbackClient() { Close(); }

void LoopbackClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

Status LoopbackClient::Connect(uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::IoError(std::string("socket: ") + strerror(errno));
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = strerror(errno);
    Close();
    return Status::IoError("connect: " + err);
  }
  return Status::OK();
}

Status LoopbackClient::Post(const std::string& target, const std::string& body,
                            HttpReply* reply) {
  if (fd_ < 0) return Status::IoError("not connected");
  std::string request = "POST " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Content-Type: application/json\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IoError(std::string("send: ") + strerror(errno));
    sent += static_cast<size_t>(n);
  }

  const auto fill = [this]() -> Status {
    char chunk[65536];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return Status::IoError(std::string("recv: ") + strerror(errno));
      if (n == 0) return Status::IoError("connection closed mid-reply");
      buffer_.append(chunk, static_cast<size_t>(n));
      return Status::OK();
    }
  };
  size_t header_end;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    MIDAS_RETURN_IF_ERROR(fill());
  }
  const std::string head = buffer_.substr(0, header_end);
  if (head.compare(0, 9, "HTTP/1.1 ") != 0 || head.size() < 12) {
    return Status::Corruption("bad status line");
  }
  *reply = HttpReply{};
  reply->status = std::atoi(head.c_str() + 9);
  size_t length = 0;
  bool has_length = false;
  for (size_t pos = head.find("\r\n"); pos != std::string::npos;) {
    const size_t next = head.find("\r\n", pos + 2);
    const std::string line = head.substr(pos + 2, next - pos - 2);
    pos = next;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    size_t v = colon + 1;
    while (v < line.size() && line[v] == ' ') ++v;
    if (name == "content-length") {
      length = std::strtoul(line.c_str() + v, nullptr, 10);
      has_length = true;
    } else if (name == "x-midas-cache") {
      reply->cache = line.substr(v);
    }
  }
  if (!has_length) return Status::Corruption("reply without Content-Length");
  const size_t total = header_end + 4 + length;
  while (buffer_.size() < total) MIDAS_RETURN_IF_ERROR(fill());
  reply->body = buffer_.substr(header_end + 4, length);
  buffer_.erase(0, total);
  return Status::OK();
}

}  // namespace perfbench
}  // namespace midas
