#ifndef MIDAS_PERFBENCH_HTTP_CLIENT_H_
#define MIDAS_PERFBENCH_HTTP_CLIENT_H_

// A blocking HTTP/1.1 client for one keep-alive loopback connection: the
// benchmark's closed-loop user of `midas serve`.

#include <cstdint>
#include <string>

#include "midas/util/status.h"

namespace midas {
namespace perfbench {

struct HttpReply {
  int status = 0;
  // Value of the X-Midas-Cache header ("hit", "miss", "skip"), or empty.
  std::string cache;
  std::string body;
};

class LoopbackClient {
 public:
  LoopbackClient() = default;
  ~LoopbackClient();
  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;

  Status Connect(uint16_t port);
  // Sends one POST and reads its whole reply.
  Status Post(const std::string& target, const std::string& body,
              HttpReply* reply);
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes read past the previous reply
};

}  // namespace perfbench
}  // namespace midas

#endif  // MIDAS_PERFBENCH_HTTP_CLIENT_H_
