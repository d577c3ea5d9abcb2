#include "svc/protocol.h"

#include <cctype>
#include <cerrno>
#include <cstring>
#include <limits>

#include <unistd.h>

#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "util/fault_injection.h"
#include "util/strings.h"

namespace cousins::svc {
namespace {

void PutU32(char* out, uint32_t v) {
  out[0] = static_cast<char>(v & 0xff);
  out[1] = static_cast<char>((v >> 8) & 0xff);
  out[2] = static_cast<char>((v >> 16) & 0xff);
  out[3] = static_cast<char>((v >> 24) & 0xff);
}

uint32_t GetU32(const char* in) {
  return static_cast<uint32_t>(static_cast<unsigned char>(in[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(in[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[3])) << 24;
}

Status WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("frame write failed");
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads exactly `size` bytes. Returns 1 on success, 0 on EOF before
/// the first byte, -1 (with *error set) on stream error or mid-read
/// EOF.
int ReadAll(int fd, char* data, size_t size, Status* error) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = Status::Unavailable("frame read failed");
      return -1;
    }
    if (n == 0) {
      if (got == 0) return 0;
      *error = Status::Corruption("torn frame: stream ended mid-frame");
      return -1;
    }
    got += static_cast<size_t>(n);
  }
  return 1;
}

}  // namespace

Status WriteFrame(int fd, std::string_view body) {
  if (body.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame body exceeds kMaxFrameBytes");
  }
  if (fault::Fired("svc.write")) {
    COUSINS_METRIC_COUNTER_ADD("svc.write_failures", 1);
    return Status::Unavailable("injected fault at svc.write");
  }
  char header[8];
  PutU32(header, static_cast<uint32_t>(body.size()));
  PutU32(header + 4, internal::Crc32(body.data(), body.size()));
  // Header and body in one buffer, one write path: interleaving with a
  // concurrent writer on the same fd is not supported (each connection
  // has one handler thread).
  std::string frame;
  frame.reserve(sizeof(header) + body.size());
  frame.append(header, sizeof(header));
  frame.append(body);
  return WriteAll(fd, frame.data(), frame.size());
}

Result<bool> ReadFrame(int fd, std::string* body) {
  if (fault::Fired("svc.read")) {
    COUSINS_METRIC_COUNTER_ADD("svc.read_failures", 1);
    return Status::Unavailable("injected fault at svc.read");
  }
  char header[8];
  Status error;
  const int rc = ReadAll(fd, header, sizeof(header), &error);
  if (rc == 0) return false;
  if (rc < 0) return error;
  const uint32_t length = GetU32(header);
  const uint32_t crc = GetU32(header + 4);
  if (length > kMaxFrameBytes) {
    return Status::Corruption("frame length exceeds kMaxFrameBytes");
  }
  body->resize(length);
  if (length > 0) {
    const int rc_body = ReadAll(fd, body->data(), length, &error);
    if (rc_body <= 0) {
      return rc_body == 0
                 ? Status::Corruption("torn frame: stream ended mid-frame")
                 : error;
    }
  }
  if (internal::Crc32(body->data(), body->size()) != crc) {
    return Status::Corruption("frame CRC mismatch");
  }
  return true;
}

Result<Request> ParseRequest(std::string_view body) {
  const size_t nl = body.find('\n');
  const std::string_view first =
      nl == std::string_view::npos ? body : body.substr(0, nl);
  Request request;
  if (nl != std::string_view::npos) {
    request.payload.assign(body.substr(nl + 1));
  }
  for (std::string_view token : Split(StripWhitespace(first), ' ')) {
    if (token.empty()) continue;
    if (request.verb.empty()) {
      request.verb.assign(token);
      for (char& c : request.verb) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
    } else {
      request.args.emplace_back(token);
    }
  }
  if (request.verb.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  return request;
}

std::string RenderResponse(const Response& response) {
  std::string out;
  if (response.status.ok()) {
    out = "OK";
  } else {
    out = "ERR ";
    out += StatusCodeName(response.status.code());
    if (response.retry_after_ms > 0) {
      out += " retry-after-ms=" + std::to_string(response.retry_after_ms);
    }
    // The message rides the status line; real newlines would shear the
    // line/payload split.
    std::string message(response.status.message());
    for (char& c : message) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    if (!message.empty()) out += " " + message;
  }
  out += "\n";
  out += response.payload;
  return out;
}

Result<ParsedResponse> ParseResponse(std::string_view body) {
  const size_t nl = body.find('\n');
  if (nl == std::string_view::npos) {
    return Status::Corruption("response has no status line");
  }
  const std::string_view first = body.substr(0, nl);
  ParsedResponse parsed;
  parsed.payload.assign(body.substr(nl + 1));
  if (first == "OK" || StartsWith(first, "OK ")) {
    parsed.ok = true;
    parsed.code_name = "OK";
    return parsed;
  }
  if (!StartsWith(first, "ERR ")) {
    return Status::Corruption("malformed response status line");
  }
  std::string_view rest = first.substr(4);
  const size_t sp = rest.find(' ');
  parsed.code_name.assign(sp == std::string_view::npos ? rest
                                                       : rest.substr(0, sp));
  if (parsed.code_name.empty()) {
    return Status::Corruption("malformed response status line");
  }
  rest = sp == std::string_view::npos ? std::string_view()
                                      : rest.substr(sp + 1);
  constexpr std::string_view kRetryPrefix = "retry-after-ms=";
  if (StartsWith(rest, kRetryPrefix)) {
    size_t end = rest.find(' ');
    const std::string_view token =
        rest.substr(kRetryPrefix.size(),
                    (end == std::string_view::npos ? rest.size() : end) -
                        kRetryPrefix.size());
    int64_t retry_after_ms = 0;
    if (!ParseNonNegativeInt(token, &retry_after_ms) ||
        retry_after_ms > std::numeric_limits<int>::max()) {
      return Status::Corruption("malformed retry-after-ms in response");
    }
    parsed.retry_after_ms = static_cast<int>(retry_after_ms);
    rest = end == std::string_view::npos ? std::string_view()
                                         : rest.substr(end + 1);
  }
  parsed.message.assign(rest);
  return parsed;
}

}  // namespace cousins::svc
