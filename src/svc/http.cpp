#include "svc/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>

namespace cloudwf::svc {

namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

}  // namespace

std::string_view HttpRequest::header(const std::string& name) const {
  const auto it = headers.find(name);
  return it == headers.end() ? std::string_view{} : std::string_view(it->second);
}

bool HttpRequest::keep_alive() const {
  const std::string connection = to_lower(header("connection"));
  if (connection == "close") return false;
  if (connection == "keep-alive") return true;
  return version == "HTTP/1.1";  // 1.1 defaults to persistent connections
}

std::string_view reason_phrase(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

std::string serialize_response(const HttpResponse& response) {
  std::string out;
  out.reserve(response.body.size() + 128);
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += reason_phrase(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  if (response.close_connection) out += "\r\nConnection: close";
  out += "\r\n\r\n";
  out += response.body;
  return out;
}

std::optional<HttpRequest> parse_request_head(std::string_view head,
                                              std::string* error) {
  const auto set_error = [&](std::string_view message) {
    if (error) *error = std::string(message);
    return std::nullopt;
  };

  HttpRequest req;
  std::size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos)
    return set_error("missing request line terminator");
  {
    const std::string_view line = head.substr(0, line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = sp1 == std::string_view::npos
                                ? std::string_view::npos
                                : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos)
      return set_error("malformed request line");
    req.method = std::string(line.substr(0, sp1));
    req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
    req.version = std::string(line.substr(sp2 + 1));
    if (req.method.empty() || req.target.empty() ||
        req.version.rfind("HTTP/", 0) != 0)
      return set_error("malformed request line");
  }

  std::size_t pos = line_end + 2;
  while (pos < head.size()) {
    line_end = head.find("\r\n", pos);
    if (line_end == std::string_view::npos)
      return set_error("missing header line terminator");
    const std::string_view line = head.substr(pos, line_end - pos);
    pos = line_end + 2;
    if (line.empty()) break;  // end of headers
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0)
      return set_error("malformed header line");
    std::string name = to_lower(trim(line.substr(0, colon)));
    // Duplicates are rejected outright: silently keeping either copy is the
    // classic request-smuggling vector (two Content-Length values, and this
    // parser and an upstream proxy may pick different ones).
    if (req.headers.count(name))
      return set_error("duplicate header '" + name + "'");
    req.headers[std::move(name)] = std::string(trim(line.substr(colon + 1)));
  }
  return req;
}

ParseResult parse_http_request(std::string_view buffer,
                               const HttpLimits& limits) {
  ParseResult result;
  const auto fail = [&](ParseStatus status, std::string_view message) {
    result.status = status;
    result.error = std::string(message);
    return result;
  };

  // Header block first: everything up to the blank line. An over-long
  // prefix with no terminator in sight is rejected before more bytes are
  // read (network input is untrusted), and so is an over-long block whose
  // terminator arrived in the same read — the verdict must not depend on
  // where the reads split the stream.
  const std::size_t head_end = buffer.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (buffer.size() > limits.max_header_bytes)
      return fail(ParseStatus::too_large, "header block exceeds limit");
    return result;  // need_more
  }
  if (head_end + 4 > limits.max_header_bytes)
    return fail(ParseStatus::too_large, "header block exceeds limit");

  std::string error;
  std::optional<HttpRequest> head =
      parse_request_head(buffer.substr(0, head_end + 4), &error);
  if (!head) return fail(ParseStatus::malformed, error);

  // This server only speaks explicit Content-Length. A Transfer-Encoding
  // request must not fall through: ignoring it would leave the chunked body
  // bytes in the buffer to be misparsed as the next pipelined request.
  if (head->headers.count("transfer-encoding"))
    return fail(ParseStatus::not_implemented,
                "Transfer-Encoding is not supported (use Content-Length)");

  // An empty Content-Length value is malformed, not zero — header() can't
  // tell absent from empty, so look up the header map directly.
  std::size_t content_length = 0;
  if (const auto cl_it = head->headers.find("content-length");
      cl_it != head->headers.end()) {
    const std::string& cl = cl_it->second;
    if (cl.empty()) return fail(ParseStatus::malformed, "invalid Content-Length");
    for (const char c : cl) {
      if (c < '0' || c > '9')
        return fail(ParseStatus::malformed, "invalid Content-Length");
      content_length = content_length * 10 + static_cast<std::size_t>(c - '0');
      if (content_length > limits.max_body_bytes)
        return fail(ParseStatus::too_large, "body exceeds limit");
    }
  }

  const std::size_t body_start = head_end + 4;
  if (buffer.size() < body_start + content_length) return result;  // need_more

  result.status = ParseStatus::ok;
  result.request = std::move(*head);
  result.request.body = std::string(buffer.substr(body_start, content_length));
  result.consumed = body_start + content_length;
  return result;
}

bool write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// ---------------------------------------------------------------------------
// HttpClient

HttpClient::~HttpClient() { disconnect(); }

HttpClient::HttpClient(HttpClient&& other) noexcept
    : host_(std::move(other.host_)),
      port_(other.port_),
      fd_(other.fd_),
      carry_(std::move(other.carry_)) {
  other.fd_ = -1;
}

HttpClient& HttpClient::operator=(HttpClient&& other) noexcept {
  if (this != &other) {
    disconnect();
    host_ = std::move(other.host_);
    port_ = other.port_;
    fd_ = other.fd_;
    carry_ = std::move(other.carry_);
    other.fd_ = -1;
  }
  return *this;
}

bool HttpClient::connect(const std::string& host, std::uint16_t port) {
  disconnect();
  host_ = host == "localhost" ? "127.0.0.1" : host;
  port_ = port;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fd_ = fd;
  carry_.clear();
  return true;
}

void HttpClient::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  carry_.clear();
}

std::optional<HttpResponse> HttpClient::roundtrip(const std::string& wire) {
  if (!write_all(fd_, wire)) return std::nullopt;
  return receive();
}

std::optional<HttpResponse> HttpClient::receive() {
  // Read the status line + headers, then the Content-Length body, reusing
  // the request head parser (a response head has the same header grammar).
  std::string buffer = std::move(carry_);
  carry_.clear();
  std::size_t head_end;
  while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return std::nullopt;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }

  const std::string_view head(buffer.data(), head_end + 2);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view status_line = head.substr(0, line_end);
  // "HTTP/1.1 200 OK"
  const std::size_t sp1 = status_line.find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  HttpResponse response;
  response.status = std::atoi(std::string(status_line.substr(sp1 + 1)).c_str());

  std::size_t content_length = 0;
  bool server_closes = false;
  std::size_t pos = line_end + 2;
  while (pos < head_end + 2) {
    const std::size_t eol = buffer.find("\r\n", pos);
    const std::string_view line(buffer.data() + pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string name = to_lower(trim(line.substr(0, colon)));
    const std::string_view value = trim(line.substr(colon + 1));
    if (name == "content-length")
      content_length = static_cast<std::size_t>(
          std::atoll(std::string(value).c_str()));
    else if (name == "connection" && to_lower(value) == "close")
      server_closes = true;
    else if (name == "content-type")
      response.content_type = std::string(value);
  }

  const std::size_t body_start = head_end + 4;
  while (buffer.size() < body_start + content_length) {
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return std::nullopt;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  response.body = buffer.substr(body_start, content_length);
  carry_ = buffer.substr(body_start + content_length);
  response.close_connection = server_closes;
  if (server_closes) disconnect();
  return response;
}

std::string HttpClient::build_wire(
    const std::string& method, const std::string& target,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers,
    const std::string& content_type) const {
  std::string wire;
  wire.reserve(body.size() + 128);
  wire += method;
  wire += ' ';
  wire += target;
  wire += " HTTP/1.1\r\nHost: ";
  wire += host_;
  wire += "\r\nContent-Type: ";
  wire += content_type;
  wire += "\r\nContent-Length: ";
  wire += std::to_string(body.size());
  for (const auto& [name, value] : extra_headers) {
    wire += "\r\n";
    wire += name;
    wire += ": ";
    wire += value;
  }
  wire += "\r\n\r\n";
  wire += body;
  return wire;
}

std::optional<HttpResponse> HttpClient::request(
    const std::string& method, const std::string& target,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers,
    const std::string& content_type) {
  const std::string wire =
      build_wire(method, target, body, extra_headers, content_type);
  if (!connected() && !connect(host_, port_)) return std::nullopt;
  if (std::optional<HttpResponse> response = roundtrip(wire)) return response;
  // The server may have dropped a kept-alive connection between requests;
  // one reconnect covers that race.
  if (!connect(host_, port_)) return std::nullopt;
  return roundtrip(wire);
}

bool HttpClient::send(
    const std::string& method, const std::string& target,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers,
    const std::string& content_type) {
  const std::string wire =
      build_wire(method, target, body, extra_headers, content_type);
  if (!connected() && !connect(host_, port_)) return false;
  if (write_all(fd_, wire)) return true;
  // Same dropped-keep-alive race as request(): safe to replay the write
  // because no response is outstanding on this connection yet.
  if (!connect(host_, port_)) return false;
  return write_all(fd_, wire);
}

}  // namespace cloudwf::svc
