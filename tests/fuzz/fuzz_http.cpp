// Fuzz target: svc/http request parsing — the exact code path `cloudwf
// serve` and the sweep coordinator run on network bytes. The input is fed
// to parse_http_request the way svc::EventLoop::process_input consumes a
// connection: bytes arrive in reads, each `ok` request is erased from the
// front of the buffer (`consumed` bytes) and the rest is parsed again, so
// pipelining and the need_more path are both exercised.
//
// Properties: parsing never crashes and always terminates; ok requests
// respect the configured limits and carry lower-cased, deduplicated header
// names; every rejection names its error; the verdict does not depend on
// how the stream was split into reads; parse_request_head fails gracefully
// on the raw input.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "svc/http.hpp"

namespace {

using namespace cloudwf::svc;

/// What one connection made of the stream: the requests it answered and
/// how it ended (need_more = the peer closed, cleanly or mid-request).
struct Consumed {
  std::vector<HttpRequest> requests;
  ParseStatus last = ParseStatus::need_more;
};

Consumed consume(std::string_view input, std::size_t read_size,
                 const HttpLimits& limits) {
  Consumed out;
  std::string in;
  std::size_t offset = 0;
  while (offset < input.size()) {
    const std::size_t n = std::min(read_size, input.size() - offset);
    in.append(input.substr(offset, n));
    offset += n;
    for (;;) {
      ParseResult parsed = parse_http_request(in, limits);
      if (parsed.status == ParseStatus::need_more) break;
      if (parsed.status != ParseStatus::ok) {
        if (parsed.error.empty()) __builtin_trap();
        out.last = parsed.status;
        return out;  // the loop answers 4xx/501 and closes
      }
      if (parsed.consumed == 0 || parsed.consumed > in.size())
        __builtin_trap();
      in.erase(0, parsed.consumed);
      out.requests.push_back(std::move(parsed.request));
    }
  }
  return out;
}

void check_request(const HttpRequest& request, const HttpLimits& limits) {
  if (request.body.size() > limits.max_body_bytes) __builtin_trap();
  if (request.method.empty() || request.target.empty()) __builtin_trap();
  // Header names were lower-cased and deduplicated by the parser.
  for (const auto& [name, value] : request.headers) {
    (void)value;
    for (const char c : name)
      if (c >= 'A' && c <= 'Z') __builtin_trap();
  }
  (void)request.keep_alive();
}

bool same(const HttpRequest& a, const HttpRequest& b) {
  return a.method == b.method && a.target == b.target &&
         a.version == b.version && a.headers == b.headers && a.body == b.body;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Tight limits keep the fuzzer fast and make the too_large paths reachable
  // with small inputs.
  HttpLimits limits;
  limits.max_header_bytes = 1024;
  limits.max_body_bytes = 4096;

  const std::string_view input(reinterpret_cast<const char*>(data), size);

  // One read holding the whole stream, and short reads whose length the
  // input picks (1..16 bytes): both must reach the same verdict.
  const Consumed whole = consume(input, input.size() + 1, limits);
  const std::size_t read_size = size == 0 ? 1 : 1 + data[size - 1] % 16;
  const Consumed split = consume(input, read_size, limits);

  for (const HttpRequest& request : whole.requests)
    check_request(request, limits);
  if (whole.last != split.last ||
      whole.requests.size() != split.requests.size())
    __builtin_trap();
  for (std::size_t i = 0; i < whole.requests.size(); ++i)
    if (!same(whole.requests[i], split.requests[i])) __builtin_trap();

  // Also hit the head parser directly with the raw input (it must fail
  // gracefully on inputs parse_http_request would never hand it).
  std::string error;
  (void)parse_request_head(input, &error);
  return 0;
}
