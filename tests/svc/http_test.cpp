// Wire-layer tests: strict request parsing (pipelining, size limits,
// framing errors) and response serialization, all on in-memory buffers —
// the exact bytes svc::EventLoop hands parse_http_request.
#include "svc/http.hpp"

#include <gtest/gtest.h>

#include <string>

namespace cloudwf::svc {
namespace {

TEST(HttpParse, ParsesRequestLineAndHeaders) {
  std::string error;
  const auto req = parse_request_head(
      "POST /v1/evaluate HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type:  application/json \r\n"
      "\r\n",
      &error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->target, "/v1/evaluate");
  EXPECT_EQ(req->version, "HTTP/1.1");
  EXPECT_EQ(req->header("host"), "localhost");
  EXPECT_EQ(req->header("content-type"), "application/json");  // trimmed
  EXPECT_EQ(req->header("absent"), "");
}

TEST(HttpParse, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_request_head("GET\r\n\r\n", &error));
  EXPECT_FALSE(parse_request_head("GET /x FTP/1.0\r\n\r\n", &error));
  EXPECT_FALSE(parse_request_head("GET /x HTTP/1.1\r\nno-colon\r\n\r\n",
                                  &error));
  EXPECT_FALSE(error.empty());
}

TEST(HttpParse, KeepAliveDefaultsOnForHttp11) {
  std::string error;
  auto req = parse_request_head("GET / HTTP/1.1\r\n\r\n", &error);
  ASSERT_TRUE(req.has_value());
  EXPECT_TRUE(req->keep_alive());

  req = parse_request_head("GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
                           &error);
  ASSERT_TRUE(req.has_value());
  EXPECT_FALSE(req->keep_alive());
}

TEST(HttpSerialize, EmitsContentLengthFraming) {
  HttpResponse response;
  response.status = 200;
  response.body = R"({"ok":true})";
  const std::string wire = serialize_response(response);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_EQ(wire.find("Connection: close"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - response.body.size()), response.body);
}

TEST(HttpSerialize, CloseConnectionHeader) {
  HttpResponse response;
  response.close_connection = true;
  EXPECT_NE(serialize_response(response).find("Connection: close\r\n"),
            std::string::npos);
}

TEST(HttpSerialize, ReasonPhrasesForServiceStatuses) {
  EXPECT_EQ(reason_phrase(200), "OK");
  EXPECT_EQ(reason_phrase(400), "Bad Request");
  EXPECT_EQ(reason_phrase(404), "Not Found");
  EXPECT_EQ(reason_phrase(429), "Too Many Requests");
  EXPECT_EQ(reason_phrase(503), "Service Unavailable");
  EXPECT_EQ(reason_phrase(504), "Gateway Timeout");
}

TEST(HttpParse, ReadsBodyAndKeepsPipelinedLeftovers) {
  const std::string first =
      "POST /v1/evaluate HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
  const std::string second = "GET /health HTTP/1.1\r\n\r\n";
  std::string buffer = first + second;

  const ParseResult one = parse_http_request(buffer);
  ASSERT_EQ(one.status, ParseStatus::ok) << one.error;
  EXPECT_EQ(one.request.body, "abcd");
  EXPECT_LT(one.consumed, buffer.size());  // the second request is left over
  buffer.erase(0, one.consumed);

  const ParseResult two = parse_http_request(buffer);
  ASSERT_EQ(two.status, ParseStatus::ok) << two.error;
  EXPECT_EQ(two.request.target, "/health");
  EXPECT_EQ(two.consumed, buffer.size());
  buffer.erase(0, two.consumed);

  // Nothing left: the loop waits for more bytes (or closes on EOF).
  EXPECT_EQ(parse_http_request(buffer).status, ParseStatus::need_more);
}

TEST(HttpParse, RejectsOversizedDeclaredBody) {
  HttpLimits limits;
  limits.max_body_bytes = 16;
  EXPECT_EQ(parse_http_request(
                "POST /v1/evaluate HTTP/1.1\r\nContent-Length: 17\r\n\r\n",
                limits)
                .status,
            ParseStatus::too_large);
}

TEST(HttpParse, RejectsOversizedHeaderBlock) {
  HttpLimits limits;
  limits.max_header_bytes = 64;
  // No blank-line terminator: the parser must give up once the accumulated
  // header block passes the limit instead of buffering forever.
  EXPECT_EQ(
      parse_http_request("GET / HTTP/1.1\r\nX-Pad: " + std::string(128, 'x'),
                         limits)
          .status,
      ParseStatus::too_large);
}

TEST(HttpParse, MalformedContentLengthIsRejected) {
  EXPECT_EQ(
      parse_http_request("POST / HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n")
          .status,
      ParseStatus::malformed);
}

// --- regressions found by the fuzz/correctness harness (PR 5) ---

TEST(HttpParse, RejectsDuplicateHeaders) {
  // Pre-fix: the header map silently kept the last duplicate — with two
  // Content-Length values, this parser and any proxy in front of it could
  // frame the body differently (request smuggling).
  std::string error;
  EXPECT_FALSE(parse_request_head(
      "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 0\r\n\r\n",
      &error));
  EXPECT_NE(error.find("duplicate header"), std::string::npos);

  // Case-insensitive: the same name in different casing is still a duplicate.
  EXPECT_FALSE(parse_request_head(
      "GET / HTTP/1.1\r\nX-Tag: a\r\nx-tag: b\r\n\r\n", &error));
}

TEST(HttpParse, RejectsTransferEncodingAsNotImplemented) {
  // Pre-fix: Transfer-Encoding was ignored, so the chunked body bytes stayed
  // in the buffer and were parsed as the next pipelined request.
  const ParseResult r = parse_http_request(
      "POST /v1/evaluate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nabcd\r\n0\r\n\r\n");
  EXPECT_EQ(r.status, ParseStatus::not_implemented);
  EXPECT_NE(r.error.find("Transfer-Encoding"), std::string::npos);
}

TEST(HttpParse, EmptyContentLengthIsMalformedNotZero) {
  EXPECT_EQ(
      parse_http_request("POST / HTTP/1.1\r\nContent-Length:\r\n\r\n").status,
      ParseStatus::malformed);
}

TEST(HttpParse, HugeContentLengthCannotOverflow) {
  // 20 digits overflow std::size_t if accumulated naively; the limit check
  // inside the digit loop must fire before any wraparound.
  EXPECT_EQ(parse_http_request(
                "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n")
                .status,
            ParseStatus::too_large);
}

TEST(HttpParse, HeaderBlockLimitHoldsWhateverTheReadSplit) {
  // Pre-fix: the header cap was checked only while the blank line had not
  // arrived, so an over-long block delivered in one read parsed fine while
  // the same bytes split across two reads were rejected.
  HttpLimits limits;
  limits.max_header_bytes = 64;
  const std::string wire =
      "GET / HTTP/1.1\r\nX-Pad: " + std::string(128, 'x') + "\r\n\r\n";
  EXPECT_EQ(parse_http_request(wire, limits).status, ParseStatus::too_large);
  EXPECT_EQ(parse_http_request(wire.substr(0, 100), limits).status,
            ParseStatus::too_large);

  // A block of exactly the cap is accepted, one byte more is not.
  const std::string head = "GET / HTTP/1.1\r\nX: ";
  const std::string fits =
      head + std::string(64 - head.size() - 4, 'y') + "\r\n\r\n";
  ASSERT_EQ(fits.size(), 64u);
  EXPECT_EQ(parse_http_request(fits, limits).status, ParseStatus::ok);
  const std::string over =
      head + std::string(64 - head.size() - 3, 'y') + "\r\n\r\n";
  EXPECT_EQ(parse_http_request(over, limits).status, ParseStatus::too_large);
}

TEST(HttpSerialize, NotImplementedReasonPhrase) {
  EXPECT_EQ(reason_phrase(501), "Not Implemented");
}

// --- incremental parser (the event loop's per-read entry point) ---

TEST(HttpIncremental, ByteAtATimeNeedsMoreUntilComplete) {
  const std::string wire =
      "POST /v1/evaluate HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
  // Every strict prefix is "need_more"; only the full buffer parses.
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const ParseResult r = parse_http_request(wire.substr(0, n));
    EXPECT_EQ(r.status, ParseStatus::need_more) << "prefix length " << n;
  }
  const ParseResult full = parse_http_request(wire);
  ASSERT_EQ(full.status, ParseStatus::ok) << full.error;
  EXPECT_EQ(full.request.body, "abcd");
  EXPECT_EQ(full.consumed, wire.size());
}

TEST(HttpIncremental, ConsumedStopsAtRequestBoundary) {
  const std::string first = "GET /health HTTP/1.1\r\n\r\n";
  const std::string second = "GET /stats HTTP/1.1\r\n\r\n";
  const std::string buffer = first + second;
  const ParseResult one = parse_http_request(buffer);
  ASSERT_EQ(one.status, ParseStatus::ok);
  EXPECT_EQ(one.request.target, "/health");
  EXPECT_EQ(one.consumed, first.size());
  // The event loop erases `consumed` bytes and parses again.
  const ParseResult two =
      parse_http_request(std::string_view(buffer).substr(one.consumed));
  ASSERT_EQ(two.status, ParseStatus::ok);
  EXPECT_EQ(two.request.target, "/stats");
  EXPECT_EQ(two.consumed, second.size());
}

TEST(HttpIncremental, RejectionsMapToTheirStatuses) {
  EXPECT_EQ(parse_http_request("GET\r\n\r\n").status, ParseStatus::malformed);
  EXPECT_EQ(
      parse_http_request("POST / HTTP/1.1\r\nContent-Length: huh\r\n\r\n")
          .status,
      ParseStatus::malformed);
  EXPECT_EQ(parse_http_request(
                "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .status,
            ParseStatus::not_implemented);

  HttpLimits limits;
  limits.max_body_bytes = 8;
  EXPECT_EQ(parse_http_request(
                "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n", limits)
                .status,
            ParseStatus::too_large);
  // An unterminated header block past the cap must fail, not ask for more.
  limits.max_header_bytes = 32;
  EXPECT_EQ(
      parse_http_request("GET / HTTP/1.1\r\nX-Pad: " + std::string(64, 'x'),
                         limits)
          .status,
      ParseStatus::too_large);
}

TEST(HttpIncremental, AgreesWithBlockingReaderOnABody) {
  const std::string wire =
      "POST /v1/rank HTTP/1.1\r\nContent-Type: application/json\r\n"
      "Content-Length: 2\r\n\r\n{}";
  const ParseResult r = parse_http_request(wire);
  ASSERT_EQ(r.status, ParseStatus::ok);
  EXPECT_EQ(r.request.method, "POST");
  EXPECT_EQ(r.request.target, "/v1/rank");
  EXPECT_EQ(r.request.header("content-type"), "application/json");
  EXPECT_EQ(r.request.body, "{}");
}

}  // namespace
}  // namespace cloudwf::svc
