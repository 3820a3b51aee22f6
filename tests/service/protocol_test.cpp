// Wire-protocol unit tests: request parsing, response construction, and
// the %.17g round-trip property the cross-engine verification rests on.
#include "qwm/service/protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace qwm::service {
namespace {

TEST(Protocol, ParsesEveryVerb) {
  auto p = parse_request("LOAD /tmp/deck.sp");
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.request.verb, Verb::kLoad);
  EXPECT_EQ(p.request.path, "/tmp/deck.sp");

  p = parse_request("ARRIVAL out");
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.request.verb, Verb::kArrival);
  EXPECT_EQ(p.request.net, "out");

  p = parse_request("SLACK out 2n");
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.request.verb, Verb::kSlack);
  EXPECT_EQ(p.request.net, "out");
  EXPECT_DOUBLE_EQ(p.request.period, 2e-9);

  p = parse_request("CRITPATH");
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.request.verb, Verb::kCritPath);

  p = parse_request("RESIZE 3 7 2.5u");
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.request.verb, Verb::kResize);
  EXPECT_EQ(p.request.stage, 3);
  EXPECT_EQ(p.request.edge, 7);
  EXPECT_DOUBLE_EQ(p.request.width, 2.5e-6);

  EXPECT_TRUE(parse_request("UPDATE").ok);
  EXPECT_TRUE(parse_request("STATS").ok);
  EXPECT_TRUE(parse_request("SHUTDOWN").ok);
}

TEST(Protocol, VerbsAreCaseInsensitive) {
  EXPECT_TRUE(parse_request("arrival n1").ok);
  EXPECT_TRUE(parse_request("Stats").ok);
  EXPECT_TRUE(parse_request("shutdown").ok);
}

TEST(Protocol, UnknownVerbIsBadcmd) {
  const auto p = parse_request("FROBNICATE x");
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.code, "BADCMD");
  // The level-sharding verbs are gone from the protocol.
  EXPECT_EQ(parse_request("BOUNDARY").code, "BADCMD");
  EXPECT_EQ(parse_request("SETARR out 1 0 1e-11 0 1 0 1e-11 0").code,
            "BADCMD");
}

TEST(Protocol, OperandErrorsAreArg) {
  // Wrong operand counts.
  EXPECT_EQ(parse_request("LOAD").code, "ARG");
  EXPECT_EQ(parse_request("ARRIVAL").code, "ARG");
  EXPECT_EQ(parse_request("SLACK out").code, "ARG");
  EXPECT_EQ(parse_request("RESIZE 0 1").code, "ARG");
  EXPECT_EQ(parse_request("UPDATE now").code, "ARG");
  EXPECT_EQ(parse_request("CRITPATH out R").code, "ARG");
  // Malformed numbers.
  EXPECT_EQ(parse_request("SLACK out banana").code, "ARG");
  EXPECT_EQ(parse_request("RESIZE zero 1 2u").code, "ARG");
  EXPECT_EQ(parse_request("RESIZE 0 one 2u").code, "ARG");
  EXPECT_EQ(parse_request("RESIZE 0 1 wide").code, "ARG");
  // Non-finite numbers: a NaN width would wipe the design's timing at
  // UPDATE, and a NaN period never matches the slack memo.
  EXPECT_EQ(parse_request("RESIZE 0 0 nan").code, "ARG");
  EXPECT_EQ(parse_request("SLACK x inf").code, "ARG");
  EXPECT_EQ(parse_request("CORNERS x nan").code, "ARG");
}

TEST(Protocol, BlankAndCommentLinesAreIgnorable) {
  for (const char* line : {"", "   ", "# a comment", "  # indented"}) {
    const auto p = parse_request(line);
    EXPECT_FALSE(p.ok) << line;
    EXPECT_TRUE(p.code.empty()) << line;  // ignorable, not an error
  }
}

TEST(Protocol, ResponseLinesAndClassifiers) {
  EXPECT_EQ(ok_line("epoch=1"), "OK epoch=1");
  EXPECT_EQ(err_line("BUSY", "queue full"), "ERR BUSY queue full");
  EXPECT_TRUE(is_ok("OK epoch=1"));
  EXPECT_FALSE(is_ok("ERR BUSY queue full"));
  EXPECT_TRUE(is_err("ERR BUSY queue full"));
  EXPECT_TRUE(is_err("ERR BUSY queue full", "BUSY"));
  EXPECT_FALSE(is_err("ERR BUSY queue full", "ARG"));
  EXPECT_FALSE(is_err("OK epoch=1"));
  EXPECT_TRUE(retryable_code("UNAVAILABLE"));
  EXPECT_TRUE(retryable_code("BUSY"));
  EXPECT_FALSE(retryable_code("ARG"));
}

TEST(Protocol, ErrLineFoldsNewlines) {
  // One request, one response line — embedded newlines must not break
  // the framing.
  const std::string line = err_line("LOAD", "first\nsecond");
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("first second"), std::string::npos);
}

TEST(Protocol, FormatDoubleRoundTripsBits) {
  const double values[] = {0.0,     1.0,        -1.0,       1.964184362427779e-11,
                           2.5e-6,  1.0 / 3.0,  -3.3,       1e-300,
                           std::numeric_limits<double>::max()};
  for (const double v : values) {
    const double back = std::strtod(format_double(v).c_str(), nullptr);
    EXPECT_EQ(back, v) << format_double(v);
  }
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "-inf");
}

TEST(Protocol, FormatDoubleMatchesPrintf) {
  // format_double prints with std::to_chars; every reply must keep the
  // bytes "%.17g" printed before it.
  const auto printf17 = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  using L = std::numeric_limits<double>;
  std::vector<double> values = {0.0,
                                -0.0,
                                L::infinity(),
                                -L::infinity(),
                                L::quiet_NaN(),
                                -L::quiet_NaN(),
                                L::denorm_min(),
                                -L::denorm_min(),
                                L::min(),
                                -L::min(),
                                L::max(),
                                -L::max(),
                                L::min() / 3.0,
                                1e-5,
                                1e-4,
                                1e16,
                                1e17,
                                123456789012345678.0,
                                1.964184362427779e-11};
  std::mt19937_64 rng(20261021);
  for (int i = 0; i < 100000; ++i) {
    // Raw bit patterns cover every exponent, subnormals and NaN payloads.
    const std::uint64_t b = rng();
    double v;
    std::memcpy(&v, &b, sizeof v);
    values.push_back(v);
  }
  std::size_t mismatches = 0;
  for (const double v : values)
    if (format_double(v) != printf17(v) && ++mismatches <= 5)
      ADD_FAILURE() << format_double(v) << " vs " << printf17(v);
  EXPECT_EQ(mismatches, 0u);
  // The reply appender prints the same bytes.
  for (const double v : {0.0, -0.0, L::denorm_min(), L::max(), -2.5e-11})
    EXPECT_EQ(ReplyLine().field("v", v).str(), "OK v=" + printf17(v));
}

TEST(Protocol, ResponseFieldExtraction) {
  const std::string resp = "OK net=out epoch=12 rise=1.5e-11 fall=-inf";
  EXPECT_EQ(response_field(resp, "net"), "out");
  EXPECT_EQ(response_field(resp, "epoch"), "12");
  EXPECT_EQ(response_field(resp, "fall"), "-inf");
  EXPECT_EQ(response_field(resp, "missing"), "");
  // Key must match whole tokens: "rise" must not match "rise_slew".
  const std::string resp2 = "OK rise_slew=9 rise=3";
  EXPECT_EQ(response_field(resp2, "rise"), "3");
}

}  // namespace
}  // namespace qwm::service
