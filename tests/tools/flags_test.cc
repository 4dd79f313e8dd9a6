// The tools' flag parser: `--name=value` matching, and numbers that
// parse whole or not at all.
#include "tools/flags.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

namespace p2prange {
namespace tools {
namespace {

TEST(ToolFlagsTest, NumbersParseWholeOrNotAtAll) {
  int workers = 7;
  EXPECT_TRUE(ParseNumber("4", &workers));
  EXPECT_EQ(workers, 4);
  EXPECT_TRUE(ParseNumber("-3", &workers));
  EXPECT_EQ(workers, -3);
  for (const char* bad : {"", "four", "2x", " 2", "+2", "99999999999"}) {
    EXPECT_FALSE(ParseNumber(bad, &workers)) << '"' << bad << '"';
  }
  EXPECT_EQ(workers, -3) << "a rejected value must not be stored";

  size_t depth = 128;
  EXPECT_FALSE(ParseNumber("-5", &depth)) << "negative for an unsigned flag";
  EXPECT_FALSE(ParseNumber("18446744073709551616", &depth));  // 2^64
  EXPECT_TRUE(ParseNumber("18446744073709551615", &depth));
  EXPECT_EQ(depth, SIZE_MAX);

  double ms = 1.0;
  EXPECT_TRUE(ParseNumber("2.5", &ms));
  EXPECT_EQ(ms, 2.5);
  for (const char* bad : {"fast", "1.5ms", "inf", "nan", "1e999"}) {
    EXPECT_FALSE(ParseNumber(bad, &ms)) << '"' << bad << '"';
  }
  EXPECT_EQ(ms, 2.5);
}

TEST(ToolFlagsTest, NumberFlagsMatchByNameAndFlagMalformedValues) {
  std::string value;
  EXPECT_TRUE(ParseFlag("--listen=1.2.3.4:5", "listen", &value));
  EXPECT_EQ(value, "1.2.3.4:5");
  EXPECT_FALSE(ParseFlag("--listen_x=1", "listen", &value));
  EXPECT_FALSE(ParseFlag("--listen", "listen", &value));

  uint64_t every = 64;
  bool malformed = false;
  EXPECT_FALSE(ParseNumberFlag("--workers=2", "checkpoint_every", &every,
                               &malformed));
  EXPECT_TRUE(ParseNumberFlag("--checkpoint_every=8", "checkpoint_every",
                              &every, &malformed));
  EXPECT_FALSE(malformed);
  EXPECT_EQ(every, 8u);
  EXPECT_TRUE(ParseNumberFlag("--checkpoint_every=", "checkpoint_every",
                              &every, &malformed));
  EXPECT_TRUE(malformed);
  EXPECT_EQ(every, 8u);
}

}  // namespace
}  // namespace tools
}  // namespace p2prange
