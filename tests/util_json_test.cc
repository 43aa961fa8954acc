// The JSON string codec shared by the run journal and the metrics JSONL.

#include "util/json.h"

#include <string>

#include <gtest/gtest.h>

namespace ipda::util {
namespace {

TEST(JsonEscape, RoundTripsSpecials) {
  const std::string nasty =
      "plain \"quoted\" back\\slash\nnewline\ttab\rret \x01 ctrl";
  const std::string escaped = JsonEscape(nasty);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(escaped.find('\r'), std::string::npos);
  auto decoded = JsonUnescape(escaped);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, nasty);
}

TEST(JsonEscape, UnescapeRejectsMalformed) {
  EXPECT_FALSE(JsonUnescape("dangling\\").ok());
  EXPECT_FALSE(JsonUnescape("bad\\q").ok());
  EXPECT_FALSE(JsonUnescape("short\\u00").ok());
  EXPECT_FALSE(JsonUnescape("hex\\u00zz").ok());
}

}  // namespace
}  // namespace ipda::util
