#include "util/tokenize.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace treediff {
namespace {

using ::testing::Test;

TEST(SplitWordsTest, SplitsOnWhitespaceRuns) {
  EXPECT_EQ(SplitWords("a b  c\t d\n"),
            (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(SplitWordsTest, EmptyAndBlankInput) {
  EXPECT_TRUE(SplitWords("").empty());
  EXPECT_TRUE(SplitWords("   \n\t ").empty());
}

TEST(SplitWordsTest, KeepsPunctuationByDefault) {
  EXPECT_EQ(SplitWords("Hello, world."),
            (std::vector<std::string>{"Hello,", "world."}));
}

TEST(SplitWordsTest, StripPunctNormalizesCaseAndPunctuation) {
  EXPECT_EQ(SplitWords("Hello, World. (yes)", /*strip_punct=*/true),
            (std::vector<std::string>{"hello", "world", "yes"}));
}

TEST(SplitWordsTest, StripPunctDropsPurePunctuationTokens) {
  EXPECT_EQ(SplitWords("a -- b", /*strip_punct=*/true),
            (std::vector<std::string>{"a", "b"}));
}

TEST(TrimWhitespaceTest, TrimsBothEnds) {
  EXPECT_EQ(TrimWhitespace("  abc \t"), "abc");
  EXPECT_EQ(TrimWhitespace("abc"), "abc");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace(""), "");
}

TEST(CollapseWhitespaceTest, CollapsesRunsAndNewlines) {
  EXPECT_EQ(CollapseWhitespace("a  b\nc\t\td"), "a b c d");
  EXPECT_EQ(CollapseWhitespace("  leading and trailing  "),
            "leading and trailing");
  EXPECT_EQ(CollapseWhitespace(""), "");
}

TEST(IsBlankTest, DetectsBlankStrings) {
  EXPECT_TRUE(IsBlank(""));
  EXPECT_TRUE(IsBlank(" \t\n"));
  EXPECT_FALSE(IsBlank(" x "));
}

TEST(JoinStringsTest, JoinsWithSeparator) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({"solo"}, ","), "solo");
  EXPECT_EQ(JoinStrings({}, ","), "");
}
}  // namespace
}  // namespace treediff
