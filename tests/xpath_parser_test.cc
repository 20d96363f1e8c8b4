#include "pattern/xpath_parser.h"

#include <string>

#include <gtest/gtest.h>

#include "pattern/properties.h"
#include "pattern/serializer.h"

namespace xpv {
namespace {

TEST(XPathParserTest, SingleLabel) {
  Pattern p = MustParseXPath("a");
  EXPECT_EQ(p.size(), 1);
  EXPECT_EQ(p.label(0), L("a"));
  EXPECT_EQ(p.output(), p.root());
}

TEST(XPathParserTest, SingleWildcard) {
  Pattern p = MustParseXPath("*");
  EXPECT_EQ(p.label(0), LabelStore::kWildcard);
}

TEST(XPathParserTest, ChildAndDescendantSteps) {
  Pattern p = MustParseXPath("a/b//c");
  ASSERT_EQ(p.size(), 3);
  EXPECT_EQ(p.edge(1), EdgeType::kChild);
  EXPECT_EQ(p.edge(2), EdgeType::kDescendant);
  EXPECT_EQ(p.output(), 2);
}

TEST(XPathParserTest, LeadingSlashIsAccepted) {
  EXPECT_TRUE(Isomorphic(MustParseXPath("/a/b"), MustParseXPath("a/b")));
}

TEST(XPathParserTest, LeadingDoubleSlashAddsWildcardRoot) {
  Pattern p = MustParseXPath("//a");
  ASSERT_EQ(p.size(), 2);
  EXPECT_EQ(p.label(0), LabelStore::kWildcard);
  EXPECT_EQ(p.edge(1), EdgeType::kDescendant);
  EXPECT_EQ(p.output(), 1);
}

TEST(XPathParserTest, PredicatesAttachAsBranches) {
  Pattern p = MustParseXPath("a[b][c]/d");
  ASSERT_EQ(p.size(), 4);
  EXPECT_EQ(p.parent(1), 0);
  EXPECT_EQ(p.parent(2), 0);
  EXPECT_EQ(p.parent(3), 0);
  EXPECT_EQ(p.output(), 3);
  SelectionInfo info(p);
  EXPECT_EQ(info.depth(), 1);
}

TEST(XPathParserTest, PredicateWithPath) {
  Pattern p = MustParseXPath("a[b/c//d]/e");
  SelectionInfo info(p);
  EXPECT_EQ(info.depth(), 1);
  EXPECT_EQ(p.size(), 5);
  EXPECT_EQ(p.edge(3), EdgeType::kDescendant);  // c//d.
}

TEST(XPathParserTest, PredicateLeadingDescendant) {
  Pattern p = MustParseXPath("a[//b]");
  ASSERT_EQ(p.size(), 2);
  EXPECT_EQ(p.edge(1), EdgeType::kDescendant);
  EXPECT_EQ(p.output(), 0);  // Output stays at the root step.
}

TEST(XPathParserTest, NestedPredicates) {
  Pattern p = MustParseXPath("a[b[c][d]]/e");
  EXPECT_EQ(p.size(), 5);
  EXPECT_EQ(p.parent(2), 1);
  EXPECT_EQ(p.parent(3), 1);
}

TEST(XPathParserTest, OutputIsLastTopLevelStepEvenWithPredicates) {
  Pattern p = MustParseXPath("a/b[c]");
  EXPECT_EQ(p.output(), 1);
  EXPECT_EQ(p.label(p.output()), L("b"));
}

TEST(XPathParserTest, WhitespaceTolerated) {
  EXPECT_TRUE(Isomorphic(MustParseXPath(" a / b [ c ] "),
                         MustParseXPath("a/b[c]")));
}

TEST(XPathParserTest, Errors) {
  EXPECT_FALSE(ParseXPath("").ok());
  EXPECT_FALSE(ParseXPath("a[").ok());
  EXPECT_FALSE(ParseXPath("a]").ok());
  EXPECT_FALSE(ParseXPath("a/").ok());
  EXPECT_FALSE(ParseXPath("/").ok());
  EXPECT_FALSE(ParseXPath("a[]").ok());
  EXPECT_FALSE(ParseXPath("a//[b]").ok());
  EXPECT_FALSE(ParseXPath("1abc").ok());
  EXPECT_FALSE(ParseXPath("a b").ok());
}

TEST(XPathParserTest, ErrorsCarryByteOffsets) {
  struct Case {
    const char* input;
    size_t offset;
  };
  const Case cases[] = {
      {"", 0},        // Empty expression.
      {"a[b//]", 5},  // ']' where a step was expected.
      {"a[", 2},      // Input ends where a step was expected.
      {"a[b", 3},     // Unterminated predicate.
      {"a/", 2},      // Trailing '/' without a step.
      {"a]", 1},      // Stray ']'.
      {"1abc", 0},    // Names cannot start with a digit.
      {"a b", 2},     // Stray second name.
  };
  for (const Case& c : cases) {
    Result<Pattern, XPathParseError> result = ParseXPathDetailed(c.input);
    ASSERT_FALSE(result.ok()) << c.input;
    EXPECT_EQ(result.error().offset, c.offset)
        << c.input << ": " << result.error().message;
  }
}

/// "a" followed by `depth` nested "[b" ... "]" predicates.
std::string NestedPredicates(int depth) {
  std::string expr = "a";
  for (int i = 0; i < depth; ++i) expr += "[b";
  expr.append(static_cast<size_t>(depth), ']');
  return expr;
}

TEST(XPathParserTest, DeepPredicateNestingIsAParseErrorNotACrash) {
  // Each '[' level recurses, so an unbounded nest (40 000 deep here)
  // would overflow the stack. The '[' that would open level 257 is a
  // structured error at its byte offset ("a" + 256 * "[b" precede it).
  for (int depth : {257, 40000}) {
    Result<Pattern, XPathParseError> result =
        ParseXPathDetailed(NestedPredicates(depth));
    ASSERT_FALSE(result.ok()) << depth;
    EXPECT_EQ(result.error().offset, 1u + 2u * 256u) << depth;
    EXPECT_NE(result.error().message.find("nested deeper than 256"),
              std::string::npos)
        << result.error().message;
  }
  // The deepest accepted nest parses into one chain of branches.
  Result<Pattern, XPathParseError> deepest =
      ParseXPathDetailed(NestedPredicates(256));
  ASSERT_TRUE(deepest.ok()) << deepest.error().message;
  EXPECT_EQ(deepest.value().size(), 257);
  // Sibling predicates do not nest: many of them stay legal.
  std::string siblings = "a";
  for (int i = 0; i < 1000; ++i) siblings += "[b]";
  EXPECT_TRUE(ParseXPathDetailed(siblings).ok());
}

TEST(XPathParserTest, ErrorFormatHasSummaryAndCaretContext) {
  Result<Pattern, XPathParseError> result = ParseXPathDetailed("a[b//]");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().Summary(), "position 5: expected step");
  EXPECT_EQ(result.error().Format("a[b//]"),
            "position 5: expected step\n"
            "  a[b//]\n"
            "       ^");
  // The string-typed wrapper carries the same rendering.
  Result<Pattern> wrapped = ParseXPath("a[b//]");
  ASSERT_FALSE(wrapped.ok());
  EXPECT_NE(wrapped.error().find("position 5: expected step"),
            std::string::npos);
}

TEST(XPathParserTest, ErrorFormatSlicesToTheOffendingLine) {
  // Newlines are legal whitespace; the caret context shows only the line
  // containing the error, with the caret aligned within it.
  Result<Pattern, XPathParseError> result = ParseXPathDetailed("a[\nb//]");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().offset, 6u);  // The ']' on the second line.
  EXPECT_EQ(result.error().Format("a[\nb//]"),
            "position 6: expected step\n"
            "  b//]\n"
            "     ^");
}

TEST(XPathParserTest, NonAsciiLabelsParse) {
  // NAME accepts non-ASCII UTF-8 bytes: labels are interned as byte
  // strings, matching the XML side (element names are not restricted to
  // ASCII in practice).
  Result<Pattern, XPathParseError> result = ParseXPathDetailed("café/日本");
  ASSERT_TRUE(result.ok()) << result.error().Summary();
  const Pattern& p = result.value();
  EXPECT_EQ(LabelName(p.label(p.root())), "café");
  EXPECT_EQ(LabelName(p.label(p.output())), "日本");
}

TEST(XPathParserTest, ErrorCaretCountsDisplayColumnsNotBytes) {
  // Regression: the caret column was counted in bytes, so multi-byte
  // UTF-8 labels before the error pushed the caret right of the
  // offending character. "café/" is 6 bytes but 5 display columns: the
  // byte offset stays 6 (the struct's contract), the caret sits at
  // column 5.
  Result<Pattern, XPathParseError> result = ParseXPathDetailed("café/");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().offset, 6u);  // Byte offset, past the 'é'.
  EXPECT_EQ(result.error().Format("café/"),
            "position 6: expected step\n"
            "  café/\n"
            "       ^");  // 5 columns of text under "  ", caret at the 6th.

  // Mixed with the line slicing: only the offending line counts.
  Result<Pattern, XPathParseError> multiline =
      ParseXPathDetailed("café[\n日本//]");
  ASSERT_FALSE(multiline.ok());
  EXPECT_EQ(multiline.error().offset, 15u);  // ']' byte offset.
  EXPECT_EQ(multiline.error().Format("café[\n日本//]"),
            "position 15: expected step\n"
            "  日本//]\n"
            "      ^");  // 2 ideographs + 2 slashes = 4 columns.
}

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, SerializeThenParseIsIdentity) {
  Pattern p = MustParseXPath(GetParam());
  std::string xpath = ToXPath(p);
  Pattern reparsed = MustParseXPath(xpath);
  EXPECT_TRUE(Isomorphic(p, reparsed))
      << GetParam() << " -> " << xpath << " -> " << ToXPath(reparsed);
}

INSTANTIATE_TEST_SUITE_P(
    Various, RoundTripTest,
    ::testing::Values(
        "a", "*", "a/b", "a//b", "a/*//b", "a[b]", "a[//b]", "a[b][c]",
        "a[b/c]/d", "a[b//c][d]/e//f", "*[*]/*", "a[b[c[d]]]//e",
        "x//y//z[w]", "a[b][c][d][e]", "a//*[b]/*[c]//d",
        "root[p/q][//r]/s[t]//u"));

}  // namespace
}  // namespace xpv
