// Unit tests for the support library: diagnostics rendering and string
// utilities (including the LoC metric used by the Figure 9/10 benches).
#include <gtest/gtest.h>

#include "support/diagnostics.hpp"
#include "support/strings.hpp"

namespace lucid {
namespace {

TEST(Diagnostics, CollectsAndCountsErrors) {
  DiagnosticEngine diags;
  EXPECT_FALSE(diags.has_errors());
  diags.error(SrcRange{{1, 1}, {1, 2}}, "some-code", "something failed");
  diags.warning(SrcRange{{2, 1}, {2, 2}}, "warn-code", "be careful");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.all().size(), 2u);
  EXPECT_TRUE(diags.has_code("some-code"));
  EXPECT_TRUE(diags.has_code("warn-code"));
  EXPECT_FALSE(diags.has_code("other-code"));
}

TEST(Diagnostics, RendersSourceLineWithCaret) {
  DiagnosticEngine diags("first line\nsecond line\nthird line\n");
  diags.error(SrcRange{{2, 8}, {2, 12}}, "c", "bad token");
  const std::string out = diags.render();
  EXPECT_NE(out.find("second line"), std::string::npos);
  EXPECT_NE(out.find("2:8"), std::string::npos);
  // Caret under column 8.
  EXPECT_NE(out.find("       ^"), std::string::npos);
}

TEST(Diagnostics, ClearResetsState) {
  DiagnosticEngine diags;
  diags.error(SrcRange{}, "c", "m");
  diags.clear();
  EXPECT_FALSE(diags.has_errors());
  EXPECT_TRUE(diags.all().empty());
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, TrimRemovesWhitespace) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, ParsePositiveIntIsStrict) {
  EXPECT_EQ(parse_positive_int("4"), 4);
  EXPECT_EQ(parse_positive_int("512"), 512);
  EXPECT_FALSE(parse_positive_int("").has_value());
  EXPECT_FALSE(parse_positive_int("0").has_value());
  EXPECT_FALSE(parse_positive_int("-3").has_value());
  EXPECT_FALSE(parse_positive_int("4x").has_value());
  EXPECT_FALSE(parse_positive_int("1,6").has_value());
  EXPECT_FALSE(parse_positive_int("abc").has_value());
  EXPECT_FALSE(parse_positive_int("99999999999999999999").has_value());
}

TEST(Strings, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"one"}, ","), "one");
}

TEST(Strings, CountLocSkipsBlanksAndComments) {
  const std::string src =
      "// a comment\n"
      "\n"
      "int x = 1;\n"
      "   \t\n"
      "  // indented comment\n"
      "int y = 2;  // trailing comment counts\n";
  EXPECT_EQ(count_loc(src), 2u);
}

TEST(Strings, CountLocEmpty) { EXPECT_EQ(count_loc(""), 0u); }

TEST(Strings, CountLocEdgeCases) {
  // A last line without a newline still counts.
  EXPECT_EQ(count_loc("int x = 1;"), 1u);
  EXPECT_EQ(count_loc("a\nb"), 2u);
  // An indented // line is a comment, whatever the indentation.
  EXPECT_EQ(count_loc("    // note"), 0u);
  EXPECT_EQ(count_loc("\t// note\nint a;\n"), 1u);
  // Whitespace-only lines are blank.
  EXPECT_EQ(count_loc(" \t \n\r\n\v\f\n"), 0u);
  EXPECT_EQ(count_loc("\n\n"), 0u);
  EXPECT_EQ(count_loc("\n"), 0u);
  // '/' alone or '/ /' is code, not a comment.
  EXPECT_EQ(count_loc("/\n/ /\n"), 2u);
}

TEST(Strings, IndentPadsNonEmptyLines) {
  EXPECT_EQ(indent("a\n\nb", 2), "  a\n\n  b");
}

TEST(SourceLocation, Formatting) {
  EXPECT_EQ(SrcLoc{}.str(), "<unknown>");
  EXPECT_EQ((SrcLoc{3, 7}).str(), "3:7");
  EXPECT_FALSE(SrcLoc{}.valid());
  EXPECT_TRUE((SrcLoc{1, 1}).valid());
}

}  // namespace
}  // namespace lucid
