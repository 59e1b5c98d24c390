// Tests for the strict numeric argument parsers shared by synthesize_cli and
// fuzz_cli: each takes the whole string or rejects it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../examples/cli_args.hpp"

namespace scs {
namespace {

TEST(CliArgs, ParseUintTakesTheWholeStringInRange) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_uint("18446744073709551615", 0, UINT64_MAX, v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(parse_uint("7", 1, 7, v));
  EXPECT_EQ(v, 7u);
  for (const char* bad : {"", "abc", "12x", "-1", "+1", " 1", "0", "8",
                          "18446744073709551616"})
    EXPECT_FALSE(parse_uint(bad, 1, 7, v)) << bad;
  int i = 0;
  EXPECT_TRUE(parse_int("256", 1, 256, i));
  EXPECT_EQ(i, 256);
  EXPECT_FALSE(parse_int("257", 1, 256, i));
}

TEST(CliArgs, ParsePositiveRejectsSignsSpacesAndNonFinite) {
  double v = 0.0;
  EXPECT_TRUE(parse_positive(".5", v));
  EXPECT_EQ(v, 0.5);
  EXPECT_TRUE(parse_positive("1e3", v));
  EXPECT_EQ(v, 1000.0);
  for (const char* bad : {"", "0", "-1", "+2", " 5", "1x", "nan", "inf"})
    EXPECT_FALSE(parse_positive(bad, v)) << bad;
}

TEST(CliArgs, ParseDimsRejectsEveryEmptyPart) {
  std::vector<std::size_t> dims;
  EXPECT_TRUE(parse_dims("2,3", dims));
  EXPECT_EQ(dims, (std::vector<std::size_t>{2, 3}));
  for (const char* bad : {"", ",", "2,", "2,3,", ",2", "2,,3", "0", "13", "2x"})
    EXPECT_FALSE(parse_dims(bad, dims)) << bad;
}

}  // namespace
}  // namespace scs
