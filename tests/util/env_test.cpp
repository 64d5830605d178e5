// parse_env_int is the single parser behind every OCD_* positive-integer
// knob (OCD_JOBS), so its acceptance/rejection behaviour —
// and the exact error wording — is pinned once here instead of per
// caller.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "ocd/util/env.hpp"
#include "ocd/util/error.hpp"

namespace ocd::util {
namespace {

// Every text the cases feed the parser.  Index 0 is the unset variable.
constexpr const char* kTexts[] = {
    nullptr,                 // 0
    "1",                     // 1
    "8",                     // 2
    "2147483647",            // 3
    "",                      // 4
    "0",                     // 5
    "-3",                    // 6
    "four",                  // 7
    "4x",                    // 8
    " 4",                    // 9
    "4 ",                    // 10
    "3.5",                   // 11
    "0x10",                  // 12
    "2147483648",            // 13: above the i32 cap
    "99999999999999999999",  // 14
};

// gtest_discover_tests names each case after gtest's byte dump of this
// struct, so it must hold no pointer: ASLR moves an address on every
// discovery run and the case names changed with it.  The text is an
// index into kTexts instead.
struct EnvCase {
  std::int64_t text;      ///< index into kTexts
  std::int64_t expected;  ///< -1 = must throw
};

class ParseEnvIntTest : public ::testing::TestWithParam<EnvCase> {};

TEST_P(ParseEnvIntTest, ParsesOrRejectsWithSharedWording) {
  const EnvCase& c = GetParam();
  const char* text = kTexts[c.text];
  if (c.expected >= 0) {
    EXPECT_EQ(parse_env_int("OCD_TEST_KNOB", text), c.expected);
    return;
  }
  try {
    parse_env_int("OCD_TEST_KNOB", text);
    FAIL() << "expected rejection of '" << (text ? text : "(null)") << "'";
  } catch (const Error& e) {
    const std::string expected =
        std::string("OCD_TEST_KNOB must be a positive integer, got '") +
        (text == nullptr ? "" : text) + "'";
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKnobShapes, ParseEnvIntTest,
    ::testing::Values(EnvCase{1, 1}, EnvCase{2, 8}, EnvCase{3, 2147483647},
                      // rejected: the shared wording cases
                      EnvCase{0, -1}, EnvCase{4, -1}, EnvCase{5, -1},
                      EnvCase{6, -1}, EnvCase{7, -1}, EnvCase{8, -1},
                      EnvCase{9, -1}, EnvCase{10, -1}, EnvCase{11, -1},
                      EnvCase{12, -1}, EnvCase{13, -1}, EnvCase{14, -1}));

}  // namespace
}  // namespace ocd::util
