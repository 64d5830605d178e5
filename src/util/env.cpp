#include "ocd/util/env.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "ocd/util/error.hpp"

namespace ocd::util {

std::int64_t parse_env_int(std::string_view name, const char* text) {
  const std::string value = text == nullptr ? "" : text;
  std::size_t consumed = 0;
  long long parsed = -1;
  // stoll alone is too permissive for a knob (it skips leading
  // whitespace and accepts a sign); demand a bare digit string.
  const bool bare_digits =
      !value.empty() && value.find_first_not_of("0123456789") ==
                            std::string::npos;
  try {
    if (bare_digits) parsed = std::stoll(value, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed == 0 || consumed != value.size() || parsed < 1 ||
      parsed > std::numeric_limits<std::int32_t>::max()) {
    throw Error(std::string(name) + " must be a positive integer, got '" +
                value + "'");
  }
  return static_cast<std::int64_t>(parsed);
}

}  // namespace ocd::util
