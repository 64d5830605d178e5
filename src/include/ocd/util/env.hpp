// Shared environment-variable parsing.
//
// A positive-integer knob (today the OCD_JOBS worker budget) means "a
// validated positive integer, or a hard error" — never a silent
// fallback, because a typo'd budget that quietly runs serial is a
// measurement bug.  Such knobs share one parser so they also share one
// error wording.
#pragma once

#include <cstdint>
#include <string_view>

namespace ocd::util {

/// Parses `text` (an environment variable's value; nullptr is treated
/// as empty and rejected) as a positive integer in [1, INT32_MAX].
/// Throws ocd::Error "<name> must be a positive integer, got '<text>'"
/// on empty/garbage/non-positive/overflowing input — the wording every
/// caller of the OCD_* integer knobs shares.
std::int64_t parse_env_int(std::string_view name, const char* text);

}  // namespace ocd::util
