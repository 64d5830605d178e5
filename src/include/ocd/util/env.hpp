// Shared environment-variable parsing.
//
// Every positive-integer knob in the runtime family (OCD_JOBS worker
// budget, OCD_SHARDS shard count) means "a validated positive integer,
// or a hard error" — never a silent fallback, because a typo'd budget
// that quietly runs serial (or unsharded) is a measurement bug.  The
// knobs share one parser so they also share one error wording.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace ocd::util {

/// Parses `text` (an environment variable's value; nullptr is treated
/// as empty and rejected) as a positive integer in [1, max_value].
/// Throws ocd::Error "<name> must be a positive integer, got '<text>'"
/// on empty/garbage/non-positive/overflowing input — the wording every
/// caller of the OCD_* integer knobs shares.
std::int64_t parse_env_int(
    std::string_view name, const char* text,
    std::int64_t max_value = std::numeric_limits<std::int32_t>::max());

/// As parse_env_int, but 0 is a legal value: for knobs where zero means
/// "feature off" rather than "misconfigured" (OCD_SHARD_BALANCE_EPS's
/// exact balance band).  Error wording: "<name> must be a non-negative
/// integer, got '<text>'", with the same bare-digit contract.
std::int64_t parse_env_nonneg_int(
    std::string_view name, const char* text,
    std::int64_t max_value = std::numeric_limits<std::int32_t>::max());

}  // namespace ocd::util
