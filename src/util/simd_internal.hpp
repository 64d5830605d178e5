// Internal linkage seam between the dispatch resolver (simd.cpp) and
// the AVX2 kernel translation unit (simd_avx2.cpp, the one TU compiled
// with -mavx2).  When the build cannot target AVX2 that TU returns
// nullptr and the resolver treats the level as uncompiled.
#pragma once

#include "ocd/util/simd.hpp"

namespace ocd::util::simd::detail {

/// AVX2 kernel table, or nullptr when this binary was built without
/// AVX2 codegen for simd_avx2.cpp.
const Kernels* avx2_kernels() noexcept;

}  // namespace ocd::util::simd::detail
