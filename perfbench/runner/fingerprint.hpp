// Host and build fingerprint carried by every result.
#pragma once

#include "util/json.hpp"

namespace perfbench {

/// The vector ISA this translation unit was compiled for (it is built with
/// the library's PUBLIC flags, so it sees the kernels' -march), the ISA the
/// CPU offers, the SIMD tier the library reports at run time, and the
/// compile-time definitions the library exported.
[[nodiscard]] cspls::util::Json fingerprint();

}  // namespace perfbench
