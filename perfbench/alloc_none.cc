// Copyright 2026 The streambid Authors
// The alloc_probe interface without the counting allocator, for the
// timed binary: a global atomic counter on every allocation would add
// contended increments to the hot path being timed.

#include "bench/alloc_probe.h"

namespace streambid::bench {

bool AllocProbeAvailable() { return false; }

int64_t AllocCount() { return 0; }

}  // namespace streambid::bench
