#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made through global operator new since the process
/// started: every thread that has exited, plus the calling thread.
std::uint64_t allocations();

}  // namespace perfbench
