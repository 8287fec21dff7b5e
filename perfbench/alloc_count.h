// Heap allocation counting for the benchmark binary: a replacement global
// operator new bumps a per-thread counter, so a rung can read how many
// allocations the calling thread made while it ran.
#pragma once

#include <cstdint>

namespace perfbench {

// Allocations made so far by the calling thread.
std::uint64_t ThreadAllocations() noexcept;

}  // namespace perfbench
