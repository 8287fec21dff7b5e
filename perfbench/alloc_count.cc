#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {
thread_local std::uint64_t allocations = 0;
}  // namespace

std::uint64_t ThreadAllocations() noexcept { return allocations; }

}  // namespace perfbench

// Every allocating form funnels through these two; the aligned and nothrow
// variants of the standard library call them or are replaced alongside.
void* operator new(std::size_t size) {
  ++perfbench::allocations;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++perfbench::allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
