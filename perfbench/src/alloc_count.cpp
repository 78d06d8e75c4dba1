// Replaced global allocation functions: count every operator new (and
// its bytes) before forwarding to malloc. The matching deletes forward
// to free. Aligned (std::align_val_t) forms are left to the library and
// are not counted; nothing in src/ over-aligns heap objects.

#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) n = 1;
  while (true) {
    if (void* p = std::malloc(n)) return p;
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* counted_alloc_nothrow(std::size_t n) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}

}  // namespace

namespace perfbench {

AllocCount alloc_count() {
  return {g_allocations.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc_nothrow(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
