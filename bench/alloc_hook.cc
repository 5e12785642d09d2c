// Global operator new/delete replacement that counts allocations and live
// bytes. See alloc_hook.h for the gate protocol and why this lives outside
// any library target. Every new form funnels through Counted() or
// CountedAligned(); every delete form funnels through Release() — the
// replacement must cover the whole family or mixed new/delete pairs would
// corrupt the heap.
#include "bench/alloc_hook.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// On separate cache lines, so the two counters every new bumps from many
// threads do not share one.
alignas(64) std::atomic<std::uint64_t> g_allocations{0};
alignas(64) std::atomic<std::int64_t> g_live_bytes{0};

void* Track(void* p) {
  if (p != nullptr) {
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void* Counted(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return Track(std::malloc(size == 0 ? 1 : size));
}

void* CountedAligned(std::size_t size, std::align_val_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(alignment);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return Track(std::aligned_alloc(align, rounded == 0 ? align : rounded));
}

void Release(void* p) {
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace femux {

std::uint64_t AllocHookCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::int64_t AllocHookLiveBytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

}  // namespace femux

void* operator new(std::size_t size) {
  void* p = Counted(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Counted(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Counted(size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  void* p = CountedAligned(size, alignment);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  return operator new(size, alignment);
}

void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return CountedAligned(size, alignment);
}

void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return CountedAligned(size, alignment);
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}
