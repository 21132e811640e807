// Global operator new/delete replacement for the perfbench executable. Every
// allocation form is counted through internal::NoteAlloc() (one relaxed flag
// test while counting is off) and then served by malloc or aligned_alloc, so
// codec.*_allocs and process.heap_allocs_per_call count real heap traffic,
// the codecs' own included, not only buffer-pool misses.

#include <cstdlib>
#include <new>

#include "perfbench/measure.h"

namespace {

void* Allocate(std::size_t n) {
  perfbench::internal::NoteAlloc();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  perfbench::internal::NoteAlloc();
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) {
    a = sizeof(void*);
  }
  // aligned_alloc wants the size to be a multiple of the alignment.
  void* p = std::aligned_alloc(a, n == 0 ? a : (n + a - 1) / a * a);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* AllocateNoThrow(std::size_t n) {
  perfbench::internal::NoteAlloc();
  return std::malloc(n == 0 ? 1 : n);
}

void* AllocateAlignedNoThrow(std::size_t n, std::align_val_t align) noexcept {
  try {
    return AllocateAligned(n, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) { return AllocateAligned(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return AllocateAligned(n, a); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return AllocateNoThrow(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return AllocateNoThrow(n); }
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return AllocateAlignedNoThrow(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return AllocateAlignedNoThrow(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
