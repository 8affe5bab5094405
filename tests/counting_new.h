// A counting replacement of the global operator new/delete family, for the
// suites that assert allocation budgets (obs_test, answer_path_test). The
// definitions are replacement functions, not inline ones, so include this
// header from exactly one translation unit per test binary; each suite is
// a single translation unit.
//
// The full overload family is replaced: leaving the nothrow forms to the
// runtime (or to a sanitizer's interceptors) while taking over the
// throwing ones makes ASan see an operator-new allocation released via our
// free()-backed delete and abort on the alloc-dealloc mismatch. The
// deletes stay out of line: inlined into a caller, gcc would see free() of
// operator new's memory and warn (-Wmismatched-new-delete).

#ifndef BDDFC_TESTS_COUNTING_NEW_H_
#define BDDFC_TESTS_COUNTING_NEW_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

// Allocations made through operator new since the program started.
// Counting relaxed-atomically keeps the override cheap enough not to
// distort the rest of the suite.
static std::atomic<std::size_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // BDDFC_TESTS_COUNTING_NEW_H_
