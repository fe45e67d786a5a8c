// An allocator for buffers that are written in full right after they are
// sized: resize(n) leaves the new elements unwritten instead of zeroing
// them. Explicit fills (assign(n, v), std::fill) are unaffected.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace tmhls {

template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

} // namespace tmhls
