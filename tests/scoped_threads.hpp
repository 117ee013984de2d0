// Pins the process-wide thread count for one scope of a test.
#pragma once

#include "common/thread_pool.hpp"

namespace gemmtune {

/// Sets set_thread_override(n) and clears it (0) when the scope ends,
/// also when a failed ASSERT or an exception leaves it, so no later test
/// in the binary inherits the pinned count.
class ScopedThreadOverride {
 public:
  explicit ScopedThreadOverride(int n) { set_thread_override(n); }
  ~ScopedThreadOverride() { set_thread_override(0); }
  ScopedThreadOverride(const ScopedThreadOverride&) = delete;
  ScopedThreadOverride& operator=(const ScopedThreadOverride&) = delete;
};

}  // namespace gemmtune
