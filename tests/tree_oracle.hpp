// Test-only reference semantics for IR kernels: a lockstep tree-walking
// interpreter.
//
// tree_launch() walks the expression tree of every statement across all
// work-items of a group before moving to the next statement, with OpenCL
// memory semantics (private variables and arrays per work-item, local
// arrays per work-group, SimCL buffers as global memory). It shares no
// execution code with the production tiers (the bytecode VM and the native
// JIT), only the launch validation in LaunchPlan, so the differential tests
// (vm_test, fuzz_codegen_test) check both tiers against an independent
// reading of the IR: bit-identical buffers and counters, and the same error
// text (modulo the source-location prefix) on malformed kernels.
//
// Like the production tiers, it verifies loop-bound uniformity and barrier
// convergence at run time, rounds every single-precision arithmetic result
// to float, and counts flops, mads, bytes per address space and barriers.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "kernelir/interp.hpp"
#include "kernelir/kernel.hpp"

namespace gemmtune::ir {

/// Runs `kernel` over `global` work-items in groups of `local` on the
/// calling thread and returns the dynamic counters, exactly as
/// launch_with_backend() defines them. Throws gemmtune::Error on malformed
/// launches, out-of-range accesses and non-uniform loop bounds.
Counters tree_launch(const Kernel& kernel, std::array<std::int64_t, 2> global,
                     std::array<std::int64_t, 2> local,
                     const std::vector<ArgValue>& args);

}  // namespace gemmtune::ir
