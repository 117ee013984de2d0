// Launch plan + bytecode virtual machine.
//
// LaunchPlan is the shared immutable per-launch setup both execution
// tiers run against: it validates the geometry and arguments once on the
// calling thread and resolves typed buffer views, so per-worker execution
// contexts only allocate scratch instead of re-validating per worker.
//
// VmMachine executes a CompiledKernel over a contiguous range of
// work-groups. Each worker thread owns its own VmMachine (registers, slabs,
// divergence mask, counters), sharing only the plan, the program, and the
// global buffers — so buffers and counters are bit-identical to the serial
// run at any thread count.
//
// The VM is classic threaded code: the program is pre-decoded once per
// machine into a table of computed-goto handler addresses, with hot opcodes
// specialized on their baked operand shapes (lane width, f32 rounding,
// divergence masking, operand uniformity). It needs the GNU
// labels-as-values extension (GCC/Clang).
//
// Per-group state is lane-major, so a handler is one unit-stride loop over
// the group's work-items: a varying integer register holds one value per
// item, and private array element e of item t sits at
// parr_[e * nitems + t]. A floating register of width w keeps an item's
// lanes together (vf_[base * nitems + t * w + l]); for the single-lane
// registers that dominate, that too is one double per item. A memory
// instruction tests bounds once: a min/max pass over the active items'
// indices, and only when that fails a rescan for the first faulting item
// f. It runs for the items before f, then raises f's error, so partial
// effects match a per-item walk. Counters are added once per instruction.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "kernelir/compile.hpp"
#include "kernelir/interp.hpp"

namespace gemmtune::ir {

/// Validated launch geometry and resolved argument views, computed once per
/// launch and shared (read-only) by every worker of both tiers.
struct LaunchPlan {
  /// A kernel argument resolved for execution: raw typed pointer for
  /// buffers, immediate values for scalars.
  struct ArgView {
    double* f64 = nullptr;    ///< element pointer when the buffer is F64
    float* f32 = nullptr;     ///< element pointer when the buffer is F32
    std::int64_t elems = 0;   ///< buffer length in elements
    std::int64_t i = 0;       ///< Int argument value
    double f = 0;             ///< Float argument value
  };

  std::array<std::int64_t, 2> global{}, local{};
  const std::vector<ArgValue>* args = nullptr;
  std::int64_t ngx = 0, ngroups = 0, items_per_group = 0;
  std::vector<ArgView> views;

  /// Validates the launch against the kernel's signature (same checks and
  /// messages as the interpreter has always thrown) and resolves the
  /// layout. Throws gemmtune::Error on a malformed launch, including a
  /// work-group of more than 2^31 - 1 items or a group count past int64.
  /// The argument vector must outlive the plan; the signature need not.
  LaunchPlan(const LaunchSignature& sig, std::array<std::int64_t, 2> global,
             std::array<std::int64_t, 2> local,
             const std::vector<ArgValue>& args);
};

/// One bytecode execution context (registers, slabs, mask, counters); owns
/// all mutable state, so work-group parallelism gives each worker its own
/// VmMachine over a disjoint slice of the group space.
class VmMachine {
 public:
  VmMachine(const CompiledKernel& prog, const LaunchPlan& plan);

  /// Runs work-groups [begin, end) of the row-major linearized group space
  /// and returns the counters accumulated over them.
  Counters run_range(std::int64_t begin, std::int64_t end);

 private:
  struct Ops;  // shared op bodies for the specialized threaded handlers
  void run_group(std::int64_t gx, std::int64_t gy);
  void run_group_threaded();
  std::int64_t builtin_u(int fn_dim) const;

  const CompiledKernel& p_;
  const LaunchPlan& plan_;
  int nitems_ = 0;
  std::int64_t gx_ = 0, gy_ = 0;
  std::vector<std::int64_t> u_;
  std::vector<std::int64_t> vi_;   ///< reg-major: vi_[reg * nitems + item]
  std::vector<double> vf_;         ///< vf_[base * nitems + item * width + l]
  std::vector<double> parr_;       ///< element-major: parr_[e * nitems + item]
  std::vector<double> larr_;
  std::vector<char> mask_;
  int active_ = 0;
  struct MaskFrame {
    std::vector<char> saved;
    std::int32_t cond = 0;
    int saved_active = 0;
  };
  std::vector<MaskFrame> mask_stack_;
  int mask_depth_ = 0;
  Counters counters_;
  std::vector<const void*> tcode_; ///< pre-decoded handler addresses
};

}  // namespace gemmtune::ir
