// Bytecode compiler for IR kernels.
//
// compile() lowers an ir::Kernel into a flat register-machine program the
// bytecode VM (vm.hpp) executes instruction-major: every operand is a
// pre-resolved register slot or constant-pool entry, so the hot path never
// touches the shared_ptr expression tree, the symbol table, or a Val copy.
//
// Lowering runs four optimization passes, all restricted so that buffers
// AND dynamic counters stay bit-identical to the tree-walking interpreter:
//  * constant folding + value numbering of pure integer expressions
//    (floating arithmetic and loads/stores are never folded or CSE'd —
//    they carry counters),
//  * loop-invariant hoisting of index arithmetic into loop preheaders
//    (uniform work-group values hoist all the way to a once-per-group
//    preamble),
//  * strength reduction of the Kwi-unrolled rank-1 update into fused
//    ops: SplatLaneP (avec = splat(lane(Apm[const]))) and FmaPP
//    (Cpm[const] = mad(avec, Bpm[const], Cpm[const])) with compile-time
//    bounds-checked private-array addressing,
//  * precision-aware rounding: the per-op float32 round is a flag that F64
//    kernels simply never set, eliding round_fp entirely.
//
// Register layout: integer variables and temporaries take one register
// each; a floating variable takes a slab as wide as its widest use (its
// declared lanes, every value assigned to it, every read's type), so a
// scalar variable costs one double per work-item, and the variable slabs
// come first so the VM zeroes one prefix per group. Private arrays are
// listed by element offset; the VM and the native tier each choose where
// an item's elements live.
//
// Compiled programs are immutable, and their owners are the only cache:
// compile() lowers on every call, and ir::prepare() (interp.hpp) wraps the
// result in a KernelHandle that the caller keeps for as long as it
// relaunches the kernel. Every lowering is traced as an interp.compiles
// counter and an "interp.compile" span.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernelir/kernel.hpp"

namespace gemmtune::ir {

/// Bytecode operations. Prefix U = uniform integer (one value per
/// work-group), V = varying integer (one per work-item), F = floating
/// (per-item lane vectors).
enum class Op : std::uint8_t {
  Halt,
  // uniform integers
  UConst,      ///< u[dst] = imm
  UArg,        ///< u[dst] = int argument a
  UBuiltin,    ///< u[dst] = builtin (aux = fn*2 + dim)
  UAdd, USub, UMul, UDiv, UMod, ULt, UAnd,  ///< u[dst] = u[a] op u[b]
  UMov,        ///< u[dst] = u[a]
  UStepCheck,  ///< throw "for: non-positive step" unless u[a] > 0
  // varying integers (flags select uniform operands)
  VBuiltin,    ///< vi[dst] = builtin per item (aux = fn*2 + dim)
  VAdd, VSub, VMul, VDiv, VMod, VLt, VAnd,  ///< vi[dst] = a op b per item
  VMovU,       ///< vi[dst][t] = u[a]
  VMov,        ///< vi[dst][t] = vi[a][t]
  // floating
  FConst,      ///< vf[dst] = fpool[imm .. imm+lanes)
  FArg,        ///< vf[dst] = {round(arg a), 0, ...} (aux&1: round to f32)
  FMov,        ///< vf[dst][0..lanes) = vf[a]; zero-fill lanes..b (dst width)
  FSplat,      ///< vf[dst][l] = vf[a][0] (aux = src width)
  FLane,       ///< vf[dst][0] = vf[a][imm] (aux = src width)
  FAdd, FSub, FMul,  ///< lane-wise arith; aux&1 rounds to f32; counts flops
  FMad,        ///< vf[dst] = a*b+c; counts 2*lanes flops + 1 mad per item
  FmaPP,       ///< parr[a][dst..] = mad(vf[c], parr[b][imm..], parr[a][dst..])
  SplatLaneP,  ///< vf[dst][l] = parr[a][imm]; zero-fill to width b
  // memory (flags kImmAddr: address in imm, else reg b; aux&2: f32 elems)
  LoadG,       ///< vf[dst] = global arg a at address; counts bytes
  StoreG,      ///< global arg a at address = vf[c]; counts bytes
  LoadL, StoreL,  ///< local array a (aux&4: count 8-byte elems, else 4)
  LoadP, StoreP,  ///< private array a (no byte counters)
  // control flow (jump targets in imm)
  Jmp,
  JzU,         ///< jump if u[a] == 0
  JgeU,        ///< jump if u[a] >= u[b] (loop exit test)
  JNone,       ///< jump if no work-item is active
  ForCheckV,   ///< verify per-item bounds vi[a],vi[b],vi[c] uniform across
               ///< active items and step > 0; set u[dst..dst+2] =
               ///< (init, limit, step); jump imm if no item is active
  MaskPush,    ///< push mask, mask &= (vi[a] != 0)
  MaskFlip,    ///< mask = saved & (vi[cond] == 0) for the top entry
  MaskPop,     ///< restore pushed mask
  Barrier,     ///< reject divergence, count a barrier
  Throw,       ///< throw messages[imm]
};

/// Operand/behaviour flags on an instruction.
enum : std::uint8_t {
  kAUni = 1,      ///< operand a is a uniform register
  kBUni = 2,      ///< operand b is a uniform register
  kCUni = 4,      ///< operand c is a uniform register
  kMasked = 8,    ///< honour the divergence mask (skip inactive items)
  kImmAddr = 16,  ///< memory address is the compile-time constant `imm`
};

/// Aux bits (op-specific, see Op comments).
enum : std::uint8_t {
  kRoundF32 = 1,  ///< round arithmetic results through float
  kElemF32 = 2,   ///< global buffer elements are float (else double)
  kCount8 = 4,    ///< local access counts 8 bytes per lane (else 4)
};

/// One fixed-width bytecode instruction (32 bytes).
struct Insn {
  Op op = Op::Halt;
  std::uint8_t flags = 0;
  std::uint8_t lanes = 1;
  std::uint8_t aux = 0;
  std::int32_t dst = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::int64_t imm = 0;
};

/// A local or private array resolved to a slab offset.
struct ArrayRef {
  std::int32_t offset = 0;  ///< element offset into its slab
  std::int32_t len = 0;     ///< elements
  bool local = false;
  std::string name;         ///< for out-of-range messages
};

/// An immutable compiled kernel: the program plus the register-file and
/// slab shapes the VM must allocate.
struct CompiledKernel {
  std::vector<Insn> code;            ///< ends with Halt
  std::vector<double> fpool;         ///< pre-rounded floating constants
  std::vector<std::string> messages; ///< Throw texts (compile-time exact)
  std::vector<ArrayRef> arrays;
  int n_u = 0;             ///< uniform int registers
  int n_vi = 0;            ///< varying int registers
  int n_vi_vars = 0;       ///< leading vi registers zeroed per group (vars)
  int n_vf = 0;            ///< per-item floating slab doubles
  int n_vf_vars = 0;       ///< leading vf doubles zeroed per group: the
                           ///< variables' slabs, each its widest use
  std::int64_t parr_doubles = 0;  ///< private slab doubles per item
  std::int64_t larr_doubles = 0;  ///< local slab doubles per group
  int max_mask_depth = 0;
};

using CompiledKernelPtr = std::shared_ptr<const CompiledKernel>;

/// Lowers `kernel` to bytecode. Deterministic; throws gemmtune::Error only
/// on IR that the builders cannot produce (malformed-but-reachable
/// constructs lower to runtime Throw instructions so dead code stays
/// launchable, exactly like the tree-walker). Every call lowers and is
/// counted on interp.compiles; callers that relaunch keep the result.
CompiledKernelPtr compile(const Kernel& kernel);

/// Canonical byte serialization of a kernel: equal serializations lower to
/// equal programs. The native JIT keys its on-disk objects on it
/// (native.hpp).
std::string serialize_kernel(const Kernel& kernel);

/// Does nothing: kernel handles are the only cache of compiled programs.
/// It stays because the benchmark (perfbench/) calls it.
void compiled_cache_clear();

}  // namespace gemmtune::ir
