// Bytecode -> specialized C++ translator for the native backend.
//
// The emitter walks the CompiledKernel instruction stream and prints C++
// that executes it with vm.cpp's semantics: the same arithmetic, the same
// counter totals, the same error messages. Every operand field (register
// slots, lane counts, array offsets, immediates, flags) is printed as a
// literal, so the per-instruction dispatch and operand resolution the VM
// pays at run time all happens here, at emit time. Jumps become
// `goto L<n>;` with labels only at jump targets.
//
// The semantics stay lockstep: a work-group finishes one instruction on all
// of its work-items before the next. The emitted code executes straight-line
// stretches item-major instead, wherever that order cannot be observed. A
// *run* is a maximal stretch of unmasked, non-control instructions; it
// becomes one `for (t ...)` loop over the work-items whose body holds every
// instruction's per-item code in program order. Inside the loop the vi/vf
// registers and constant-offset private-array slots the run touches live in
// C++ locals: loaded from the per-group slabs at item entry when the run
// reads them before writing, stored back at item exit when some other code
// reads them from the slab. The run rules keep item-major order equal to
// lockstep order:
//  * a run starts at a jump target and never spans a control instruction
//    (jumps, JNone, ForCheckV, mask ops, Barrier, Throw, Halt);
//  * a mask-honouring instruction is a run of its own, guarded by the mask;
//  * a StoreG is a run of its own, which stops at the first faulting item,
//    so a failed launch leaves the user's buffer with exactly the VM's
//    partial stores and no item reads another item's global store;
//  * per local array, a run holds loads only or a single store, so no item
//    observes another item's local-memory write (registers and private
//    arrays are per item and carry no such hazard);
//  * uniform instructions run once, before the item loop, or after it when
//    they follow the run's last varying instruction; one whose destination
//    an earlier varying instruction read ends the run, and the faulting
//    ones (UDiv, UMod, UStepCheck) are runs of their own.
// Every bounds and division check stays per item. A fault records (pc,
// item), replaced only by a strictly smaller pc from a later item, and the
// faulting item skips the rest of the run; after the loop the record fails
// the launch. Because no item sees another item's writes inside a run, the
// record is the VM's first faulting instruction at its lowest item, so the
// message text matches. Counter increments are summed once per run.
//
// Vector loop runs. A barrier-free uniform loop (a JgeU header, the body,
// and a Jmp back to the header, with nothing else jumping into the body)
// runs W work-items per vector instruction, W being the emit width, when
// the kernel fixes its work-group size with LSX a multiple of W, so that a
// block of W consecutive items shares t / LSX. The body may hold only
// loads, arithmetic other than integer division, uniform instructions that
// cannot fault and constant-offset private slots: no global or local store
// (a store repeated over iterations is a write-after-write between items
// that item-major order could reverse), no mask-honouring instruction, no
// private array at a computed index. Each block loads the values the loop
// reads first into GCC vector locals, one lane per item, runs the whole
// loop on them in program order with its uniform registers in block
// copies, and stores the exit values other code reads; every block
// computes the same uniform sequence, so the last block's copies are
// written back. A static pass proves per vi register the step between
// consecutive lanes (its lane stride): a stride-0 load is one scalar load
// broadcast, a stride-1 load one vector load, another known stride W loads
// that far apart (at W = 8 one gather for doubles), an unknown stride one
// load per lane. A known stride makes the index monotone across the block,
// so the bounds check, which runs before the load, tests the first and
// last lane; an unknown one tests every lane. A block runs its
// iterations in order, so its first failing check has its smallest
// (iteration, pc); the lowest failing lane of that check is the block's
// fault, and a later block replaces the record only with a strictly
// smaller (iteration, pc). That is the VM's first fault in lockstep order,
// and with no stores in the loop a failed launch leaves the VM's buffers.
// Counters add each per-iteration sum times NI times the trip count.
//
// No statement is emitted for a value no instruction reads (for example
// the zero lanes of a wide register of which two lanes are used): a first
// translation pass records every value some instruction reads.
//
// Floating-point identity with the VM is preserved by construction:
// arithmetic is emitted as the same double expressions the VM evaluates
// (single-precision rounding as a double -> float -> double conversion of
// each lane; in a vector loop run at W = 8 and 4 that is one host
// conversion instruction each way, which rounds every lane as the VM's
// scalar cast does), constants are reproduced bit-exactly from their
// IEEE-754 payloads, and the JIT compiles with -ffp-contract=off so the
// host compiler cannot fuse a*b+c into an fma the VM didn't perform.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "kernelir/compile.hpp"
#include "kernelir/native.hpp"

namespace gemmtune::ir {

namespace {

/// Escapes a string into a C++ string-literal body (quotes, backslashes,
/// and non-printable bytes as fixed-width octal so following characters
/// can't extend the escape).
std::string cstr(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (c >= 0x20 && c < 0x7f) {
      out += ch;
    } else {
      out += strf("\\%03o", c);
    }
  }
  out += '"';
  return out;
}

bool is_control(Op op) {
  switch (op) {
    case Op::Halt:
    case Op::Jmp:
    case Op::JzU:
    case Op::JgeU:
    case Op::JNone:
    case Op::ForCheckV:
    case Op::MaskPush:
    case Op::MaskFlip:
    case Op::MaskPop:
    case Op::Barrier:
    case Op::Throw:
      return true;
    default:
      return false;
  }
}

bool is_uniform(Op op) {
  switch (op) {
    case Op::UConst:
    case Op::UArg:
    case Op::UBuiltin:
    case Op::UAdd:
    case Op::USub:
    case Op::UMul:
    case Op::UDiv:
    case Op::UMod:
    case Op::ULt:
    case Op::UAnd:
    case Op::UMov:
    case Op::UStepCheck:
      return true;
    default:
      return false;
  }
}

bool is_faulting_uniform(Op op) {
  return op == Op::UDiv || op == Op::UMod || op == Op::UStepCheck;
}

/// True when the instruction skips inactive work-items: vm.cpp honours
/// kMasked on these ops only; every other op computes all items.
bool honours_mask(const Insn& in) {
  if (!(in.flags & kMasked)) return false;
  switch (in.op) {
    case Op::VDiv:
    case Op::VMod:
    case Op::VMovU:
    case Op::VMov:
    case Op::FMov:
    case Op::FAdd:
    case Op::FSub:
    case Op::FMul:
    case Op::FMad:
    case Op::LoadG:
    case Op::StoreG:
    case Op::LoadL:
    case Op::StoreL:
    case Op::LoadP:
    case Op::StoreP:
      return true;
    default:
      return false;
  }
}

/// Lane-stride lattice values beside the known strides, which the pass
/// keeps within +-kMaxStride so that no index between two in-range lanes
/// can wrap.
constexpr std::int64_t kNoDef = INT64_MIN;    ///< no definition seen yet
constexpr std::int64_t kUnknown = INT64_MAX;  ///< not one stride
constexpr std::int64_t kMaxStride = std::int64_t{1} << 32;

/// a + b, a - b or a * b of two strides, or kUnknown when it leaves the
/// known range.
std::int64_t stride_op(char op, std::int64_t a, std::int64_t b) {
  if (a == kUnknown || b == kUnknown) return kUnknown;
  if (a == kNoDef || b == kNoDef) return kNoDef;
  std::int64_t r = 0;
  const bool ovf = op == '+'   ? __builtin_add_overflow(a, b, &r)
                   : op == '-' ? __builtin_sub_overflow(a, b, &r)
                               : __builtin_mul_overflow(a, b, &r);
  return ovf || r > kMaxStride || r < -kMaxStride ? kUnknown : r;
}

/// A per-item value a run keeps in a C++ local: a vi register ('v'), one
/// lane of a vf register ('f'), or one private-array slot ('p', `id` is
/// its offset in the item's private slab).
struct Val {
  char kind = 'v';
  std::int32_t id = 0;
  std::int32_t lane = 0;
  auto operator<=>(const Val&) const = default;
};

/// One emitted segment: a control instruction, or a run [begin, end).
struct Run {
  std::size_t begin = 0, end = 0;
  bool control = false;
  bool masked = false;  ///< one mask-honouring instruction
  bool alone = false;   ///< a run of its own: stops at the first fault
  std::vector<std::size_t> pre, body, post;  ///< uniform / varying / uniform
  // Translation of the body, filled while the run is formed.
  std::string code;               ///< per-item statements
  std::set<Val> loads;            ///< read before written: loaded at entry
  std::set<Val> writes;           ///< stored at exit when read from the slab
  std::set<std::int32_t> u_reads;  ///< uniform registers the loop reads
  bool private_slab = false;      ///< addresses the item's private slab
  std::map<std::int32_t, bool> gargs;  ///< global arguments -> f32 elements
  std::string faults;             ///< post-loop fault dispatch
  unsigned long long flops = 0, mads = 0, gld = 0, gst = 0, lld = 0, lst = 0;
};

class Emitter {
 public:
  Emitter(const Kernel& k, const CompiledKernel& p, int simd_width)
      : k_(k), p_(p), simd_(simd_width) {
    check(simd_ == 2 || simd_ == 4 || simd_ == 8 || simd_ == 16,
          "native emit: unsupported SIMD width");
  }

  std::string run() {
    collect_labels();
    collect_vf_widths();
    collect_slab_arrays();
    collect_lane_strides();
    // Control instructions read vi registers from the slab.
    std::set<Val> control_reads;
    for (const Insn& in : p_.code) {
      if (in.op == Op::ForCheckV) {
        for (const std::int32_t r : {in.a, in.b, in.c})
          control_reads.insert(Val{'v', r, 0});
      } else if (in.op == Op::MaskPush) {  // MaskFlip re-reads it
        control_reads.insert(Val{'v', in.a, 0});
      }
    }
    // The first pass only records the values instructions read; the
    // second drops every write no instruction reads.
    read_ = control_reads;
    form_runs();
    drop_dead_ = true;
    std::vector<Run> runs = form_runs();
    // Vector loop runs: the loop headed by runs[i] ends at runs[back[i]].
    std::vector<std::size_t> back(runs.size(), 0);
    std::vector<Run> vloops;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      back[i] = vector_loop_at(runs, i);
      if (back[i] == 0) continue;
      vloops.push_back(
          make_vector_run(runs[i + 1].begin, runs[back[i]].begin));
      i = back[i];
    }
    vloop_id_ = 0;  // emission numbers the loops' fault labels again
    // A value must reach the slab only if some code reads it from there:
    // a run that loads it at item entry, or a control instruction.
    slab_read_ = control_reads;
    for (const auto* rs : {&runs, &vloops})
      for (const Run& r : *rs) slab_read_.insert(r.loads.begin(), r.loads.end());
    prologue(!vloops.empty());
    for (std::size_t i = 0, v = 0; i < runs.size(); ++i) {
      const Run& r = runs[i];
      if (is_target_[r.begin]) line(strf("L%zu:;", r.begin));
      if (back[i] != 0) {
        emit_vector_loop(p_.code[r.begin], vloops[v++]);
        i = back[i];  // past the body and the back-edge
      } else if (r.control) {
        emit_control(p_.code[r.begin], r.begin);
      } else {
        emit_run(r);
      }
    }
    // A well-formed program ends in Halt, but guard the fall-through.
    line("goto L_done;");
    epilogue();
    return std::move(out_);
  }

 private:
  // ---- small formatting helpers ---------------------------------------------

  void line(const std::string& s) {
    out_ += pad_;
    out_ += "  ";
    out_ += s;
    out_ += '\n';
  }
  void raw(const std::string& s) { out_ += s; }

  static std::string imm64(std::int64_t v) {
    return strf("%lldLL", static_cast<long long>(v));
  }
  /// Uniform register r: the u[] slab, or a vector loop's block copy.
  std::string u(std::int32_t r) {
    if (uregs_ == nullptr) return strf("u[%d]", r);
    uregs_->insert(r);
    return strf("u%d", r);
  }
  static std::string vi_ptr(std::int32_t r) {
    return strf("(vi + %d * NI)", r);
  }
  /// Wraps an arithmetic result in the f32 storage round when `on`.
  std::string rnd(bool on, const std::string& e) const {
    if (!on) return "(" + e + ")";
    return vec_ ? "r32(" + e + ")" : "(double)(float)(" + e + ")";
  }
  /// A uniform double / integer expression as a value of every lane.
  std::string splat_f(const std::string& x) const {
    return vec_ ? "bd(" + x + ")" : x;
  }
  std::string splat_i(const std::string& x) const {
    return vec_ ? "bi(" + x + ")" : x;
  }
  std::string zero_f() const { return vec_ ? "(VD){}" : "0.0"; }

  /// `snprintf` into err + jump to the failure label. `fmt` is a literal
  /// (already escaped); `args` are pre-formatted C++ expressions.
  std::string fail_stmt(const std::string& fmt,
                        const std::vector<std::string>& args) {
    std::string s = "{ std::snprintf(err, (std::size_t)err_cap, " + fmt;
    for (const auto& a : args) s += ", " + a;
    s += "); goto L_fail; }";
    return s;
  }
  /// Failure with a fixed message (message passed as data, not format).
  std::string fail_msg(const std::string& msg) {
    return fail_stmt("\"%s\"", {cstr(msg)});
  }

  /// Built-in value as a C++ expression (uniform part; aux = fn*2 + dim).
  std::string builtin_expr(int fn_dim) const {
    const int dim = fn_dim & 1;
    const auto fn = static_cast<BuiltinFn>(fn_dim >> 1);
    switch (fn) {
      case BuiltinFn::GroupId:
        return dim == 0 ? "gx" : "gy";
      case BuiltinFn::LocalSize:
        return dim == 0 ? "LSX" : "LSY";
      case BuiltinFn::NumGroups:
        return dim == 0 ? "(global0 / LSX)" : "(global1 / LSY)";
      default:
        break;
    }
    fail("native emit: bad uniform builtin");
  }

  void collect_labels() {
    is_target_.assign(p_.code.size() + 1, false);
    for (const Insn& in : p_.code) {
      switch (in.op) {
        case Op::Jmp:
        case Op::JzU:
        case Op::JgeU:
        case Op::JNone:
        case Op::ForCheckV:
          check(in.imm >= 0 &&
                    in.imm <= static_cast<std::int64_t>(p_.code.size()),
                "native emit: jump target out of range");
          is_target_[static_cast<std::size_t>(in.imm)] = true;
          break;
        default:
          break;
      }
    }
  }

  /// Records the slab width of every vf register: an instruction indexes
  /// lane l of item t at `base * NI + t * width + l`. The lowering gives
  /// each register one width and a slab range of its own; runs keep lanes
  /// in locals keyed by (base, lane), which relies on both, so anything
  /// else is rejected here (the launch then falls back to the VM).
  void collect_vf_widths() {
    const auto note = [this](std::int32_t base, int width) {
      const auto it = vfw_.emplace(base, width).first;
      check(it->second == width, "native emit: vf register at two widths");
    };
    for (const Insn& in : p_.code) {
      switch (in.op) {
        case Op::FConst:
        case Op::FArg:
        case Op::LoadG:
        case Op::LoadL:
        case Op::LoadP:
          note(in.dst, in.lanes);
          break;
        case Op::FMov:
          note(in.dst, in.b);
          note(in.a, in.c);
          break;
        case Op::FSplat:
          note(in.dst, in.lanes);
          note(in.a, in.aux);
          break;
        case Op::FLane:
          note(in.dst, 1);
          note(in.a, in.aux);
          break;
        case Op::FAdd:
        case Op::FSub:
        case Op::FMul:
          note(in.dst, in.lanes);
          note(in.a, in.lanes);
          note(in.b, in.lanes);
          break;
        case Op::FMad:
          note(in.dst, in.lanes);
          note(in.a, in.lanes);
          note(in.b, in.lanes);
          note(in.c, in.lanes);
          break;
        case Op::FmaPP:
          note(in.c, in.aux >> 3);
          break;
        case Op::SplatLaneP:
          note(in.dst, in.b);
          break;
        case Op::StoreG:
        case Op::StoreL:
        case Op::StoreP:
          note(in.c, in.lanes);
          break;
        default:
          break;
      }
    }
    std::int64_t end = 0;
    for (const auto& [base, width] : vfw_) {
      check(base >= end, "native emit: overlapping vf registers");
      end = static_cast<std::int64_t>(base) + width;
    }
  }

  /// Private arrays accessed at a computed address anywhere in the kernel
  /// stay in the slab everywhere (per item, so still hazard-free).
  void collect_slab_arrays() {
    for (const Insn& in : p_.code)
      if ((in.op == Op::LoadP || in.op == Op::StoreP) &&
          !(in.flags & kImmAddr))
        slab_arrays_.insert(in.a);
  }

  // ---- lane strides ----------------------------------------------------------

  /// Gives each vi register the step between the values of consecutive
  /// work-items of a vector block, or kUnknown: a flow-insensitive fixpoint
  /// that joins every definition of the register and, for variables, the
  /// per-group zero. LocalId/GlobalId of dimension 0 step by 1; dimension 1
  /// and uniform values by 0 (a block shares t / LSX); VAdd/VSub add or
  /// subtract their operands' strides, VMov copies its source's, and VMul
  /// by a constant scales by it. A constant is a uniform register whose
  /// only definition is a UConst, or a vi register every definition of
  /// which copies one (VMovU, VMov). A mask-honouring definition writes
  /// only some lanes, so it makes the stride unknown, as does every other
  /// definition.
  void collect_lane_strides() {
    const auto n_vi = static_cast<std::size_t>(p_.n_vi);
    stride_.assign(n_vi, kNoDef);
    // Constant value per vi register: `konst` holds it while `kstate` is
    // 1; 0 is no definition yet, 2 not one constant.
    std::vector<std::int64_t> konst(n_vi, 0);
    std::vector<char> kstate(n_vi, 0);
    for (std::size_t r = 0; r < static_cast<std::size_t>(p_.n_vi_vars); ++r) {
      stride_[r] = 0;
      kstate[r] = 1;
    }
    // A UConst that is its register's only definition holds at a later pc
    // when the straight-line entry [0, entry), which runs first in every
    // group, holds it, or when no jump lands between the two.
    std::size_t entry = 0;
    while (entry < p_.code.size() && !is_target_[entry] &&
           !is_control(p_.code[entry].op))
      ++entry;
    std::vector<std::size_t> targets_before(p_.code.size() + 2, 0);
    for (std::size_t pc = 0; pc <= p_.code.size(); ++pc)
      targets_before[pc + 1] = targets_before[pc] + (is_target_[pc] ? 1 : 0);
    std::vector<int> ndefs(static_cast<std::size_t>(p_.n_u), 0);
    std::vector<std::size_t> def_pc(static_cast<std::size_t>(p_.n_u), 0);
    for (std::size_t pc = 0; pc < p_.code.size(); ++pc) {
      const Insn& in = p_.code[pc];
      if (in.op == Op::ForCheckV) {
        for (std::int32_t d = 0; d < 3; ++d)
          ++ndefs[static_cast<std::size_t>(in.dst + d)];
      } else if (is_uniform(in.op) && in.op != Op::UStepCheck) {
        ++ndefs[static_cast<std::size_t>(in.dst)];
        def_pc[static_cast<std::size_t>(in.dst)] = pc;
      }
    }
    // The constant operand r holds at instruction pc, if it is one.
    const auto constant = [&](std::int32_t r, bool uniform, std::size_t pc,
                              std::int64_t* c) {
      const auto ur = static_cast<std::size_t>(r);
      if (!uniform) {
        *c = konst[ur];
        return kstate[ur] == 1;
      }
      const std::size_t d = def_pc[ur];
      if (ndefs[ur] != 1 || p_.code[d].op != Op::UConst || d >= pc ||
          (d >= entry && targets_before[pc + 1] != targets_before[d + 1]))
        return false;
      *c = p_.code[d].imm;
      return true;
    };
    const auto src = [this](std::int32_t r, bool uniform) {
      return uniform ? 0 : stride_[static_cast<std::size_t>(r)];
    };
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t pc = 0; pc < p_.code.size(); ++pc) {
        const Insn& in = p_.code[pc];
        const bool au = (in.flags & kAUni) != 0, bu = (in.flags & kBUni) != 0;
        std::int64_t s = kUnknown, c = 0;
        char ks = 2;
        switch (in.op) {
          case Op::VBuiltin: {
            const auto fn = static_cast<BuiltinFn>(in.aux >> 1);
            const bool per_item =
                fn == BuiltinFn::LocalId || fn == BuiltinFn::GlobalId;
            s = per_item && (in.aux & 1) == 0 ? 1 : 0;
            break;
          }
          case Op::VAdd:
          case Op::VSub:
            s = stride_op(in.op == Op::VAdd ? '+' : '-', src(in.a, au),
                          src(in.b, bu));
            break;
          case Op::VMul: {
            const std::int64_t sa = src(in.a, au), sb = src(in.b, bu);
            if (constant(in.a, au, pc, &c)) {
              s = stride_op('*', sb, c);
            } else if (constant(in.b, bu, pc, &c)) {
              s = stride_op('*', sa, c);
            } else if (sa == 0 && sb == 0) {
              s = 0;
            } else if (sa == kNoDef || sb == kNoDef) {
              s = kNoDef;
            }
            break;
          }
          case Op::VMovU:
            s = 0;
            if (constant(in.a, true, pc, &c)) ks = 1;
            break;
          case Op::VMov:
            s = src(in.a, false);
            c = konst[static_cast<std::size_t>(in.a)];
            ks = kstate[static_cast<std::size_t>(in.a)];
            break;
          case Op::VDiv:
          case Op::VMod:
          case Op::VLt:
          case Op::VAnd:
            break;
          default:
            continue;  // defines no vi register
        }
        if (honours_mask(in)) s = kUnknown, ks = 2;
        const auto d = static_cast<std::size_t>(in.dst);
        std::int64_t& cur = stride_[d];
        const std::int64_t joined =
            s == kNoDef || cur == s ? cur : cur == kNoDef ? s : kUnknown;
        const char kjoined = ks == 0 || (kstate[d] == ks && konst[d] == c)
                                 ? kstate[d]
                             : kstate[d] == 0 ? ks
                                              : 2;
        if (joined != cur || kjoined != kstate[d]) {
          cur = joined;
          if (kstate[d] == 0) konst[d] = c;
          kstate[d] = kjoined;
          changed = true;
        }
      }
    }
  }

  // ---- run formation -------------------------------------------------------

  std::vector<Run> form_runs() {
    std::vector<Run> runs;
    for (std::size_t i = 0; i < p_.code.size(); i = runs.back().end)
      runs.push_back(make_run(i));
    return runs;
  }

  /// Forms the segment starting at `begin` under the run rules, translating
  /// each varying instruction as it is admitted.
  Run make_run(std::size_t begin) {
    Run r;
    r.begin = begin;
    const Insn& first = p_.code[begin];
    if (is_control(first.op)) {
      r.control = true;
      r.end = begin + 1;
      return r;
    }
    r.masked = honours_mask(first);
    r.alone = r.masked || first.op == Op::StoreG ||
              is_faulting_uniform(first.op);
    run_ = &r;
    std::set<std::int32_t> l_loaded, l_stored;
    std::vector<std::size_t> uniforms;
    std::size_t j = begin;
    for (; j < p_.code.size(); ++j) {
      const Insn& in = p_.code[j];
      if (j > begin &&
          (r.alone || is_target_[j] || is_control(in.op) ||
           honours_mask(in) || in.op == Op::StoreG ||
           is_faulting_uniform(in.op)))
        break;
      if (is_uniform(in.op)) {
        if (r.u_reads.count(in.dst) != 0) break;
        uniforms.push_back(j);
        continue;
      }
      if (in.op == Op::LoadL) {
        if (l_stored.count(in.a) != 0) break;
        l_loaded.insert(in.a);
      } else if (in.op == Op::StoreL) {
        if (l_loaded.count(in.a) != 0 || l_stored.count(in.a) != 0) break;
        l_stored.insert(in.a);
      }
      r.body.push_back(j);
      item_code(in, j);
    }
    run_ = nullptr;
    r.end = j;
    for (const std::size_t pc : uniforms)
      (!r.body.empty() && pc < r.body.back() ? r.pre : r.post).push_back(pc);
    return r;
  }

  /// When runs[i] heads a barrier-free uniform loop the vector form can
  /// run, the index of its back-edge; otherwise 0. The loop is a JgeU
  /// header, runs of lane-safe instructions and non-faulting uniforms (at
  /// least one varying), and a Jmp back to the header; the header exits to
  /// the instruction after the Jmp, and no other jump enters the body.
  std::size_t vector_loop_at(const std::vector<Run>& runs,
                             std::size_t i) const {
    if (k_.reqd_local[0] <= 0 || k_.reqd_local[0] % simd_ != 0) return 0;
    const Run& head = runs[i];
    if (!head.control || p_.code[head.begin].op != Op::JgeU) return 0;
    bool varying = false;
    std::size_t m = i + 1;
    for (; m < runs.size() && !runs[m].control; ++m) {
      const Run& r = runs[m];
      if (r.alone || is_target_[r.begin]) return 0;
      for (const std::size_t pc : r.body)
        if (!lane_safe(p_.code[pc])) return 0;
      varying |= !r.body.empty();
    }
    if (m == runs.size() || !varying) return 0;
    const std::size_t j = runs[m].begin;
    const Insn& jmp = p_.code[j];
    const bool loop = jmp.op == Op::Jmp &&
                      jmp.imm == static_cast<std::int64_t>(head.begin) &&
                      p_.code[head.begin].imm ==
                          static_cast<std::int64_t>(j + 1) &&
                      !is_target_[j];
    return loop ? m : 0;
  }

  /// Translates the body [begin, end) of a vector loop run: every
  /// instruction in program order, uniform ones against block copies of
  /// their registers (all lanes step together, so the item-major run
  /// boundaries inside the loop do not apply).
  Run make_vector_run(std::size_t begin, std::size_t end) {
    Run r;
    r.begin = begin;
    r.end = end;
    run_ = &r;
    vec_ = true;
    uregs_ = &r.u_reads;
    pad_ = "      ";
    for (std::size_t pc = begin; pc < end; ++pc) {
      const Insn& in = p_.code[pc];
      if (is_uniform(in.op)) {
        std::swap(out_, r.code);
        emit_uniform(in);
        std::swap(out_, r.code);
      } else {
        item_code(in, pc);
      }
    }
    pad_.clear();
    uregs_ = nullptr;
    vec_ = false;
    run_ = nullptr;
    ++vloop_id_;
    return r;
  }

  /// Instructions a vector loop run may hold: loads, arithmetic and
  /// constant-offset private slots (no store to global or local memory, no
  /// faulting arithmetic, no private array kept in the slab).
  bool lane_safe(const Insn& in) const {
    const auto in_slab = [this](std::int32_t arr) {
      return slab_arrays_.count(arr) != 0;
    };
    switch (in.op) {
      case Op::VBuiltin:
      case Op::VAdd:
      case Op::VSub:
      case Op::VMul:
      case Op::VLt:
      case Op::VAnd:
      case Op::VMovU:
      case Op::VMov:
      case Op::FConst:
      case Op::FArg:
      case Op::FMov:
      case Op::FSplat:
      case Op::FLane:
      case Op::FAdd:
      case Op::FSub:
      case Op::FMul:
      case Op::FMad:
      case Op::LoadG:
      case Op::LoadL:
        return true;
      case Op::LoadP:
      case Op::StoreP:
        return (in.flags & kImmAddr) != 0 && !in_slab(in.a);
      case Op::FmaPP:
        return !in_slab(in.a) && !in_slab(in.b);
      case Op::SplatLaneP:
        return !in_slab(in.a);
      default:
        return false;
    }
  }

  // ---- prologue / epilogue --------------------------------------------------

  void prologue(bool vector_loops) {
    raw(strf("// Generated by the gemmtune native backend (emitter v6, "
             "simd w=%d) for\n",
             simd_));
    raw("// kernel '" + k_.name + "'. Mirrors kernelir/vm.cpp semantics;\n"
        "// straight-line runs execute item-major, vector loop runs W\n"
        "// items per vector instruction (see native_emit.cpp).\n");
    raw("#include <cstddef>\n#include <cstdio>\n#include <cstring>\n\n");
    // Bit-exact floating constant pool, materialized at dlopen time.
    if (!p_.fpool.empty()) {
      raw("namespace {\n");
      raw(strf("const unsigned long long kFpoolBits[%zu] = {\n",
               p_.fpool.size()));
      for (std::size_t i = 0; i < p_.fpool.size(); ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &p_.fpool[i], sizeof bits);
        raw(strf("  0x%016" PRIx64 "ull,\n", bits));
      }
      raw("};\n");
      raw(strf("struct FpoolInit {\n  double v[%zu];\n"
               "  FpoolInit() { std::memcpy(v, kFpoolBits, sizeof v); }\n"
               "};\nconst FpoolInit kFpool;\n}  // namespace\n\n",
               p_.fpool.size()));
    }
    if (vector_loops) vector_helpers();
    raw("extern \"C\" long long gemmtune_native_entry_v1(\n"
        "    long long group_begin, long long group_end,\n"
        "    long long global0, long long global1,\n"
        "    long long local0, long long local1,\n"
        "    double* const* arg_f64, float* const* arg_f32,\n"
        "    const long long* arg_elems, const long long* arg_i,\n"
        "    const double* arg_f,\n"
        "    unsigned long long* counters, char* err, long long err_cap)"
        " {\n");
    line("(void)global0; (void)global1; (void)local0; (void)local1;");
    line("(void)arg_f64; (void)arg_f32; (void)arg_elems; (void)arg_i;");
    line("(void)arg_f; (void)err; (void)err_cap;");
    // Geometry: bake the work-group shape when the kernel requires one
    // (the launch plan already validated local == reqd_local).
    if (k_.reqd_local[0] > 0) {
      line(strf("constexpr long long LSX = %lld, LSY = %lld;",
                static_cast<long long>(k_.reqd_local[0]),
                static_cast<long long>(k_.reqd_local[1])));
      line("constexpr long long NI = LSX * LSY;");
    } else {
      line("const long long LSX = local0, LSY = local1;");
      line("const long long NI = LSX * LSY;");
    }
    line("(void)LSY;");
    line("const long long ngx = global0 / LSX;");
    // Scratch slabs: the VM's register-file layout, heap-allocated once
    // per call and reused across the whole group range. They never alias
    // each other or the argument buffers.
    line(strf("long long* const __restrict u = new long long[%d];",
              p_.n_u > 0 ? p_.n_u : 1));
    line(strf("long long* const __restrict vi = "
              "new long long[(std::size_t)(%d * NI) + 1];",
              p_.n_vi));
    line(strf("double* const __restrict vf = "
              "new double[(std::size_t)(%d * NI) + 1];",
              p_.n_vf));
    line(strf("double* const __restrict parr = "
              "new double[(std::size_t)(%lld * NI) + 1];",
              static_cast<long long>(p_.parr_doubles)));
    line(strf("double* const __restrict larr = new double[%lld];",
              static_cast<long long>(p_.larr_doubles) + 1));
    line("unsigned char* const __restrict mask = "
         "new unsigned char[(std::size_t)NI];");
    const int depth = p_.max_mask_depth > 0 ? p_.max_mask_depth : 1;
    line(strf("unsigned char* const mask_saved = "
              "new unsigned char[(std::size_t)(%d * NI)];",
              depth));
    line(strf("int mask_cond[%d] = {0};", depth));
    line(strf("long long mask_saved_active[%d] = {0};", depth));
    line("(void)mask_cond; (void)mask_saved_active; (void)mask_saved;");
    line("long long rc = 0;");
    line("unsigned long long c_flops = 0, c_mads = 0, c_gld = 0,"
         " c_gst = 0, c_lld = 0, c_lst = 0, c_bar = 0;");
    line("for (long long g = group_begin; g < group_end; ++g) {");
    line("  const long long gx = g % ngx; (void)gx;");
    line("  const long long gy = g / ngx; (void)gy;");
    // Per-group reset, exactly the VM's: all uniforms, the variable
    // prefixes of the vi/vf slabs, the whole private/local slabs, mask 1.
    line(strf("  std::memset(u, 0, sizeof(long long) * %d);",
              p_.n_u > 0 ? p_.n_u : 1));
    if (p_.n_vi_vars > 0)
      line(strf("  std::memset(vi, 0, sizeof(long long) * "
                "(std::size_t)(%d * NI));",
                p_.n_vi_vars));
    if (p_.n_vf_vars > 0)
      line(strf("  std::memset(vf, 0, sizeof(double) * "
                "(std::size_t)(%d * NI));",
                p_.n_vf_vars));
    if (p_.parr_doubles > 0)
      line(strf("  std::memset(parr, 0, sizeof(double) * "
                "(std::size_t)(%lld * NI));",
                static_cast<long long>(p_.parr_doubles)));
    if (p_.larr_doubles > 0)
      line(strf("  std::memset(larr, 0, sizeof(double) * %lld);",
                static_cast<long long>(p_.larr_doubles)));
    line("  std::memset(mask, 1, (std::size_t)NI);");
    line("  long long active = NI; (void)active;");
    line("  long long mask_depth = 0; (void)mask_depth;");
  }

  /// Vector types of W lanes and the lane helpers vector loop runs call:
  /// broadcasts, the f32 round, contiguous (ld1/st1), strided (lds/sts)
  /// and per-lane (ldv) loads, and the lowest failing lane of a bounds
  /// check.
  void vector_helpers() {
    const int w = simd_;
    // The W lane terms `f(l)`, comma-separated.
    const auto lanes = [w](const auto& f) {
      std::string s;
      for (int l = 0; l < w; ++l) s += (l ? ", " : "") + f(l);
      return s;
    };
    const auto each = [w](const auto& f) {
      std::string s;
      for (int l = 0; l < w; ++l) s += f(l);
      return s;
    };
    const auto bcast = lanes([](int) { return std::string("x"); });
    raw("namespace {\n");
    raw(strf("typedef double VD __attribute__((vector_size(%d)));\n", 8 * w));
    raw(strf("typedef long long VI __attribute__((vector_size(%d)));\n",
             8 * w));
    raw(strf("typedef float VF __attribute__((vector_size(%d)));\n", 4 * w));
    raw("#define GT_INL static inline __attribute__((always_inline))\n");
    raw("const VI kLane = {" + lanes([](int l) { return strf("%d", l); }) +
        "};\n");
    raw("GT_INL VD bd(double x) { return (VD){" + bcast + "}; }\n");
    raw("GT_INL VI bi(long long x) { return (VI){" + bcast + "}; }\n");
    raw("GT_INL VD ld1(const double* p) { VD v; std::memcpy(&v, p, sizeof v);"
        " return v; }\n");
    raw("GT_INL VI ld1(const long long* p) { VI v; std::memcpy(&v, p, "
        "sizeof v); return v; }\n");
    raw("GT_INL void st1(double* p, VD v) { std::memcpy(p, &v, sizeof v); }\n");
    raw("GT_INL void st1(long long* p, VI v) { std::memcpy(p, &v, sizeof v); "
        "}\n");
    // The f32 round, the float load and the strided loads. At W = 8 and 4
    // GCC 12 compiles the portable forms to half-width conversions and
    // lane-by-lane inserts, so GCC builds for the JIT's -m flag spell the
    // host instruction each one stands for as a builtin (no header:
    // <immintrin.h> costs more compile time than most kernels): one
    // conversion each way, and at W = 8 a 64-bit-index gather for doubles
    // and eight float loads with one widening conversion for floats.
    // AVX2's gather is slower than the lane loads, so W = 4 keeps them.
    // Clang keeps the portable forms, as does W = 2, where they already
    // are one instruction each.
    const std::string portable_r32 =
        "GT_INL VD r32(VD x) { return __builtin_convertvector("
        "__builtin_convertvector(x, VF), VD); }\n";
    const std::string portable_ld1f =
        "GT_INL VD ld1(const float* p) { VF v; std::memcpy(&v, p, sizeof v);"
        " return __builtin_convertvector(v, VD); }\n";
    const std::string portable_lds =
        "GT_INL VD lds(const double* p, long long s) { return (VD){" +
        lanes([](int l) { return strf("p[%d * s]", l); }) +
        "}; }\nGT_INL VD lds(const float* p, long long s) { return (VD){" +
        lanes([](int l) { return strf("(double)p[%d * s]", l); }) + "}; }\n";
    if (w != 8 && w != 4) {
      raw(portable_r32 + portable_ld1f + portable_lds);
    } else {
      const bool avx512 = w == 8;
      std::string gcc =
          strf("GT_INL VD wide(VF x) { return %s; }\n",
               avx512 ? "__builtin_ia32_cvtps2pd512_mask(x, (VD){}, 0xFF, 4)"
                      : "__builtin_ia32_cvtps2pd256(x)") +
          strf("GT_INL VD r32(VD x) { return wide(%s); }\n",
               avx512 ? "__builtin_ia32_cvtpd2ps512_mask(x, (VF){}, 0xFF, 4)"
                      : "__builtin_ia32_cvtpd2ps256(x)") +
          "GT_INL VD ld1(const float* p) { VF v; std::memcpy(&v, p, sizeof "
          "v); return wide(v); }\n";
      if (avx512)
        gcc += "GT_INL VD lds(const double* p, long long s) { return "
               "__builtin_ia32_gatherdiv8df((VD){}, p, (VI){" +
               lanes([](int l) { return strf("%d * s", l); }) +
               "}, 0xFF, 8); }\n"
               "GT_INL VD lds(const float* p, long long s) { return "
               "wide((VF){" +
               lanes([](int l) { return strf("p[%d * s]", l); }) + "}); }\n";
      raw(strf("#if defined(%s) && !defined(__clang__)\n",
               avx512 ? "__AVX512F__" : "__AVX2__") +
          gcc + "#else\n" + portable_r32 + portable_ld1f +
          (avx512 ? portable_lds : "") + "#endif\n" +
          (avx512 ? "" : portable_lds));
    }
    raw("GT_INL void sts(double* p, long long s, VD v) {" +
        each([](int l) { return strf(" p[%d * s] = v[%d];", l, l); }) +
        " }\n");
    raw("GT_INL VD ldv(const double* p, VI i) { return (VD){" +
        lanes([](int l) { return strf("p[i[%d]]", l); }) + "}; }\n");
    raw("GT_INL VD ldv(const float* p, VI i) { return (VD){" +
        lanes([](int l) { return strf("(double)p[i[%d]]", l); }) + "}; }\n");
    raw("GT_INL bool any_bad(VI i, long long w, long long n) {\n"
        "  const VI m = (i < 0) | (i + w > n);\n"
        "  return (" +
        each([](int l) { return strf("%sm[%d]", l ? " | " : "", l); }) +
        ") != 0;\n}\n");
    raw(strf("__attribute__((noinline, cold)) long long bad_lane(VI i, "
             "long long w, long long n) {\n"
             "  for (int l = 0; l < %d; ++l)\n"
             "    if (i[l] < 0 || i[l] + w > n) return i[l];\n"
             "  return 0;\n}\n",
             w));
    raw("}  // namespace\n\n");
  }

  void epilogue() {
    line("L_done:;");
    line("}");  // group loop
    line("goto L_cleanup;");
    line("L_fail:;");
    line("rc = 1;");
    line("L_cleanup:;");
    line("counters[0] += c_flops; counters[1] += c_mads;");
    line("counters[2] += c_gld; counters[3] += c_gst;");
    line("counters[4] += c_lld; counters[5] += c_lst;");
    line("counters[6] += c_bar;");
    line("delete[] u; delete[] vi; delete[] vf; delete[] parr;");
    line("delete[] larr; delete[] mask; delete[] mask_saved;");
    line("return rc;");
    raw("}\n");
  }

  // ---- runs ----------------------------------------------------------------

  /// C++ declaration, slab load and slab store of a run-local value.
  static std::string decl(const Val& v) {
    return (v.kind == 'v' ? "long long " : "double ") + name(v);
  }
  std::string slab(const Val& v) const {
    switch (v.kind) {
      case 'v':
        return strf("vi[%d * NI + t]", v.id);
      case 'f':
        return strf("vf[%d * NI + t * %d + %d]", v.id, vfw_.at(v.id), v.lane);
      default:
        return strf("pp[%d]", v.id);
    }
  }
  static std::string name(const Val& v) {
    switch (v.kind) {
      case 'v':
        return strf("v%d", v.id);
      case 'f':
        return strf("f%d_%d", v.id, v.lane);
      default:
        return strf("p%d", v.id);
    }
  }

  /// The counter increments of a run whose items each executed its body
  /// `times` times.
  void count_run(const Run& r, const std::string& times) {
    const std::pair<const char*, unsigned long long> sums[] = {
        {"c_flops", r.flops}, {"c_mads", r.mads}, {"c_gld", r.gld},
        {"c_gst", r.gst},     {"c_lld", r.lld},   {"c_lst", r.lst}};
    for (const auto& [counter, n] : sums)
      if (n != 0)
        line(strf("  %s += %lluULL * %s;", counter, n, times.c_str()));
  }

  void emit_run(const Run& r) {
    line("{");
    pad_ = "  ";
    for (const std::size_t pc : r.pre) emit_uniform(p_.code[pc]);
    pad_.clear();
    if (!r.body.empty()) {
      for (const std::int32_t reg : r.u_reads)
        line(strf("  const long long u%d = u[%d];", reg, reg));
      emit_gargs(r);
      if (!r.faults.empty())
        line(strf("  long long f_ord = %zu, f_val = 0;", p_.code.size()));
      // The body is long straight-line code already: copies of it from
      // completely unrolling a small work-group's loop only cost compile
      // time (tenfold on 8-item groups).
      line("  #pragma GCC unroll 1");
      line("  for (long long t = 0; t < NI; ++t) {");
      if (r.masked) line("    if (!mask[t]) continue;");
      if (r.private_slab)
        line(strf("    double* const pp = parr + t * %lld;",
                  static_cast<long long>(p_.parr_doubles)));
      for (const Val& v : r.loads)
        line("    " + decl(v) + " = " + slab(v) + ";");
      for (const Val& v : r.writes)
        if (r.loads.count(v) == 0) line("    " + decl(v) + " = 0;");
      raw(r.code);
      for (const Val& v : r.writes)
        if (slab_read_.count(v) != 0)
          line("    " + slab(v) + " = " + name(v) + ";");
      line("  }");
      raw(r.faults);
      // Faults never reach this point, so every item (every active item
      // of a masked run) executed each instruction exactly once.
      count_run(r, r.masked ? "(unsigned long long)active"
                            : "(unsigned long long)NI");
    }
    pad_ = "  ";
    for (const std::size_t pc : r.post) emit_uniform(p_.code[pc]);
    pad_.clear();
    line("}");
  }

  void emit_gargs(const Run& r) {
    for (const auto& [a, f32] : r.gargs)
      line(strf("  %s* const gp%d = %s[%d]; const long long en%d = "
                "arg_elems[%d];",
                f32 ? "float" : "double", a, f32 ? "arg_f32" : "arg_f64", a,
                a, a));
  }

  /// Vector form of a value's slab home for the block of items t0 ..
  /// t0 + W - 1: its address and the distance between two items' copies.
  std::pair<std::string, long long> vslab(const Val& v) const {
    switch (v.kind) {
      case 'v':
        return {strf("vi + %d * NI + t0", v.id), 1};
      case 'f': {
        const int width = vfw_.at(v.id);
        return {strf("vf + %d * NI + t0 * %d + %d", v.id, width, v.lane),
                width};
      }
      default: {
        const auto pd = static_cast<long long>(p_.parr_doubles);
        return {strf("parr + t0 * %lld + %d", pd, v.id), pd};
      }
    }
  }

  /// The loop header `jge` and its body `r` (make_vector_run) as blocks
  /// of W work-items.
  void emit_vector_loop(const Insn& jge, const Run& r) {
    std::set<std::int32_t> uregs = r.u_reads, uwritten;
    for (std::size_t pc = r.begin; pc < r.end; ++pc)
      if (is_uniform(p_.code[pc].op)) uwritten.insert(p_.code[pc].dst);
    uregs_ = &uregs;
    const std::string cond = u(jge.a) + " >= " + u(jge.b);
    uregs_ = nullptr;
    const bool faults = !r.faults.empty();
    line(strf("{  // vector loop run: %d work-items per vector instruction",
              simd_));
    emit_gargs(r);
    std::string copies;
    for (const std::int32_t reg : uregs)
      copies += (copies.empty() ? "" : ", ") + strf("u%d = 0", reg);
    line("  long long " + copies + ";");
    line("  long long trips = 0;");
    if (faults)
      line(strf("  long long f_ord = %zu, f_val = 0, f_it = 0;",
                p_.code.size()));
    line("  #pragma GCC unroll 1");
    line(strf("  for (long long t0 = 0; t0 < NI; t0 += %d) {", simd_));
    for (const std::int32_t reg : uregs)
      line(strf("    u%d = u[%d];", reg, reg));
    // Entry values are what the loop reads before writing; the body
    // writes every other value it holds in each iteration.
    for (const Val& v : r.writes)
      if (r.loads.count(v) == 0) line("    " + vdecl(v) + " = {};");
    for (const Val& v : r.loads)
      line("    " + vdecl(v) + " = " + vload(v) + ";");
    line(faults ? "    long long it = 0, b_pc = 0, b_val = 0;"
                : "    long long it = 0;");
    line("    while (!(" + cond + ")) {");
    raw(r.code);
    line("      ++it;");
    line("    }");
    // Exit values other code reads from the slabs; a loop that ran no
    // iteration changed none.
    std::vector<std::string> exits;
    for (const Val& v : r.writes) {
      if (slab_read_.count(v) == 0) continue;
      const auto [addr, dist] = vslab(v);
      exits.push_back(dist == 1 ? "st1(" + addr + ", " + name(v) + ");"
                                : strf("sts(%s, %lld, %s);", addr.c_str(),
                                       dist, name(v).c_str()));
    }
    if (!exits.empty()) {
      line("    if (it != 0) {");
      for (const std::string& st : exits) line("      " + st);
      line("    }");
    }
    line("    trips = it;");
    if (faults) {
      // The block's first failing check has its smallest (iteration, pc);
      // an earlier block keeps a tie.
      line("    continue;");
      line(strf("  LF%zu:;", vloop_id_));
      line(strf("    if (f_ord == %zu || it < f_it || (it == f_it && b_pc < "
                "f_ord)) {",
                p_.code.size()));
      line("      f_ord = b_pc; f_val = b_val; f_it = it;");
      line("    }");
    }
    line("  }");
    raw(r.faults);
    for (const std::int32_t reg : uwritten)
      line(strf("  u[%d] = u%d;", reg, reg));
    count_run(r, "(unsigned long long)NI * (unsigned long long)trips");
    line("}");
    ++vloop_id_;
  }

  static std::string vdecl(const Val& v) {
    return (v.kind == 'v' ? "VI " : "VD ") + name(v);
  }
  std::string vload(const Val& v) const {
    const auto [addr, dist] = vslab(v);
    return dist == 1 ? "ld1(" + addr + ")"
                     : strf("lds(%s, %lld)", addr.c_str(), dist);
  }

  // ---- per-item translation (into run_->code) ------------------------------

  void stmt(const std::string& s) {
    run_->code += vec_ ? "        " : "      ";  // the loop body's depth
    run_->code += s;
    run_->code += '\n';
  }
  /// Records a read of `v` and returns its local.
  std::string rd(const Val& v) {
    if (run_->writes.count(v) == 0) run_->loads.insert(v);
    run_->private_slab |= v.kind == 'p';
    if (!drop_dead_) read_.insert(v);
    return name(v);
  }
  /// `v = e;` unless no instruction reads `v`. Statements build `e` (and
  /// so read their operands) before writing the destination.
  void set(const Val& v, const std::string& e, const char* indent = "") {
    if (drop_dead_ && read_.count(v) == 0) return;
    run_->writes.insert(v);
    run_->private_slab |= v.kind == 'p';
    stmt(indent + name(v) + " = " + e + ";");
  }
  std::string rd_v(std::int32_t r) { return rd(Val{'v', r, 0}); }
  void set_v(std::int32_t r, const std::string& e) { set(Val{'v', r, 0}, e); }
  std::string rd_f(std::int32_t base, int lane) {
    return rd(Val{'f', base, lane});
  }
  void set_f(std::int32_t base, int lane, const std::string& e,
             const char* indent = "") {
    set(Val{'f', base, lane}, e, indent);
  }
  /// Slot `off` of private array `arr` (its offset in the item's slab).
  std::string rd_p(std::int32_t arr, std::int64_t off) {
    if (slab_arrays_.count(arr) != 0) return pp(off);
    return rd(Val{'p', static_cast<std::int32_t>(off), 0});
  }
  void set_p(std::int32_t arr, std::int64_t off, const std::string& e,
             const char* indent = "") {
    if (slab_arrays_.count(arr) != 0) {
      stmt(indent + pp(off) + " = " + e + ";");
    } else {
      set(Val{'p', static_cast<std::int32_t>(off), 0}, e, indent);
    }
  }
  /// Direct access to the item's private slab.
  std::string pp(std::int64_t off) {
    run_->private_slab = true;
    return strf("pp[%lld]", static_cast<long long>(off));
  }
  /// A uniform operand: the run's snapshot of u[r].
  std::string uni(std::int32_t r) {
    run_->u_reads.insert(r);
    return strf("u%d", r);
  }
  std::string int_operand(std::int32_t r, bool uniform) {
    return uniform ? splat_i(uni(r)) : rd_v(r);
  }
  std::string address(const Insn& in) {
    if (in.flags & kImmAddr) return imm64(in.imm);
    return int_operand(in.b, (in.flags & kBUni) != 0);
  }

  /// Records a fault of instruction `pc` (message `fails`, with `f_val`
  /// standing for `val`) and returns the statement that raises it.
  std::string fault(std::size_t pc, const std::string& val,
                    const std::string& fails) {
    run_->faults += strf("    if (f_ord == %zu) ", pc) + fails + "\n";
    if (vec_)
      return strf("{ b_pc = %zu; b_val = %s; goto LF%zu; }", pc, val.c_str(),
                  vloop_id_);
    if (run_->alone)
      return strf("{ f_ord = %zu; f_val = %s; break; }", pc, val.c_str());
    return strf("{ if (%zu < f_ord) { f_ord = %zu; f_val = %s; } continue; }",
                pc, pc, val.c_str());
  }

  /// A vector loop run's LoadG / LoadL: one check and one load per block
  /// of W items, shaped by the address register's lane stride.
  void vector_load(const Insn& in, std::size_t pc, const std::string& base,
                   bool f32, const std::string& limit,
                   const std::string& fails) {
    const int w = in.lanes;
    const std::string over = strf(" + %d > ", w) + limit;
    std::int64_t s = 0;  // lane stride of the index
    if (in.flags & (kImmAddr | kBUni)) {
      stmt("{ const long long i0 = " +
           ((in.flags & kImmAddr) ? imm64(in.imm) : uni(in.b)) + ";");
    } else {
      stmt("{ const VI ix = " + rd_v(in.b) + ";");
      s = stride_[static_cast<std::size_t>(in.b)];
      if (s == kNoDef) s = kUnknown;
      if (s == 0) {
        stmt("  const long long i0 = ix[0];");
      } else if (s != kUnknown) {
        stmt(strf("  const long long i0 = ix[0], iL = ix[%d];", simd_ - 1));
      }
    }
    const std::string scan = strf("bad_lane(ix, %d, %s)", w, limit.c_str());
    if (s == 0) {
      stmt("  if (i0 < 0 || i0" + over + ") " + fault(pc, "i0", fails));
    } else if (s == kUnknown) {
      stmt(strf("  if (any_bad(ix, %d, %s)) ", w, limit.c_str()) +
           fault(pc, scan, fails));
    } else {
      stmt("  if (i0 < 0 || i0" + over + " || iL < 0 || iL" + over + ") " +
           fault(pc, scan, fails));
    }
    for (int l = 0; l < w; ++l) {
      const std::string at = strf("%s + i0 + %d", base.c_str(), l);
      std::string e;
      if (s == 0) {
        const std::string x = strf("%s[i0 + %d]", base.c_str(), l);
        e = "bd(" + (f32 ? "(double)" + x : x) + ")";
      } else if (s == 1) {
        e = "ld1(" + at + ")";
      } else if (s == kUnknown) {
        e = strf("ldv(%s + %d, ix)", base.c_str(), l);
      } else {
        e = strf("lds(%s, %lld)", at.c_str(), static_cast<long long>(s));
      }
      set_f(in.dst, l, e, "  ");
    }
    stmt("}");
  }

  void item_code(const Insn& in, std::size_t pc) {
    const int w = in.lanes;
    switch (in.op) {
      case Op::VBuiltin: {
        const int dim = in.aux & 1;
        const auto fn = static_cast<BuiltinFn>(in.aux >> 1);
        std::string e;
        if (fn == BuiltinFn::LocalId || fn == BuiltinFn::GlobalId) {
          const char* group = fn == BuiltinFn::LocalId ? ""
                              : dim == 0               ? "gx * LSX + "
                                                       : "gy * LSY + ";
          // A vector block's items share t0 / LSX and step t0 % LSX.
          e = vec_ ? strf("bi(%s%s)", group,
                          dim == 0 ? "t0 % LSX" : "t0 / LSX") +
                         (dim == 0 ? " + kLane" : "")
                   : strf("%s%s", group, dim == 0 ? "t % LSX" : "t / LSX");
        } else {
          e = splat_i(builtin_expr(in.aux));
        }
        set_v(in.dst, e);
        return;
      }
      case Op::VAdd:
      case Op::VSub:
      case Op::VMul:
      case Op::VLt:
      case Op::VAnd: {
        const std::string x = int_operand(in.a, (in.flags & kAUni) != 0);
        const std::string y = int_operand(in.b, (in.flags & kBUni) != 0);
        std::string e;
        switch (in.op) {
          case Op::VAdd: e = x + " + " + y; break;
          case Op::VSub: e = x + " - " + y; break;
          case Op::VMul: e = x + " * " + y; break;
          case Op::VLt:
            e = vec_ ? "-(" + x + " < " + y + ")"
                     : "(" + x + " < " + y + ") ? 1 : 0";
            break;
          default:
            e = vec_ ? "-((" + x + " != 0) & (" + y + " != 0))"
                     : "(" + x + " != 0 && " + y + " != 0) ? 1 : 0";
            break;
        }
        set_v(in.dst, e);
        return;
      }
      case Op::VDiv:
      case Op::VMod: {
        check(!vec_, "native emit: division in a vector loop run");
        const bool div = in.op == Op::VDiv;
        const std::string x = int_operand(in.a, (in.flags & kAUni) != 0);
        const std::string y = int_operand(in.b, (in.flags & kBUni) != 0);
        stmt("{ const long long y_ = " + y + ";");
        stmt("  if (y_ == 0) " +
             fault(pc, "0",
                   fail_msg(div ? "interp: integer division by zero"
                                : "interp: integer modulo by zero")));
        set_v(in.dst, x + (div ? " / y_" : " % y_"));
        stmt("}");
        return;
      }
      case Op::VMovU:
        set_v(in.dst, splat_i(uni(in.a)));
        return;
      case Op::VMov:
        set_v(in.dst, rd_v(in.a));
        return;
      case Op::FConst:
        for (int l = 0; l < w; ++l)
          set_f(in.dst, l,
                splat_f(strf("kFpool.v[%lld]",
                             static_cast<long long>(in.imm) + l)));
        return;
      case Op::FArg: {
        const std::string x = strf("arg_f[%d]", in.a);
        set_f(in.dst, 0,
              splat_f((in.aux & kRoundF32) ? "(double)(float)" + x : x));
        for (int l = 1; l < w; ++l) set_f(in.dst, l, zero_f());
        return;
      }
      case Op::FMov: {
        const int dw = in.b, n = in.lanes;
        for (int l = 0; l < n; ++l) set_f(in.dst, l, rd_f(in.a, l));
        for (int l = n; l < dw; ++l) set_f(in.dst, l, zero_f());
        return;
      }
      case Op::FSplat: {
        stmt("{ const auto x_ = " + rd_f(in.a, 0) + ";");
        for (int l = 0; l < w; ++l) set_f(in.dst, l, "x_", "  ");
        stmt("}");
        return;
      }
      case Op::FLane: {
        const auto ln = static_cast<int>(in.imm);
        set_f(in.dst, 0, ln < in.aux ? rd_f(in.a, ln) : zero_f());
        return;
      }
      case Op::FAdd:
      case Op::FSub:
      case Op::FMul:
      case Op::FMad: {
        const bool f32 = (in.aux & kRoundF32) != 0;
        const bool mad = in.op == Op::FMad;
        const char* op = in.op == Op::FAdd   ? " + "
                         : in.op == Op::FSub ? " - "
                                             : " * ";
        for (int l = 0; l < w; ++l) {
          std::string e = rd_f(in.a, l) + op + rd_f(in.b, l);
          if (mad) e += " + " + rd_f(in.c, l);
          set_f(in.dst, l, rnd(f32, e));
        }
        run_->flops += static_cast<unsigned long long>(mad ? 2 * w : w);
        if (mad) ++run_->mads;
        return;
      }
      case Op::FmaPP: {
        // parr[a][dst + l] = vf[c][l] * parr[b][imm + l] + parr[a][dst + l].
        const ArrayRef& cr = p_.arrays[static_cast<std::size_t>(in.a)];
        const ArrayRef& br = p_.arrays[static_cast<std::size_t>(in.b)];
        const bool f32 = (in.aux & kRoundF32) != 0;
        const long long coff = cr.offset + in.dst;
        const long long boff = br.offset + in.imm;
        for (int l = 0; l < w; ++l) {
          const std::string e = rd_f(in.c, l) + " * " + rd_p(in.b, boff + l) +
                                " + " + rd_p(in.a, coff + l);
          set_p(in.a, coff + l, rnd(f32, e));
        }
        run_->flops += 2ull * static_cast<unsigned long long>(w);
        ++run_->mads;
        return;
      }
      case Op::SplatLaneP: {
        const ArrayRef& ar = p_.arrays[static_cast<std::size_t>(in.a)];
        const std::string x = rd_p(in.a, ar.offset + in.imm);
        for (int l = 0; l < in.b; ++l)
          set_f(in.dst, l, l < w ? x : zero_f());
        return;
      }
      case Op::LoadG:
      case Op::StoreG: {
        const bool store = in.op == Op::StoreG;
        const bool f32 = (in.aux & kElemF32) != 0;
        run_->gargs[in.a] = f32;
        const std::string fails = fail_stmt(
            cstr(strf("global %s out of range: index %%lld + %d lanes, "
                      "buffer %%lld elements",
                      store ? "store" : "load", w)),
            {"f_val", strf("en%d", in.a)});
        (store ? run_->gst : run_->gld) +=
            static_cast<unsigned long long>(w * (f32 ? 4 : 8));
        if (vec_) {
          check(!store, "native emit: store in a vector loop run");
          vector_load(in, pc, strf("gp%d", in.a), f32, strf("en%d", in.a),
                      fails);
          return;
        }
        stmt("{ const long long idx = " + address(in) + ";");
        stmt(strf("  if (idx < 0 || idx + %d > en%d) ", w, in.a) +
             fault(pc, "idx", fails));
        for (int l = 0; l < w; ++l) {
          const std::string g = strf("gp%d[idx + %d]", in.a, l);
          if (store) {
            const std::string x = rd_f(in.c, l);
            stmt("  " + g + " = " + (f32 ? "(float)" + x : x) + ";");
          } else {
            set_f(in.dst, l, f32 ? "(double)" + g : g, "  ");
          }
        }
        stmt("}");
        return;
      }
      case Op::LoadL:
      case Op::StoreL:
      case Op::LoadP:
      case Op::StoreP: {
        const bool store = in.op == Op::StoreL || in.op == Op::StoreP;
        const bool local = in.op == Op::LoadL || in.op == Op::StoreL;
        const ArrayRef& ar = p_.arrays[static_cast<std::size_t>(in.a)];
        const std::string fails = fail_stmt(
            cstr(strf("%s array '%%s' %s out of range: index %%lld + %d "
                      "lanes, %%zu elements",
                      local ? "local" : "private", store ? "store" : "load",
                      w)),
            {cstr(ar.name), "f_val", strf("(std::size_t)%d", ar.len)});
        if (local)
          (store ? run_->lst : run_->lld) += static_cast<unsigned long long>(
              w * ((in.aux & kCount8) ? 8 : 4));
        const bool imm = (in.flags & kImmAddr) != 0;
        if (imm && (in.imm < 0 || in.imm + w > ar.len)) {
          stmt(fault(pc, imm64(in.imm), fails));  // every item faults here
          return;
        }
        if (vec_ && local) {
          check(!store, "native emit: store in a vector loop run");
          vector_load(in, pc, strf("(larr + %d)", ar.offset), false,
                      strf("%d", ar.len), fails);
          return;
        }
        if (!imm) {
          stmt("{ const long long idx = " + address(in) + ";");
          stmt(strf("  if (idx < 0 || idx + %d > %d) ", w, ar.len) +
               fault(pc, "idx", fails));
        }
        for (int l = 0; l < w; ++l) {
          // Element l of the access at `idx` (a literal when constant).
          std::string at;
          if (local) {
            at = imm ? strf("larr[%lld]",
                            static_cast<long long>(ar.offset + in.imm + l))
                     : strf("larr[%d + idx + %d]", ar.offset, l);
          } else if (!imm) {
            run_->private_slab = true;
            at = strf("pp[%d + idx + %d]", ar.offset, l);
          }
          if (store) {
            const std::string x = rd_f(in.c, l);
            if (at.empty()) {
              set_p(in.a, ar.offset + in.imm + l, x, "  ");
            } else {
              stmt("  " + at + " = " + x + ";");
            }
          } else {
            set_f(in.dst, l,
                  at.empty() ? rd_p(in.a, ar.offset + in.imm + l) : at,
                  "  ");
          }
        }
        if (!imm) stmt("}");
        return;
      }
      default:
        break;
    }
    fail(strf("native emit: opcode %d at pc %zu is not per-item",
              static_cast<int>(in.op), pc));
  }

  // ---- uniform and control instructions ------------------------------------

  void emit_uniform(const Insn& in) {
    switch (in.op) {
      case Op::UConst:
        line(u(in.dst) + " = " + imm64(in.imm) + ";");
        return;
      case Op::UArg:
        line(u(in.dst) + strf(" = arg_i[%d];", in.a));
        return;
      case Op::UBuiltin:
        line(u(in.dst) + " = " + builtin_expr(in.aux) + ";");
        return;
      case Op::UAdd:
        line(u(in.dst) + " = " + u(in.a) + " + " + u(in.b) + ";");
        return;
      case Op::USub:
        line(u(in.dst) + " = " + u(in.a) + " - " + u(in.b) + ";");
        return;
      case Op::UMul:
        line(u(in.dst) + " = " + u(in.a) + " * " + u(in.b) + ";");
        return;
      case Op::UDiv:
      case Op::UMod: {
        const bool div = in.op == Op::UDiv;
        line("{ const long long d = " + u(in.b) + ";");
        line("  if (d == 0) " +
             fail_msg(div ? "interp: integer division by zero"
                          : "interp: integer modulo by zero"));
        line("  " + u(in.dst) + " = " + u(in.a) +
             (div ? " / d; }" : " % d; }"));
        return;
      }
      case Op::ULt:
        line(u(in.dst) + " = (" + u(in.a) + " < " + u(in.b) + ") ? 1 : 0;");
        return;
      case Op::UAnd:
        line(u(in.dst) + " = (" + u(in.a) + " != 0 && " + u(in.b) +
             " != 0) ? 1 : 0;");
        return;
      case Op::UMov:
        line(u(in.dst) + " = " + u(in.a) + ";");
        return;
      case Op::UStepCheck:
        line("if (" + u(in.a) + " <= 0) " + fail_msg("for: non-positive step"));
        return;
      default:
        fail("native emit: not a uniform instruction");
    }
  }

  void emit_control(const Insn& in, std::size_t pc) {
    switch (in.op) {
      case Op::Halt:
        line("goto L_done;");
        return;
      case Op::Jmp:
        line(strf("goto L%lld;", static_cast<long long>(in.imm)));
        return;
      case Op::JzU:
        line("if (" + u(in.a) +
             strf(" == 0) goto L%lld;", static_cast<long long>(in.imm)));
        return;
      case Op::JgeU:
        line("if (" + u(in.a) + " >= " + u(in.b) +
             strf(") goto L%lld;", static_cast<long long>(in.imm)));
        return;
      case Op::JNone:
        line(strf("if (active == 0) goto L%lld;",
                  static_cast<long long>(in.imm)));
        return;
      case Op::ForCheckV: {
        line("{ const long long* const a = " + vi_ptr(in.a) + ";");
        line("  const long long* const b = " + vi_ptr(in.b) + ";");
        line("  const long long* const c = " + vi_ptr(in.c) + ";");
        line("  long long first = -1;");
        line("  for (long long t = 0; t < NI; ++t)"
             " if (mask[t]) { first = t; break; }");
        line(strf("  if (first < 0) goto L%lld;",
                  static_cast<long long>(in.imm)));
        line("  const long long init = a[first], lim = b[first],"
             " stp = c[first];");
        line("  for (long long t = first; t < NI; ++t) {");
        line("    if (!mask[t]) continue;");
        line("    if (a[t] != init || b[t] != lim || c[t] != stp) " +
             fail_msg("for: non-uniform loop bounds across work-group"));
        line("  }");
        line("  if (stp <= 0) " + fail_msg("for: non-positive step"));
        line("  " + u(in.dst) + " = init;");
        line(strf("  u[%d] = lim;", in.dst + 1));
        line(strf("  u[%d] = stp; }", in.dst + 2));
        return;
      }
      case Op::MaskPush:
        line("{ std::memcpy(mask_saved + mask_depth * NI, mask,"
             " (std::size_t)NI);");
        line(strf("  mask_cond[mask_depth] = %d;", in.a));
        line("  mask_saved_active[mask_depth] = active;");
        line("  ++mask_depth;");
        line("  const long long* const c = " + vi_ptr(in.a) + ";");
        line("  long long n = 0;");
        line("  for (long long t = 0; t < NI; ++t) {"
             " mask[t] = (mask[t] && c[t] != 0) ? 1 : 0; n += mask[t]; }");
        line("  active = n; }");
        return;
      case Op::MaskFlip:
        line("{ const unsigned char* const sv ="
             " mask_saved + (mask_depth - 1) * NI;");
        line("  const long long* const c ="
             " vi + (long long)mask_cond[mask_depth - 1] * NI;");
        line("  long long n = 0;");
        line("  for (long long t = 0; t < NI; ++t) {"
             " mask[t] = (sv[t] && c[t] == 0) ? 1 : 0; n += mask[t]; }");
        line("  active = n; }");
        return;
      case Op::MaskPop:
        line("{ --mask_depth;");
        line("  std::memcpy(mask, mask_saved + mask_depth * NI,"
             " (std::size_t)NI);");
        line("  active = mask_saved_active[mask_depth]; }");
        return;
      case Op::Barrier:
        line("{ for (long long t = 0; t < NI; ++t) if (!mask[t]) " +
             fail_msg("barrier inside divergent control flow"));
        line("  ++c_bar; }");
        return;
      case Op::Throw:
        line(fail_msg(p_.messages[static_cast<std::size_t>(in.imm)]));
        return;
      default:
        break;
    }
    fail(strf("native emit: unhandled opcode %d at pc %zu",
              static_cast<int>(in.op), pc));
  }

  const Kernel& k_;
  const CompiledKernel& p_;
  const int simd_;  ///< host vector width in doubles: a vector block's items
  std::string out_;
  std::string pad_;  ///< extra indentation of line()
  std::vector<char> is_target_;
  std::map<std::int32_t, int> vfw_;     ///< vf register base -> slab width
  std::set<std::int32_t> slab_arrays_;  ///< private arrays kept in the slab
  std::vector<std::int64_t> stride_;    ///< vi register -> lane stride
  std::set<Val> read_;       ///< values some instruction reads
  bool drop_dead_ = false;   ///< skip writes of values not in read_
  std::set<Val> slab_read_;  ///< values some code reads from the slabs
  Run* run_ = nullptr;       ///< the run being translated
  bool vec_ = false;         ///< translating a vector loop run
  std::size_t vloop_id_ = 0;  ///< numbers vector loops' fault labels
  std::set<std::int32_t>* uregs_ = nullptr;  ///< u() names block copies
};

}  // namespace

std::string emit_native_source(const Kernel& kernel,
                               const CompiledKernel& prog, int simd_width) {
  Emitter e(kernel, prog, simd_width);
  return e.run();
}

}  // namespace gemmtune::ir
