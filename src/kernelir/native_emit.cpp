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
// Floating-point identity with the VM is preserved by construction:
// arithmetic is emitted as the same double expressions the VM evaluates
// (single-precision rounding as a (double)(float)(...) cast, per lane),
// constants are reproduced bit-exactly from their IEEE-754 payloads, and
// the JIT compiles with -ffp-contract=off so the host compiler cannot fuse
// a*b+c into an fma the VM didn't perform.
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
    std::vector<Run> runs;
    for (std::size_t i = 0; i < p_.code.size(); i = runs.back().end)
      runs.push_back(make_run(i));
    // A value must reach the slab only if some code reads it from there:
    // a run that loads it at item entry, or a control instruction.
    for (const Run& r : runs) slab_read_.insert(r.loads.begin(), r.loads.end());
    for (const Insn& in : p_.code) {
      if (in.op == Op::ForCheckV) {
        for (const std::int32_t r : {in.a, in.b, in.c})
          slab_read_.insert(Val{'v', r, 0});
      } else if (in.op == Op::MaskPush) {  // MaskFlip re-reads it
        slab_read_.insert(Val{'v', in.a, 0});
      }
    }
    prologue();
    for (const Run& r : runs) {
      if (is_target_[r.begin]) line(strf("L%zu:;", r.begin));
      if (r.control) {
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
  static std::string u(std::int32_t r) { return strf("u[%d]", r); }
  static std::string vi_ptr(std::int32_t r) {
    return strf("(vi + %d * NI)", r);
  }
  /// Wraps an arithmetic result in the f32 storage round when `rnd`.
  static std::string rnd(bool on, const std::string& e) {
    return on ? "(double)(float)(" + e + ")" : "(" + e + ")";
  }

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

  // ---- run formation -------------------------------------------------------

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

  // ---- prologue / epilogue --------------------------------------------------

  void prologue() {
    raw(strf("// Generated by the gemmtune native backend (emitter v3, "
             "simd w=%d) for\n",
             simd_));
    raw("// kernel '" + k_.name + "'. Mirrors kernelir/vm.cpp semantics;\n"
        "// straight-line runs execute item-major (see native_emit.cpp).\n");
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

  void emit_run(const Run& r) {
    line("{");
    pad_ = "  ";
    for (const std::size_t pc : r.pre) emit_uniform(p_.code[pc]);
    pad_.clear();
    if (!r.body.empty()) {
      for (const std::int32_t reg : r.u_reads)
        line(strf("  const long long u%d = u[%d];", reg, reg));
      for (const auto& [a, f32] : r.gargs)
        line(strf("  %s* const gp%d = %s[%d]; const long long en%d = "
                  "arg_elems[%d];",
                  f32 ? "float" : "double", a, f32 ? "arg_f32" : "arg_f64",
                  a, a, a));
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
      const char* items = r.masked ? "active" : "NI";
      const std::pair<const char*, unsigned long long> sums[] = {
          {"c_flops", r.flops}, {"c_mads", r.mads}, {"c_gld", r.gld},
          {"c_gst", r.gst},     {"c_lld", r.lld},   {"c_lst", r.lst}};
      for (const auto& [counter, n] : sums)
        if (n != 0)
          line(strf("  %s += %lluULL * (unsigned long long)%s;", counter, n,
                    items));
    }
    pad_ = "  ";
    for (const std::size_t pc : r.post) emit_uniform(p_.code[pc]);
    pad_.clear();
    line("}");
  }

  // ---- per-item translation (into run_->code) ------------------------------

  void stmt(const std::string& s) {
    run_->code += "      ";
    run_->code += s;
    run_->code += '\n';
  }
  /// Records a read of `v` and returns its local.
  std::string rd(const Val& v) {
    if (run_->writes.count(v) == 0) run_->loads.insert(v);
    run_->private_slab |= v.kind == 'p';
    return name(v);
  }
  /// Records a write of `v` and returns its local. Statements call rd()
  /// for every operand before wr() for the destination.
  std::string wr(const Val& v) {
    run_->writes.insert(v);
    run_->private_slab |= v.kind == 'p';
    return name(v);
  }
  std::string rd_v(std::int32_t r) { return rd(Val{'v', r, 0}); }
  std::string wr_v(std::int32_t r) { return wr(Val{'v', r, 0}); }
  std::string rd_f(std::int32_t base, int lane) {
    return rd(Val{'f', base, lane});
  }
  std::string wr_f(std::int32_t base, int lane) {
    return wr(Val{'f', base, lane});
  }
  /// Slot `off` of private array `arr` (its offset in the item's slab).
  std::string rd_p(std::int32_t arr, std::int64_t off) {
    if (slab_arrays_.count(arr) != 0) return pp(off);
    return rd(Val{'p', static_cast<std::int32_t>(off), 0});
  }
  std::string wr_p(std::int32_t arr, std::int64_t off) {
    if (slab_arrays_.count(arr) != 0) return pp(off);
    return wr(Val{'p', static_cast<std::int32_t>(off), 0});
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
    return uniform ? uni(r) : rd_v(r);
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
    if (run_->alone)
      return strf("{ f_ord = %zu; f_val = %s; break; }", pc, val.c_str());
    return strf("{ if (%zu < f_ord) { f_ord = %zu; f_val = %s; } continue; }",
                pc, pc, val.c_str());
  }

  void item_code(const Insn& in, std::size_t pc) {
    const int w = in.lanes;
    switch (in.op) {
      case Op::VBuiltin: {
        const int dim = in.aux & 1;
        const auto fn = static_cast<BuiltinFn>(in.aux >> 1);
        std::string e;
        if (fn == BuiltinFn::LocalId) {
          e = dim == 0 ? "t % LSX" : "t / LSX";
        } else if (fn == BuiltinFn::GlobalId) {
          e = dim == 0 ? "gx * LSX + t % LSX" : "gy * LSY + t / LSX";
        } else {
          e = builtin_expr(in.aux);
        }
        stmt(wr_v(in.dst) + " = " + e + ";");
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
          case Op::VLt: e = "(" + x + " < " + y + ") ? 1 : 0"; break;
          default:
            e = "(" + x + " != 0 && " + y + " != 0) ? 1 : 0";
            break;
        }
        stmt(wr_v(in.dst) + " = " + e + ";");
        return;
      }
      case Op::VDiv:
      case Op::VMod: {
        const bool div = in.op == Op::VDiv;
        const std::string x = int_operand(in.a, (in.flags & kAUni) != 0);
        const std::string y = int_operand(in.b, (in.flags & kBUni) != 0);
        stmt("{ const long long y_ = " + y + ";");
        stmt("  if (y_ == 0) " +
             fault(pc, "0",
                   fail_msg(div ? "interp: integer division by zero"
                                : "interp: integer modulo by zero")));
        stmt("  " + wr_v(in.dst) + " = " + x + (div ? " / y_; }" : " % y_; }"));
        return;
      }
      case Op::VMovU: {
        const std::string x = uni(in.a);
        stmt(wr_v(in.dst) + " = " + x + ";");
        return;
      }
      case Op::VMov: {
        const std::string x = rd_v(in.a);
        stmt(wr_v(in.dst) + " = " + x + ";");
        return;
      }
      case Op::FConst:
        for (int l = 0; l < w; ++l)
          stmt(wr_f(in.dst, l) +
               strf(" = kFpool.v[%lld];", static_cast<long long>(in.imm) + l));
        return;
      case Op::FArg: {
        const std::string x = strf("arg_f[%d]", in.a);
        stmt(wr_f(in.dst, 0) + " = " +
             ((in.aux & kRoundF32) ? "(double)(float)" + x : x) + ";");
        for (int l = 1; l < w; ++l) stmt(wr_f(in.dst, l) + " = 0.0;");
        return;
      }
      case Op::FMov: {
        const int dw = in.b, n = in.lanes;
        for (int l = 0; l < n; ++l) {
          const std::string x = rd_f(in.a, l);
          stmt(wr_f(in.dst, l) + " = " + x + ";");
        }
        for (int l = n; l < dw; ++l) stmt(wr_f(in.dst, l) + " = 0.0;");
        return;
      }
      case Op::FSplat: {
        stmt("{ const double x_ = " + rd_f(in.a, 0) + ";");
        for (int l = 0; l < w; ++l) stmt("  " + wr_f(in.dst, l) + " = x_;");
        stmt("}");
        return;
      }
      case Op::FLane: {
        const auto ln = static_cast<int>(in.imm);
        const std::string x = ln < in.aux ? rd_f(in.a, ln) : "0.0";
        stmt(wr_f(in.dst, 0) + " = " + x + ";");
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
          stmt(wr_f(in.dst, l) + " = " + rnd(f32, e) + ";");
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
          stmt(wr_p(in.a, coff + l) + " = " + rnd(f32, e) + ";");
        }
        run_->flops += 2ull * static_cast<unsigned long long>(w);
        ++run_->mads;
        return;
      }
      case Op::SplatLaneP: {
        const ArrayRef& ar = p_.arrays[static_cast<std::size_t>(in.a)];
        const std::string x = rd_p(in.a, ar.offset + in.imm);
        for (int l = 0; l < in.b; ++l)
          stmt(wr_f(in.dst, l) + " = " + (l < w ? x : "0.0") + ";");
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
        stmt("{ const long long idx = " + address(in) + ";");
        stmt(strf("  if (idx < 0 || idx + %d > en%d) ", w, in.a) +
             fault(pc, "idx", fails));
        for (int l = 0; l < w; ++l) {
          const std::string g = strf("gp%d[idx + %d]", in.a, l);
          if (store) {
            const std::string x = rd_f(in.c, l);
            stmt("  " + g + " = " + (f32 ? "(float)" + x : x) + ";");
          } else {
            stmt("  " + wr_f(in.dst, l) + " = " + (f32 ? "(double)" + g : g) +
                 ";");
          }
        }
        stmt("}");
        (store ? run_->gst : run_->gld) +=
            static_cast<unsigned long long>(w * (f32 ? 4 : 8));
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
        // Element l of the access at `idx` (a literal when constant).
        const bool imm = (in.flags & kImmAddr) != 0;
        const auto elem = [&](int l, bool write) {
          if (local)
            return imm ? strf("larr[%lld]", static_cast<long long>(
                                                ar.offset + in.imm + l))
                       : strf("larr[%d + idx + %d]", ar.offset, l);
          if (!imm) {
            run_->private_slab = true;
            return strf("pp[%d + idx + %d]", ar.offset, l);
          }
          const long long off = ar.offset + in.imm + l;
          return write ? wr_p(in.a, off) : rd_p(in.a, off);
        };
        if (imm && (in.imm < 0 || in.imm + w > ar.len)) {
          stmt(fault(pc, imm64(in.imm), fails));  // every item faults here
        } else {
          if (!imm) {
            stmt("{ const long long idx = " + address(in) + ";");
            stmt(strf("  if (idx < 0 || idx + %d > %d) ", w, ar.len) +
                 fault(pc, "idx", fails));
          }
          for (int l = 0; l < w; ++l) {
            if (store) {
              const std::string x = rd_f(in.c, l);
              stmt("  " + elem(l, true) + " = " + x + ";");
            } else {
              const std::string x = elem(l, false);
              stmt("  " + wr_f(in.dst, l) + " = " + x + ";");
            }
          }
          if (!imm) stmt("}");
        }
        if (local)
          (store ? run_->lst : run_->lld) += static_cast<unsigned long long>(
              w * ((in.aux & kCount8) ? 8 : 4));
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
  const int simd_;  ///< host vector width in doubles (named in the header)
  std::string out_;
  std::string pad_;  ///< extra indentation of line()
  std::vector<char> is_target_;
  std::map<std::int32_t, int> vfw_;     ///< vf register base -> slab width
  std::set<std::int32_t> slab_arrays_;  ///< private arrays kept in the slab
  std::set<Val> slab_read_;  ///< values some code reads from the slabs
  Run* run_ = nullptr;       ///< the run being translated
};

}  // namespace

std::string emit_native_source(const Kernel& kernel,
                               const CompiledKernel& prog, int simd_width) {
  Emitter e(kernel, prog, simd_width);
  return e.run();
}

}  // namespace gemmtune::ir
