// Bytecode -> specialized C++ translator for the native backend.
//
// The emitter walks the CompiledKernel instruction stream once and prints
// one C++ block per instruction, mirroring vm.cpp's semantics op for op:
// the same evaluation order, the same counter increments, the same error
// messages. Every operand field (register slots, lane counts, array
// offsets, immediates, flags) is printed as a literal, so the host
// compiler sees straight-line code over flat arrays with constant strides
// — the per-instruction dispatch and operand resolution the VM pays at
// run time all happens here, at emit time. Jumps become `goto L<n>;` with
// labels only at jump targets; each instruction body lives in its own
// braces so no goto crosses an initialization.
//
// Floating-point identity with the host-built backends is preserved by
// construction: arithmetic is emitted as the same double expressions the
// VM evaluates (single-precision rounding as a (double)(float)(...) cast),
// constants are reproduced bit-exactly from their IEEE-754 payloads, and
// the JIT compiles with -ffp-contract=off so the host compiler cannot
// fuse a*b+c into an fma the interpreter didn't perform.
//
// The unmasked FP ops are printed as explicit fixed-width vector
// expressions instead of unrolled scalars: lane-major slab regions flatten
// into chunks of the host vector width, and f32 rounding becomes an
// element-wise double->float->double __builtin_convertvector pair inside
// the vector body — the narrowing is pinned per element, so no compiler
// pass can re-associate it and every lane still rounds exactly like the
// VM. Masked ops and lane counts that are not a vector width keep scalar
// statement bodies.
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

class Emitter {
 public:
  Emitter(const Kernel& k, const CompiledKernel& p, int simd_width)
      : k_(k), p_(p), simd_(simd_width) {
    check(vectorizable_width(simd_), "native emit: unsupported SIMD width");
  }

  std::string run() {
    collect_labels();
    collect_splat_elisions();
    collect_fusions();
    collect_vector_widths();
    prologue();
    for (std::size_t i = 0; i < p_.code.size(); ++i) {
      if (is_target_[i]) line(strf("L%zu:;", i));
      if (fused_skip_.count(i) != 0) continue;  // folded into the next insn
      const auto f = fused_.find(i);
      if (f != fused_.end()) {
        emit_fused(p_.code[f->second], p_.code[i]);
        continue;
      }
      emit_insn(p_.code[i], i);
    }
    // A well-formed program ends in Halt, but guard the fall-through.
    line("goto L_done;");
    epilogue();
    return std::move(out_);
  }

 private:
  // ---- small formatting helpers ---------------------------------------------

  void line(const std::string& s) {
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
  static std::string vf_ptr(std::int32_t base) {
    return strf("(vf + %d * NI)", base);
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

  /// Finds f-registers whose every writer is a SplatLaneP of identical
  /// shape (same copied-lane count w < register width dw) and that live
  /// inside the per-group zeroed slab prefix. Their upper lanes are zero
  /// at every program point — the memset establishes it and each write
  /// re-establishes it — so the per-write zero-fill only ever rewrites
  /// zeros and can be dropped. This matters: GEMM inner loops pair each
  /// FmaPP with a SplatLaneP into a wide accumulator-shaped register, and
  /// the dead zero stores otherwise dominate the splat's memory traffic.
  void collect_splat_elisions() {
    std::map<std::int32_t, std::pair<int, int>> shape;  // base -> (w, dw)
    std::set<std::int32_t> bad;
    for (const Insn& in : p_.code) {
      switch (in.op) {
        case Op::SplatLaneP: {
          const auto s = std::make_pair(static_cast<int>(in.lanes),
                                        static_cast<int>(in.b));
          const auto [it, fresh] = shape.emplace(in.dst, s);
          if (!fresh && it->second != s) bad.insert(in.dst);
          break;
        }
        // Every other way an f-register can be written disqualifies it.
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
        case Op::LoadP:
          bad.insert(in.dst);
          break;
        default:
          break;
      }
    }
    for (const auto& [base, s] : shape) {
      if (bad.count(base) != 0) continue;
      if (s.first >= s.second) continue;            // no fill to elide
      if (base + s.second > p_.n_vf_vars) continue;  // outside zeroed prefix
      splat_zero_elide_.insert(base);
    }
  }

  /// Appends the f-register bases instruction `in` reads.
  static void freg_reads(const Insn& in, std::vector<std::int32_t>* out) {
    switch (in.op) {
      case Op::FMov:
      case Op::FSplat:
      case Op::FLane:
        out->push_back(in.a);
        break;
      case Op::FAdd:
      case Op::FSub:
      case Op::FMul:
        out->push_back(in.a);
        out->push_back(in.b);
        break;
      case Op::FMad:
        out->push_back(in.a);
        out->push_back(in.b);
        out->push_back(in.c);
        break;
      case Op::FmaPP:
      case Op::StoreG:
      case Op::StoreL:
      case Op::StoreP:
        out->push_back(in.c);
        break;
      default:
        break;
    }
  }

  /// Finds producer/consumer pairs whose intermediate register is dead —
  /// SplatLaneP feeding the adjacent FmaPP, and a local/private/global
  /// load feeding the adjacent local/private store. Registers are not
  /// observable (only buffers, counters and error text are), so when
  /// every read of the intermediate register is one of these adjacent
  /// consumers, the producer is folded into the consumer: the FmaPP
  /// broadcasts the splat source directly, and the load/store pair
  /// becomes one copy loop without the register round-trip. Fusing needs
  /// the consumer to not be a jump target (entering mid-pair would skip
  /// the producer). Cross-item hazards rule out same-array local copies:
  /// the VM completes every item's load before the first store, and the
  /// fused loop interleaves them, which only a shared overlapping range
  /// could observe (private slabs are per-item, globals are load-only
  /// here, and distinct arrays occupy disjoint slab ranges).
  void collect_fusions() {
    std::map<std::int32_t, std::vector<std::size_t>> cand;
    for (std::size_t i = 0; i + 1 < p_.code.size(); ++i) {
      if (is_target_[i + 1]) continue;
      const Insn& a = p_.code[i];
      const Insn& b = p_.code[i + 1];
      if (a.op == Op::SplatLaneP && b.op == Op::FmaPP && b.c == a.dst &&
          (b.aux >> 3) == a.b && b.lanes <= a.lanes) {
        cand[a.dst].push_back(i);
        continue;
      }
      const bool a_load = a.op == Op::LoadL || a.op == Op::LoadP ||
                          (a.op == Op::LoadG && !(a.aux & kElemF32));
      const bool b_store = b.op == Op::StoreL || b.op == Op::StoreP;
      if (a_load && b_store && b.c == a.dst && b.lanes == a.lanes &&
          !(a.flags & kMasked) && !(b.flags & kMasked)) {
        const bool a_local = a.op == Op::LoadL;
        const bool b_local = b.op == Op::StoreL;
        if (a_local && b_local && a.a == b.a) continue;  // may overlap
        cand[a.dst].push_back(i);
      }
    }
    for (const auto& [reg, producers] : cand) {
      std::set<std::size_t> consumers;
      for (const std::size_t i : producers) consumers.insert(i + 1);
      bool dead = true;
      for (std::size_t j = 0; j < p_.code.size() && dead; ++j) {
        std::vector<std::int32_t> rs;
        freg_reads(p_.code[j], &rs);
        for (const std::int32_t r : rs)
          if (r == reg && consumers.count(j) == 0) {
            dead = false;
            break;
          }
      }
      if (!dead) continue;
      for (const std::size_t i : producers) {
        fused_skip_.insert(i);
        fused_[i + 1] = i;
      }
    }
  }

  /// True when a lane count can be a GCC vector width (power of two, up
  /// to 16 doubles — 128 bytes, which GCC synthesizes on any target).
  static bool vectorizable_width(int w) {
    return w == 2 || w == 4 || w == 8 || w == 16;
  }

  /// Collects the vector widths the SIMD emission will reference, so the
  /// prologue defines exactly those typedefs/helpers: the host chunk
  /// width for the flattened unmasked FP ops, plus each FmaPP register
  /// width (its lanes are processed as one vector per work-item), plus
  /// the lane counts of unmasked memory ops whose per-item copies become
  /// one vector load/store pair (f64 only for the global ops — the f32
  /// paths convert element widths and stay scalar).
  void collect_vector_widths() {
    vwidths_.insert(simd_);
    for (const Insn& in : p_.code) {
      if (in.op == Op::SplatLaneP && vectorizable_width(in.b))
        vwidths_.insert(static_cast<int>(in.b));
      if (!vectorizable_width(in.lanes)) continue;
      switch (in.op) {
        case Op::FmaPP:
        case Op::SplatLaneP:
          vwidths_.insert(static_cast<int>(in.lanes));
          break;
        case Op::LoadL:
        case Op::StoreL:
        case Op::LoadP:
        case Op::StoreP:
          if (!(in.flags & kMasked))
            vwidths_.insert(static_cast<int>(in.lanes));
          break;
        case Op::LoadG:
          if (!(in.flags & kMasked) && !(in.aux & kElemF32))
            vwidths_.insert(static_cast<int>(in.lanes));
          break;
        default:
          break;
      }
    }
  }

  // ---- prologue / epilogue --------------------------------------------------

  void prologue() {
    raw(strf("// Generated by the gemmtune native backend (emitter v2, "
             "simd w=%d) for\n",
             simd_));
    raw("// kernel '" + k_.name + "'. Mirrors kernelir/vm.cpp semantics.\n");
    raw("#include <cstddef>\n#include <cstdio>\n#include <cstring>\n\n");
    // Fixed-width vector lanes (GCC/Clang vector extensions). Loads and
    // stores go through memcpy so the slab pointers need no alignment;
    // rndN converts every lane double->float->double individually
    // (__builtin_convertvector is an element-wise IEEE conversion), which
    // is exactly the VM's (double)(float) rounding chain — no
    // re-association is possible because the narrowing is explicit per
    // element inside the vector body.
    raw("namespace {\n");
    for (const int vw : vwidths_) {
      raw(strf("typedef double vd%d __attribute__((vector_size(%d)));\n",
               vw, 8 * vw));
      raw(strf("typedef float vs%d __attribute__((vector_size(%d)));\n",
               vw, 4 * vw));
      raw(strf("inline vd%d ld%d(const double* p) "
               "{ vd%d v; __builtin_memcpy(&v, p, sizeof v); return v; }\n",
               vw, vw, vw));
      raw(strf("inline void st%d(double* p, vd%d v) "
               "{ __builtin_memcpy(p, &v, sizeof v); }\n",
               vw, vw));
      raw(strf("inline vd%d rnd%d(vd%d v) "
               "{ return __builtin_convertvector("
               "__builtin_convertvector(v, vs%d), vd%d); }\n",
               vw, vw, vw, vw, vw));
      raw(strf("typedef long long vl%d __attribute__((vector_size(%d)));\n",
               vw, 8 * vw));
      raw(strf("inline vl%d ldi%d(const long long* p) "
               "{ vl%d v; __builtin_memcpy(&v, p, sizeof v); return v; }\n",
               vw, vw, vw));
      raw(strf("inline void sti%d(long long* p, vl%d v) "
               "{ __builtin_memcpy(p, &v, sizeof v); }\n",
               vw, vw));
    }
    raw("}  // namespace\n\n");
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
    // per call and reused across the whole group range.
    line(strf("long long* const u = new long long[%d];",
              p_.n_u > 0 ? p_.n_u : 1));
    line(strf("long long* const vi = new long long[(std::size_t)(%d * NI)"
              " + 1];",
              p_.n_vi));
    line(strf("double* const vf = new double[(std::size_t)(%d * NI) + 1];",
              p_.n_vf));
    line(strf("double* const parr = new double[(std::size_t)(%lld * NI)"
              " + 1];",
              static_cast<long long>(p_.parr_doubles)));
    line(strf("double* const larr = new double[%lld];",
              static_cast<long long>(p_.larr_doubles) + 1));
    line("unsigned char* const mask = new unsigned char[(std::size_t)NI];");
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

  // ---- per-instruction translation ------------------------------------------

  /// Opens a `for (t ...)` over the work-items, with the mask test when
  /// the instruction honours divergence.
  std::string t_loop_open(bool masked) const {
    std::string s = "for (long long t = 0; t < NI; ++t) { ";
    if (masked) s += "if (!mask[t]) continue; ";
    return s;
  }

  void emit_insn(const Insn& in, std::size_t pc) {
    const bool masked = (in.flags & kMasked) != 0;
    const int w = in.lanes;
    switch (in.op) {
      case Op::Halt:
        line("goto L_done;");
        return;
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
        line("  " + u(in.dst) + " = " + u(in.a) + (div ? " / d; }" : " % d; }"));
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
      case Op::VBuiltin: {
        const int dim = in.aux & 1;
        const auto fn = static_cast<BuiltinFn>(in.aux >> 1);
        std::string expr;
        if (fn == BuiltinFn::LocalId) {
          expr = dim == 0 ? "t % LSX" : "t / LSX";
        } else if (fn == BuiltinFn::GlobalId) {
          expr = dim == 0 ? "gx * LSX + t % LSX" : "gy * LSY + t / LSX";
        } else {
          expr = builtin_expr(in.aux);
        }
        line("{ long long* const dst = " + vi_ptr(in.dst) + ";");
        line("  " + t_loop_open(false) + "dst[t] = " + expr + "; } }");
        return;
      }
      case Op::VAdd:
      case Op::VSub:
      case Op::VMul:
      case Op::VLt:
      case Op::VAnd: {
        std::string xa, xb;
        line("{ long long* const dst = " + vi_ptr(in.dst) + ";");
        if (in.flags & kAUni) {
          line("  const long long xa = " + u(in.a) + ";");
          xa = "xa";
        } else {
          line("  const long long* const pa = " + vi_ptr(in.a) + ";");
          xa = "pa[t]";
        }
        if (in.flags & kBUni) {
          line("  const long long xb = " + u(in.b) + ";");
          xb = "xb";
        } else {
          line("  const long long* const pb = " + vi_ptr(in.b) + ";");
          xb = "pb[t]";
        }
        std::string expr;
        switch (in.op) {
          case Op::VAdd: expr = xa + " + " + xb; break;
          case Op::VSub: expr = xa + " - " + xb; break;
          case Op::VMul: expr = xa + " * " + xb; break;
          case Op::VLt: expr = "(" + xa + " < " + xb + ") ? 1 : 0"; break;
          default:
            expr = "(" + xa + " != 0 && " + xb + " != 0) ? 1 : 0";
            break;
        }
        // Explicit vectors: integer lane arithmetic is exact, and vector
        // compares yield 0/-1 per lane, masked down to the 0/1 the scalar
        // ?: forms produce. Uniform operands splat once.
        const std::string va =
            (in.flags & kAUni) ? "uva" : strf("ldi%d(pa + t)", simd_);
        const std::string vb =
            (in.flags & kBUni) ? "uvb" : strf("ldi%d(pb + t)", simd_);
        std::string vexpr;
        switch (in.op) {
          case Op::VAdd: vexpr = va + " + " + vb; break;
          case Op::VSub: vexpr = va + " - " + vb; break;
          case Op::VMul: vexpr = va + " * " + vb; break;
          case Op::VLt: vexpr = "((" + va + " < " + vb + ") & 1)"; break;
          default:
            vexpr = "(((" + va + " != 0) & (" + vb + " != 0)) & 1)";
            break;
        }
        if (in.flags & kAUni)
          line(strf("  const vl%d uva = ", simd_) + splat_list("xa", simd_) +
               ";");
        if (in.flags & kBUni)
          line(strf("  const vl%d uvb = ", simd_) + splat_list("xb", simd_) +
               ";");
        line("  long long t = 0;");
        line(strf("  for (; t + %d <= NI; t += %d) sti%d(dst + t, ", simd_,
                  simd_, simd_) +
             vexpr + ");");
        line("  for (; t < NI; ++t) dst[t] = " + expr + ";");
        line("}");
        return;
      }
      case Op::VDiv:
      case Op::VMod: {
        const bool div = in.op == Op::VDiv;
        std::string xa, xb;
        line("{ long long* const dst = " + vi_ptr(in.dst) + ";");
        if (in.flags & kAUni) {
          line("  const long long xa = " + u(in.a) + ";");
          xa = "xa";
        } else {
          line("  const long long* const pa = " + vi_ptr(in.a) + ";");
          xa = "pa[t]";
        }
        if (in.flags & kBUni) {
          line("  const long long xb = " + u(in.b) + ";");
          xb = "xb";
        } else {
          line("  const long long* const pb = " + vi_ptr(in.b) + ";");
          xb = "pb[t]";
        }
        line("  " + t_loop_open(masked));
        line("    const long long y = " + xb + ";");
        line("    if (y == 0) " +
             fail_msg(div ? "interp: integer division by zero"
                          : "interp: integer modulo by zero"));
        line("    dst[t] = " + xa + (div ? " / y; } }" : " % y; } }"));
        return;
      }
      case Op::VMovU:
        line("{ long long* const dst = " + vi_ptr(in.dst) + ";");
        line("  const long long v = " + u(in.a) + ";");
        if (!masked) {
          line(strf("  const vl%d vv = ", simd_) + splat_list("v", simd_) +
               ";");
          line("  long long t = 0;");
          line(strf("  for (; t + %d <= NI; t += %d) sti%d(dst + t, vv);",
                    simd_, simd_, simd_));
          line("  for (; t < NI; ++t) dst[t] = v;");
          line("}");
          return;
        }
        line("  " + t_loop_open(masked) + "dst[t] = v; } }");
        return;
      case Op::VMov:
        line("{ long long* const dst = " + vi_ptr(in.dst) + ";");
        line("  const long long* const src = " + vi_ptr(in.a) + ";");
        if (!masked) {
          // A register-to-register move is one contiguous slab copy.
          line("  __builtin_memcpy(dst, src, sizeof(long long) * "
               "(std::size_t)NI);");
          line("}");
          return;
        }
        line("  " + t_loop_open(masked) + "dst[t] = src[t]; } }");
        return;
      case Op::FConst: {
        line("{ double* const dst = " + vf_ptr(in.dst) + ";");
        line("  " + t_loop_open(false));
        for (int l = 0; l < w; ++l)
          line(strf("    dst[t * %d + %d] = kFpool.v[%lld];", w, l,
                    static_cast<long long>(in.imm) + l));
        line("  } }");
        return;
      }
      case Op::FArg: {
        line("{ double* const dst = " + vf_ptr(in.dst) + ";");
        line(strf("  double x = arg_f[%d];", in.a));
        if (in.aux & kRoundF32) line("  x = (double)(float)x;");
        line("  " + t_loop_open(false));
        line(strf("    dst[t * %d] = x;", w));
        for (int l = 1; l < w; ++l)
          line(strf("    dst[t * %d + %d] = 0.0;", w, l));
        line("  } }");
        return;
      }
      case Op::FMov: {
        const int dw = in.b, sw = in.c, n = in.lanes;
        line("{ double* const dst = " + vf_ptr(in.dst) + ";");
        line("  const double* const src = " + vf_ptr(in.a) + ";");
        if (!masked && n == dw && n == sw) {
          // Full-width register move: one contiguous slab copy.
          line(strf("  __builtin_memcpy(dst, src, sizeof(double) * "
                    "(std::size_t)(%d * NI));",
                    n));
          line("}");
          return;
        }
        line("  " + t_loop_open(masked));
        for (int l = 0; l < n; ++l)
          line(strf("    dst[t * %d + %d] = src[t * %d + %d];", dw, l, sw, l));
        for (int l = n; l < dw; ++l)
          line(strf("    dst[t * %d + %d] = 0.0;", dw, l));
        line("  } }");
        return;
      }
      case Op::FSplat: {
        const int sw = in.aux;
        line("{ double* const dst = " + vf_ptr(in.dst) + ";");
        line("  const double* const src = " + vf_ptr(in.a) + ";");
        line("  " + t_loop_open(false));
        line(strf("    const double x = src[t * %d];", sw));
        for (int l = 0; l < w; ++l)
          line(strf("    dst[t * %d + %d] = x;", w, l));
        line("  } }");
        return;
      }
      case Op::FLane: {
        const int sw = in.aux;
        const auto ln = static_cast<int>(in.imm);
        line("{ double* const dst = " + vf_ptr(in.dst) + ";");
        line("  const double* const src = " + vf_ptr(in.a) + ";");
        if (ln < sw) {
          line("  " + t_loop_open(false) +
               strf("dst[t] = src[t * %d + %d]; } }", sw, ln));
        } else {
          line("  (void)src;");
          line("  " + t_loop_open(false) + "dst[t] = 0.0; } }");
        }
        return;
      }
      case Op::FAdd:
      case Op::FSub:
      case Op::FMul: {
        const bool f32 = (in.aux & kRoundF32) != 0;
        const char* op = in.op == Op::FAdd ? "+" : in.op == Op::FSub ? "-"
                                                                     : "*";
        if (!masked) {
          // Lane-wise over the whole register slab: lanes of consecutive
          // work-items are contiguous (vf[base*NI + t*w + l]), so the
          // t/l loops flatten into one run of w*NI doubles chunked at
          // the host vector width with a scalar tail.
          line("{ double* const dst = " + vf_ptr(in.dst) + ";");
          line("  const double* const a = " + vf_ptr(in.a) + ";");
          line("  const double* const b = " + vf_ptr(in.b) + ";");
          line(strf("  const long long ne = (long long)%d * NI;", w));
          line("  long long i = 0;");
          line(strf("  for (; i + %d <= ne; i += %d) {", simd_, simd_));
          const std::string ve =
              strf("ld%d(a + i) %s ld%d(b + i)", simd_, op, simd_);
          line(strf("    st%d(dst + i, ", simd_) +
               (f32 ? strf("rnd%d(", simd_) + ve + ")" : ve) + ");");
          line("  }");
          line("  for (; i < ne; ++i) dst[i] = " +
               rnd(f32, strf("a[i] %s b[i]", op)) + ";");
          line(strf("  c_flops += (unsigned long long)(%d * NI);", w));
          line("}");
          return;
        }
        line("{ double* const dst = " + vf_ptr(in.dst) + ";");
        line("  const double* const a = " + vf_ptr(in.a) + ";");
        line("  const double* const b = " + vf_ptr(in.b) + ";");
        line("  " + t_loop_open(masked));
        for (int l = 0; l < w; ++l) {
          const std::string e = strf("a[t * %d + %d] %s b[t * %d + %d]", w, l,
                                     op, w, l);
          line(strf("    dst[t * %d + %d] = ", w, l) + rnd(f32, e) + ";");
        }
        if (masked) line(strf("    c_flops += %d;", w));
        line("  }");
        if (!masked)
          line(strf("  c_flops += (unsigned long long)(%d * NI);", w));
        line("}");
        return;
      }
      case Op::FMad: {
        const bool f32 = (in.aux & kRoundF32) != 0;
        if (!masked) {
          line("{ double* const dst = " + vf_ptr(in.dst) + ";");
          line("  const double* const a = " + vf_ptr(in.a) + ";");
          line("  const double* const b = " + vf_ptr(in.b) + ";");
          line("  const double* const c = " + vf_ptr(in.c) + ";");
          line(strf("  const long long ne = (long long)%d * NI;", w));
          line("  long long i = 0;");
          line(strf("  for (; i + %d <= ne; i += %d) {", simd_, simd_));
          const std::string ve =
              strf("ld%d(a + i) * ld%d(b + i) + ld%d(c + i)", simd_, simd_,
                   simd_);
          line(strf("    st%d(dst + i, ", simd_) +
               (f32 ? strf("rnd%d(", simd_) + ve + ")" : ve) + ");");
          line("  }");
          line("  for (; i < ne; ++i) dst[i] = " +
               rnd(f32, "a[i] * b[i] + c[i]") + ";");
          line(strf("  c_flops += (unsigned long long)(%d * NI); "
                    "c_mads += (unsigned long long)NI;",
                    2 * w));
          line("}");
          return;
        }
        line("{ double* const dst = " + vf_ptr(in.dst) + ";");
        line("  const double* const a = " + vf_ptr(in.a) + ";");
        line("  const double* const b = " + vf_ptr(in.b) + ";");
        line("  const double* const c = " + vf_ptr(in.c) + ";");
        line("  " + t_loop_open(masked));
        for (int l = 0; l < w; ++l) {
          const std::string e =
              strf("a[t * %d + %d] * b[t * %d + %d] + c[t * %d + %d]", w, l, w,
                   l, w, l);
          line(strf("    dst[t * %d + %d] = ", w, l) + rnd(f32, e) + ";");
        }
        if (masked) line(strf("    c_flops += %d; ++c_mads;", 2 * w));
        line("  }");
        if (!masked)
          line(strf("  c_flops += (unsigned long long)(%d * NI); "
                    "c_mads += (unsigned long long)NI;",
                    2 * w));
        line("}");
        return;
      }
      case Op::FmaPP: {
        // Never masked (only fused inside uniform inner loops); see vm.cpp.
        const ArrayRef& cr = p_.arrays[static_cast<std::size_t>(in.a)];
        const ArrayRef& br = p_.arrays[static_cast<std::size_t>(in.b)];
        const bool f32 = (in.aux & kRoundF32) != 0;
        const int stride = in.aux >> 3;
        const long long coff = cr.offset + in.dst;
        const long long boff = br.offset + in.imm;
        line("{ const double* const av = " + vf_ptr(in.c) + ";");
        line("  " + t_loop_open(false));
        line(strf("    double* const pa = parr + t * %lld;",
                  static_cast<long long>(p_.parr_doubles)));
        line(strf("    double* const cp = pa + %lld;", coff));
        line(strf("    const double* const bp = pa + %lld;", boff));
        line(strf("    const double* const ap = av + t * %d;", stride));
        if (vectorizable_width(w)) {
          // One vector per work-item: the register width is the vector
          // width, so the whole rank-1 update step is a single
          // load/fma-shaped/store sequence (unfused: contraction is off).
          const std::string ve =
              strf("ld%d(ap) * ld%d(bp) + ld%d(cp)", w, w, w);
          line(strf("    st%d(cp, ", w) +
               (f32 ? strf("rnd%d(", w) + ve + ")" : ve) + ");");
        } else {
          for (int l = 0; l < w; ++l) {
            const std::string e = strf("ap[%d] * bp[%d] + cp[%d]", l, l, l);
            line(strf("    cp[%d] = ", l) + rnd(f32, e) + ";");
          }
        }
        line("  }");
        line(strf("  c_flops += (unsigned long long)(%d * NI); "
                  "c_mads += (unsigned long long)NI;",
                  2 * w));
        line("}");
        return;
      }
      case Op::SplatLaneP: {
        const ArrayRef& ar = p_.arrays[static_cast<std::size_t>(in.a)];
        const int dw = in.b;
        const long long off = ar.offset + in.imm;
        const bool elide = splat_zero_elide_.count(in.dst) != 0;
        line("{ double* const dst = " + vf_ptr(in.dst) + ";");
        line("  " + t_loop_open(false));
        line(strf("    const double x = parr[t * %lld + %lld];",
                  static_cast<long long>(p_.parr_doubles), off));
        if (!elide && vectorizable_width(dw)) {
          // One full-width store covers the splat lanes and the zero fill.
          std::string init = "{";
          for (int l = 0; l < dw; ++l) {
            if (l) init += ", ";
            init += l < w ? "x" : "0.0";
          }
          line(strf("    const vd%d vx = ", dw) + init + "};");
          line(strf("    st%d(dst + t * %d, vx);", dw, dw));
        } else if (vectorizable_width(w)) {
          line(strf("    const vd%d vx = ", w) + splat_list("x", w) + ";");
          line(strf("    st%d(dst + t * %d, vx);", w, dw));
          if (!elide)
            for (int l = w; l < dw; ++l)
              line(strf("    dst[t * %d + %d] = 0.0;", dw, l));
        } else {
          for (int l = 0; l < w; ++l)
            line(strf("    dst[t * %d + %d] = x;", dw, l));
          if (!elide)
            for (int l = w; l < dw; ++l)
              line(strf("    dst[t * %d + %d] = 0.0;", dw, l));
        }
        line("  } }");
        return;
      }
      case Op::LoadG:
      case Op::StoreG: {
        const bool is_store = in.op == Op::StoreG;
        const bool f32 = (in.aux & kElemF32) != 0;
        const int ebytes = f32 ? 4 : 8;
        line(strf("{ %s* const gp = %s[%d];", f32 ? "float" : "double",
                  f32 ? "arg_f32" : "arg_f64", in.a));
        line(strf("  const long long en = arg_elems[%d];", in.a));
        emit_addr(in);
        if (is_store) {
          line("  const double* const val = " + vf_ptr(in.c) + ";");
        } else {
          line("  double* const dst = " + vf_ptr(in.dst) + ";");
        }
        const std::string gfails =
            fail_stmt(cstr(strf("global %s out of range: index %%lld + %d "
                                "lanes, buffer %%lld elements",
                                is_store ? "store" : "load", w)),
                      {"(long long)idx", "(long long)en"});
        if (!masked && !f32 && !is_store && vectorizable_width(w)) {
          // SIMD form, f64 loads only: the destination is scratch, so the
          // hoisted check is invisible on the failure path. Stores stay
          // interleaved — a faulting launch must leave the user's buffer
          // with exactly the partial stores the VM would have done.
          emit_range_check(in, "en", gfails);
          line("  for (long long t = 0; t < NI; ++t) {");
          line("    const long long idx = " + addr_expr(in) + ";");
          line(strf("    st%d(dst + t * %d, ld%d(gp + idx));", w, w, w));
          line("  }");
          line(strf("  c_gld += (unsigned long long)(%d * NI);", w * ebytes));
          line("}");
          return;
        }
        line("  " + t_loop_open(masked));
        line("    const long long idx = " + addr_expr(in) + ";");
        line(strf("    if (idx < 0 || idx + %d > en) ", w) + gfails);
        for (int l = 0; l < w; ++l) {
          if (is_store) {
            line(f32 ? strf("    gp[idx + %d] = (float)val[t * %d + %d];", l,
                            w, l)
                     : strf("    gp[idx + %d] = val[t * %d + %d];", l, w, l));
          } else {
            line(f32 ? strf("    dst[t * %d + %d] = (double)gp[idx + %d];", w,
                            l, l)
                     : strf("    dst[t * %d + %d] = gp[idx + %d];", w, l, l));
          }
        }
        if (masked)
          line(strf("    %s += %d;", is_store ? "c_gst" : "c_gld",
                    w * ebytes));
        line("  }");
        if (!masked)
          line(strf("  %s += (unsigned long long)(%d * NI);",
                    is_store ? "c_gst" : "c_gld", w * ebytes));
        line("}");
        return;
      }
      case Op::LoadL:
      case Op::StoreL:
      case Op::LoadP:
      case Op::StoreP: {
        const bool is_store = in.op == Op::StoreL || in.op == Op::StoreP;
        const bool local = in.op == Op::LoadL || in.op == Op::StoreL;
        const ArrayRef& ar = p_.arrays[static_cast<std::size_t>(in.a)];
        const int bytes = w * ((in.aux & kCount8) ? 8 : 4);
        line("{");
        emit_addr(in);
        if (is_store) {
          line("  const double* const val = " + vf_ptr(in.c) + ";");
        } else {
          line("  double* const dst = " + vf_ptr(in.dst) + ";");
        }
        const std::string fails = fail_stmt(
            cstr(strf("%s array '%%s' %s out of range: index %%lld + %d "
                      "lanes, %%zu elements",
                      local ? "local" : "private", is_store ? "store" : "load",
                      w)),
            {cstr(ar.name), "(long long)idx", strf("(std::size_t)%d", ar.len)});
        const std::string slab =
            local ? strf("larr + %d", ar.offset)
                  : strf("parr + t * %lld + %d",
                         static_cast<long long>(p_.parr_doubles), ar.offset);
        if (!masked && vectorizable_width(w)) {
          // SIMD form: the bounds check is hoisted out of the copy loop
          // (constant/uniform addresses check once; varying addresses
          // OR-reduce, with an exact scalar re-scan on the failure path so
          // the first-faulting item's message matches the VM). The copies
          // target scratch slabs only, so the split is invisible: a failed
          // launch throws and every slab and counter dies with it. The
          // branch-free copy loop is then one vector load/store per item.
          emit_range_check(in, strf("%d", ar.len), fails);
          line("  for (long long t = 0; t < NI; ++t) {");
          line("    const long long idx = " + addr_expr(in) + ";");
          line(strf("    %s* const p = (%s) + idx;",
                    is_store ? "double" : "const double", slab.c_str()));
          if (is_store) {
            line(strf("    st%d((double*)p, ld%d(val + t * %d));", w, w, w));
          } else {
            line(strf("    st%d(dst + t * %d, ld%d(p));", w, w, w));
          }
          line("  }");
        } else {
          line("  " + t_loop_open(masked));
          line("    const long long idx = " + addr_expr(in) + ";");
          line(strf("    if (idx < 0 || idx + %d > %d) ", w, ar.len) + fails);
          line(strf("    %s* const p = (%s) + idx;",
                    is_store ? "double" : "const double", slab.c_str()));
          for (int l = 0; l < w; ++l) {
            if (is_store) {
              line(strf("    ((double*)p)[%d] = val[t * %d + %d];", l, w, l));
            } else {
              line(strf("    dst[t * %d + %d] = p[%d];", w, l, l));
            }
          }
          if (local && masked)
            line(strf("    %s += %d;", is_store ? "c_lst" : "c_lld", bytes));
          line("  }");
        }
        if (local && !masked)
          line(strf("  %s += (unsigned long long)(%d * NI);",
                    is_store ? "c_lst" : "c_lld", bytes));
        line("}");
        return;
      }
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
        line("  " + t_loop_open(false) +
             "mask[t] = (mask[t] && c[t] != 0) ? 1 : 0; n += mask[t]; }");
        line("  active = n; }");
        return;
      case Op::MaskFlip:
        line("{ const unsigned char* const sv ="
             " mask_saved + (mask_depth - 1) * NI;");
        line("  const long long* const c ="
             " vi + (long long)mask_cond[mask_depth - 1] * NI;");
        line("  long long n = 0;");
        line("  " + t_loop_open(false) +
             "mask[t] = (sv[t] && c[t] == 0) ? 1 : 0; n += mask[t]; }");
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
    }
    fail(strf("native emit: unhandled opcode %d at pc %zu",
              static_cast<int>(in.op), pc));
  }

  /// Emits the hoisted declarations for a memory op's address operand.
  void emit_addr(const Insn& in, const char* sfx = "") {
    if (in.flags & kImmAddr) return;  // constant, inlined at use
    if (in.flags & kBUni) {
      line(strf("  const long long ua%s = %s;", sfx, u(in.b).c_str()));
    } else {
      line(strf("  const long long* const av%s = ", sfx) + vi_ptr(in.b) +
           ";");
    }
  }
  /// Braced initializer splatting `x` across `n` vector lanes.
  static std::string splat_list(const std::string& x, int n) {
    std::string s = "{";
    for (int i = 0; i < n; ++i) {
      if (i) s += ", ";
      s += x;
    }
    return s + "}";
  }

  /// Per-item address expression matching emit_addr().
  static std::string addr_expr(const Insn& in, const char* sfx = "") {
    if (in.flags & kImmAddr) return imm64(in.imm);
    if (in.flags & kBUni) return strf("ua%s", sfx);
    return strf("av%s[t]", sfx);
  }

  /// Hoisted bounds check for the SIMD memory paths: constant and uniform
  /// addresses check once before the copy loop (the compiler folds the
  /// constant form away entirely); varying addresses OR-reduce across the
  /// items — a branch-free loop the vectorizer handles — and re-scan
  /// scalar only on failure, so the message names the first faulting item
  /// exactly as the VM does.
  void emit_range_check(const Insn& in, const std::string& len,
                        const std::string& fails, const char* sfx = "") {
    const int w = in.lanes;
    if (in.flags & (kImmAddr | kBUni)) {
      line(strf("  { const long long idx = %s;", addr_expr(in, sfx).c_str()));
      line(strf("    if (idx < 0 || idx + %d > %s) ", w, len.c_str()) + fails);
      line("  }");
      return;
    }
    line("  { long long bad = 0;");
    line(strf("    vl%d acc = {};", simd_));
    line("    long long t = 0;");
    line(strf("    for (; t + %d <= NI; t += %d) { const vl%d v_ = "
              "ldi%d(av%s + t); acc |= (v_ < 0) | (v_ + %d > %s); }",
              simd_, simd_, simd_, simd_, sfx, w, len.c_str()));
    line(strf("    for (; t < NI; ++t) bad |= "
              "(long long)(av%s[t] < 0) | (long long)(av%s[t] + %d > %s);",
              sfx, sfx, w, len.c_str()));
    for (int l = 0; l < simd_; ++l)
      line(strf("    bad |= acc[%d];", l));
    line("    if (bad) for (long long t2 = 0; t2 < NI; ++t2) {");
    line(strf("      const long long idx = av%s[t2];", sfx));
    line(strf("      if (idx < 0 || idx + %d > %s) ", w, len.c_str()) + fails);
    line("    }");
    line("  }");
  }

  void emit_fused(const Insn& prod, const Insn& cons) {
    if (prod.op == Op::SplatLaneP) {
      emit_fused_splat_fma(prod, cons);
    } else {
      emit_fused_copy(prod, cons);
    }
  }

  /// SplatLaneP + FmaPP with a dead intermediate register: the rank-1
  /// update broadcasts the splat source directly. Within one item the
  /// splat read still precedes the FmaPP write, and items touch only
  /// their own private slab, so evaluation order is unchanged.
  void emit_fused_splat_fma(const Insn& sp, const Insn& fm) {
    const ArrayRef& sar = p_.arrays[static_cast<std::size_t>(sp.a)];
    const ArrayRef& cr = p_.arrays[static_cast<std::size_t>(fm.a)];
    const ArrayRef& br = p_.arrays[static_cast<std::size_t>(fm.b)];
    const bool f32 = (fm.aux & kRoundF32) != 0;
    const int w = fm.lanes;
    const long long soff = sar.offset + sp.imm;
    const long long coff = cr.offset + fm.dst;
    const long long boff = br.offset + fm.imm;
    line("{ " + t_loop_open(false));
    line(strf("    double* const pa = parr + t * %lld;",
              static_cast<long long>(p_.parr_doubles)));
    line(strf("    double* const cp = pa + %lld;", coff));
    line(strf("    const double* const bp = pa + %lld;", boff));
    line(strf("    const double x = pa[%lld];", soff));
    if (vectorizable_width(w)) {
      line(strf("    const vd%d vx = ", w) + splat_list("x", w) + ";");
      const std::string ve = strf("vx * ld%d(bp) + ld%d(cp)", w, w);
      line(strf("    st%d(cp, ", w) +
           (f32 ? strf("rnd%d(", w) + ve + ")" : ve) + ");");
    } else {
      for (int l = 0; l < w; ++l)
        line(strf("    cp[%d] = ", l) +
             rnd(f32, strf("x * bp[%d] + cp[%d]", l, l)) + ";");
    }
    line("  }");
    line(strf("  c_flops += (unsigned long long)(%d * NI); "
              "c_mads += (unsigned long long)NI;",
              2 * w));
    line("}");
  }

  /// Load + store with a dead intermediate register: one copy loop with
  /// both bounds checks hoisted (load check first — its failure message
  /// wins, exactly the VM's execution order).
  void emit_fused_copy(const Insn& ld, const Insn& st) {
    const int w = ld.lanes;
    const bool ld_g = ld.op == Op::LoadG;
    const bool ld_local = ld.op == Op::LoadL;
    const bool st_local = st.op == Op::StoreL;
    line("{");
    std::string src_base, src_len, ld_fails;
    if (ld_g) {
      line(strf("  const double* const gp = arg_f64[%d];", ld.a));
      line(strf("  const long long en = arg_elems[%d];", ld.a));
      src_base = "gp";
      src_len = "en";
      ld_fails =
          fail_stmt(cstr(strf("global load out of range: index %%lld + %d "
                              "lanes, buffer %%lld elements",
                              w)),
                    {"(long long)idx", "(long long)en"});
    } else {
      const ArrayRef& ar = p_.arrays[static_cast<std::size_t>(ld.a)];
      src_base = ld_local ? strf("larr + %d", ar.offset)
                          : strf("parr + t * %lld + %d",
                                 static_cast<long long>(p_.parr_doubles),
                                 ar.offset);
      src_len = strf("%d", ar.len);
      ld_fails = fail_stmt(
          cstr(strf("%s array '%%s' load out of range: index %%lld + %d "
                    "lanes, %%zu elements",
                    ld_local ? "local" : "private", w)),
          {cstr(ar.name), "(long long)idx", strf("(std::size_t)%d", ar.len)});
    }
    const ArrayRef& sar = p_.arrays[static_cast<std::size_t>(st.a)];
    const std::string dst_base =
        st_local ? strf("larr + %d", sar.offset)
                 : strf("parr + t * %lld + %d",
                        static_cast<long long>(p_.parr_doubles), sar.offset);
    const std::string st_fails = fail_stmt(
        cstr(strf("%s array '%%s' store out of range: index %%lld + %d "
                  "lanes, %%zu elements",
                  st_local ? "local" : "private", w)),
        {cstr(sar.name), "(long long)idx", strf("(std::size_t)%d", sar.len)});
    emit_addr(ld, "a");
    emit_addr(st, "b");
    emit_range_check(ld, src_len, ld_fails, "a");
    emit_range_check(st, strf("%d", sar.len), st_fails, "b");
    line("  for (long long t = 0; t < NI; ++t) {");
    line("    const long long ia = " + addr_expr(ld, "a") + ";");
    line("    const long long ib = " + addr_expr(st, "b") + ";");
    line(strf("    const double* const sp_ = (%s) + ia;", src_base.c_str()));
    line(strf("    double* const dp_ = (%s) + ib;", dst_base.c_str()));
    if (vectorizable_width(w)) {
      line(strf("    st%d(dp_, ld%d(sp_));", w, w));
    } else {
      for (int l = 0; l < w; ++l)
        line(strf("    dp_[%d] = sp_[%d];", l, l));
    }
    line("  }");
    if (ld_g)
      line(strf("  c_gld += (unsigned long long)(%d * NI);", w * 8));
    if (ld_local)
      line(strf("  c_lld += (unsigned long long)(%d * NI);",
                w * ((ld.aux & kCount8) ? 8 : 4)));
    if (st_local)
      line(strf("  c_lst += (unsigned long long)(%d * NI);",
                w * ((st.aux & kCount8) ? 8 : 4)));
    line("}");
  }

  const Kernel& k_;
  const CompiledKernel& p_;
  const int simd_;               ///< vector width in doubles
  std::string out_;
  std::vector<char> is_target_;
  std::set<std::int32_t> splat_zero_elide_;
  std::set<int> vwidths_;        ///< vector widths the prologue defines
  std::set<std::size_t> fused_skip_;          ///< producers folded away
  std::map<std::size_t, std::size_t> fused_;  ///< consumer -> producer
};

}  // namespace

std::string emit_native_source(const Kernel& kernel,
                               const CompiledKernel& prog, int simd_width) {
  Emitter e(kernel, prog, simd_width);
  return e.run();
}

}  // namespace gemmtune::ir
