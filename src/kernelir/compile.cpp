// Lowering from the kernel IR tree to flat register-machine bytecode.
//
// The contract with the tree-walking reference interpreter (the test
// oracle in tests/tree_oracle.cpp) is bit identity of buffers AND dynamic
// counters, so the optimization passes are fenced by what carries
// observable effects:
//  * integer arithmetic, builtins, literals, and scalar-argument reads are
//    pure — they may be constant-folded, value-numbered, and hoisted;
//  * floating arithmetic (FAdd/FSub/FMul/Mad) counts flops/mads and every
//    load/store counts bytes, so those are lowered exactly once per tree
//    evaluation site and never move;
//  * pure floating *movement* (literals, splat, lane, copies) carries no
//    counters and may be hoisted, but is never value-numbered (cheap
//    anyway, and variables make their identity mutable).
// Integer division/modulo can throw, so it participates in value numbering
// (re-using an earlier result is always valid) but never hoists.
//
// Hoisting works on placement levels: every lowered value records the loop
// depth at which it was computed, and an instruction whose operands all
// live below the current loop's depth is emitted into the enclosing
// frame's stream instead — which at that point is exactly the loop's
// preheader (the loop body is assembled into its own stream and appended
// when the loop closes). Values placed this way get fresh, pinned
// registers so later body code can never clobber a preheader result.
//
// A statement only executes in the tree-walker when at least one work-item
// is active: every masked-region entry is guarded (varying `if` bodies sit
// behind a jump-if-none-active), so a uniform computation evaluated once
// per group observes the same values — and raises the same errors — as the
// tree evaluating it at the first active item.
#include "kernelir/compile.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <tuple>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "kernelir/ir.hpp"
#include "trace/trace.hpp"

namespace gemmtune::ir {

namespace {

// ---- canonical serialization ----------------------------------------------

void put_i64(std::string& out, std::int64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}

void put_f64(std::string& out, double v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}

void put_u8(std::string& out, unsigned v) {
  out.push_back(static_cast<char>(v & 0xff));
}

void put_str(std::string& out, const std::string& s) {
  put_i64(out, static_cast<std::int64_t>(s.size()));
  out += s;
}

void put_type(std::string& out, Type t) {
  put_u8(out, static_cast<unsigned>(t.scalar));
  put_u8(out, static_cast<unsigned>(t.lanes));
}

void ser_expr(std::string& out, const ExprPtr& e) {
  if (!e) {
    put_u8(out, 0xff);
    return;
  }
  put_u8(out, static_cast<unsigned>(e->kind));
  put_type(out, e->type);
  put_i64(out, e->ival);
  put_f64(out, e->fval);
  put_i64(out, e->slot);
  put_u8(out, static_cast<unsigned>(e->dim));
  put_u8(out, static_cast<unsigned>(e->bop));
  put_u8(out, static_cast<unsigned>(e->bfn));
  put_i64(out, e->lane);
  put_i64(out, e->arg);
  put_i64(out, static_cast<std::int64_t>(e->kids.size()));
  for (const auto& k : e->kids) ser_expr(out, k);
}

void ser_stmt(std::string& out, const StmtPtr& s) {
  put_u8(out, static_cast<unsigned>(s->kind));
  put_i64(out, s->slot);
  put_i64(out, s->arg);
  ser_expr(out, s->a);
  ser_expr(out, s->b);
  ser_expr(out, s->c);
  put_i64(out, static_cast<std::int64_t>(s->body.size()));
  for (const auto& b : s->body) ser_stmt(out, b);
  put_str(out, s->text);
}

// ---- uniformity analysis ---------------------------------------------------

// A value is work-group uniform when every work-item of a group computes
// the same value. Structural rule: literals, scalar arguments, and the
// group-level builtins are uniform; local/global ids are not; loads are
// conservatively varying (address spaces are mutable per item). Variables
// start uniform and are demoted to a fixpoint: an assignment inside a
// divergent (varying-`if`) region, or of a varying expression, makes the
// variable varying; a loop variable is varying iff its loop is divergent
// (bound uniformity across items is *verified* at run time, so a loop that
// runs has uniform bounds).
struct Analysis {
  std::vector<char> uniform;  // per symbol slot
};

bool expr_uniform(const ExprPtr& e, const std::vector<char>& uni,
                  const Kernel& k) {
  if (!e) return true;
  switch (e->kind) {
    case ExprKind::IntLit:
    case ExprKind::FpLit:
    case ExprKind::ArgRef:
      return true;
    case ExprKind::Builtin:
      return e->bfn == BuiltinFn::GroupId || e->bfn == BuiltinFn::LocalSize ||
             e->bfn == BuiltinFn::NumGroups;
    case ExprKind::VarRef:
      if (e->slot < 0 || e->slot >= static_cast<int>(k.symbols.size()))
        return false;
      return uni[static_cast<std::size_t>(e->slot)] != 0;
    case ExprKind::LoadGlobal:
    case ExprKind::LoadLocal:
    case ExprKind::LoadPrivate:
      return false;
    default:
      for (const auto& kid : e->kids)
        if (!expr_uniform(kid, uni, k)) return false;
      return true;
  }
}

void analyze_stmts(const std::vector<StmtPtr>& body, bool divergent,
                   std::vector<char>& uni, const Kernel& k, bool& changed) {
  for (const auto& s : body) {
    switch (s->kind) {
      case StmtKind::Assign: {
        if (s->slot < 0 || s->slot >= static_cast<int>(k.symbols.size()))
          break;
        auto& u = uni[static_cast<std::size_t>(s->slot)];
        if (u && (divergent || !expr_uniform(s->a, uni, k))) {
          u = 0;
          changed = true;
        }
        break;
      }
      case StmtKind::For: {
        if (s->slot >= 0 && s->slot < static_cast<int>(k.symbols.size())) {
          auto& u = uni[static_cast<std::size_t>(s->slot)];
          if (u && divergent) {
            u = 0;
            changed = true;
          }
        }
        analyze_stmts(s->body, divergent, uni, k, changed);
        break;
      }
      case StmtKind::If: {
        const bool div =
            divergent || !expr_uniform(s->a, uni, k);
        analyze_stmts(s->body, div, uni, k, changed);
        break;
      }
      default:
        break;
    }
  }
}

Analysis analyze(const Kernel& k) {
  Analysis a;
  a.uniform.assign(k.symbols.size(), 1);
  bool changed = true;
  while (changed) {
    changed = false;
    analyze_stmts(k.body, /*divergent=*/false, a.uniform, k, changed);
  }
  return a;
}

// ---- compile-time constant evaluation -------------------------------------

// Evaluates a pure integer expression with no variable/builtin/load
// dependence. Used by the strength-reduction peepholes to resolve private
// array addresses before lowering; general folding happens in lower_int.
std::optional<std::int64_t> const_eval(const ExprPtr& e) {
  if (!e) return std::nullopt;
  switch (e->kind) {
    case ExprKind::IntLit:
      return e->ival;
    case ExprKind::Bin: {
      if (e->kids.size() != 2) return std::nullopt;
      auto a = const_eval(e->kids[0]);
      auto b = const_eval(e->kids[1]);
      if (!a || !b) return std::nullopt;
      switch (e->bop) {
        case BinOp::Add: return *a + *b;
        case BinOp::Sub: return *a - *b;
        case BinOp::Mul: return *a * *b;
        case BinOp::Div:
          if (*b == 0) return std::nullopt;
          return *a / *b;
        case BinOp::Mod:
          if (*b == 0) return std::nullopt;
          return *a % *b;
        case BinOp::Lt: return *a < *b ? 1 : 0;
        case BinOp::And: return (*a != 0 && *b != 0) ? 1 : 0;
        default: return std::nullopt;
      }
    }
    default:
      return std::nullopt;
  }
}

// ---- the compiler ----------------------------------------------------------

/// A lowered value: a compile-time integer constant or a register, with
/// the loop depth it was materialized at (for invariant hoisting).
struct Value {
  enum class K { Const, U, VI, VF } k = K::Const;
  std::int64_t cval = 0;
  std::int32_t reg = 0;  ///< U/VI register index, or VF base offset
  int lanes = 1;         ///< VF width in doubles per item
  int level = 0;         ///< loop depth of the defining instruction
  int vn = 0;            ///< value number (integer values only)
  bool temp = false;     ///< VF register returns to the free list after use
};

// Value-numbering key: op tag + immediate + operand value numbers.
using VnKey = std::tuple<int, std::int64_t, int, int, int>;
constexpr int kTagConst = 1, kTagArg = 2, kTagUBuiltin = 3, kTagVBuiltin = 4,
              kTagBin = 16;  // + BinOp

class Compiler {
 public:
  explicit Compiler(const Kernel& k) : k_(k), analysis_(analyze(k)) {}

  CompiledKernel run() {
    alloc_storage();
    frames_.push_back(make_frame(Frame::Kind::Top, 0));
    for (const auto& s : k_.body) lower_stmt(s);
    Frame top = std::move(frames_.back());
    frames_.pop_back();
    out_.code = std::move(top.body);
    out_.code.push_back(Insn{});  // Halt
    out_.n_u = n_u_;
    out_.n_vi = n_vi_;
    out_.n_vf = n_vf_;
    return std::move(out_);
  }

 private:
  // ---- frames & streams ----------------------------------------------------

  // One open lexical region. `body` collects the region's instructions;
  // when the region closes its stream is appended to the parent with jump
  // targets relocated. `vn` scopes value-numbering entries to the region
  // (an entry must not outlive the execution guarantee of its defining
  // instruction). Loop frames raise `depth`; If frames keep it but stop
  // hoisting (their body is conditionally executed).
  struct Frame {
    enum class Kind { Top, Loop, If } kind = Kind::Top;
    int depth = 0;
    std::vector<Insn> body;
    std::map<VnKey, Value> vn;
  };

  static Frame make_frame(Frame::Kind kind, int depth) {
    Frame f;
    f.kind = kind;
    f.depth = depth;
    return f;
  }

  static bool is_jump(Op op) {
    return op == Op::Jmp || op == Op::JzU || op == Op::JgeU ||
           op == Op::JNone || op == Op::ForCheckV;
  }

  /// Appends `s` to the innermost stream, relocating its jump targets.
  void append_stream(std::vector<Insn> s) {
    auto& dst = frames_.back().body;
    const auto base = static_cast<std::int64_t>(dst.size());
    for (Insn& in : s) {
      if (is_jump(in.op)) in.imm += base;
      dst.push_back(in);
    }
  }

  std::int64_t pos() const {
    return static_cast<std::int64_t>(frames_.back().body.size());
  }

  void patch(std::vector<Insn>& stream, std::int64_t at, std::int64_t target) {
    stream[static_cast<std::size_t>(at)].imm = target;
  }

  /// Emits `in` into the innermost stream at the current depth; returns its
  /// position there.
  std::int64_t emit(const Insn& in) {
    frames_.back().body.push_back(in);
    return static_cast<std::int64_t>(frames_.back().body.size()) - 1;
  }

  /// Emits a pure instruction, hoisting it to the outermost loop preheader
  /// its operand `level` allows (never past an If frame, never inside a
  /// divergent region). Returns the frame index that received it — its
  /// depth is the resulting value's level.
  int emit_hoisted(const Insn& in, int level) {
    std::size_t target = frames_.size() - 1;
    if (divergent_ == 0) {
      while (target > 0 && frames_[target].kind == Frame::Kind::Loop &&
             level < frames_[target].depth)
        --target;
    }
    frames_[target].body.push_back(in);
    return static_cast<int>(target);
  }

  int depth() const { return frames_.back().depth; }

  // ---- registers -----------------------------------------------------------

  // Integer registers are bump-allocated and never reused (tiny), so a
  // hoisted definition can never be clobbered by later body code. Floating
  // registers are wide (lanes * nitems doubles) so single-use temporaries
  // recycle through per-width free lists — except hoisted values, which
  // get fresh pinned registers for the same clobber-safety reason.
  std::int32_t fresh_u() { return n_u_++; }
  std::int32_t fresh_vi() { return n_vi_++; }

  std::int32_t fresh_vf(int lanes) {
    const std::int32_t base = n_vf_;
    n_vf_ += lanes;
    return base;
  }

  std::int32_t alloc_vf_temp(int lanes) {
    auto& fl = vf_free_[lanes];
    if (!fl.empty()) {
      const std::int32_t base = fl.back();
      fl.pop_back();
      return base;
    }
    return fresh_vf(lanes);
  }

  void release(const Value& v) {
    if (v.k == Value::K::VF && v.temp) vf_free_[v.lanes].push_back(v.reg);
  }

  int fresh_vn() { return next_vn_++; }

  // ---- value numbering -----------------------------------------------------

  const Value* vn_lookup(const VnKey& key) const {
    for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
      auto f = it->vn.find(key);
      if (f != it->vn.end()) return &f->second;
    }
    return nullptr;
  }

  /// Emits a pure integer instruction with result caching: an existing
  /// value with the same key is reused; otherwise the instruction is
  /// hoisted as far as `level` allows and registered in the receiving
  /// frame's scope. `can_hoist` is false for ops that may throw (div/mod).
  Value emit_vn(Insn in, const VnKey& key, Value::K cls, int level,
                bool can_hoist) {
    if (const Value* hit = vn_lookup(key)) return *hit;
    Value v;
    v.k = cls;
    v.reg = cls == Value::K::U ? fresh_u() : fresh_vi();
    v.vn = fresh_vn();
    in.dst = v.reg;
    int frame;
    if (can_hoist) {
      frame = emit_hoisted(in, level);
    } else {
      emit(in);
      frame = static_cast<int>(frames_.size()) - 1;
    }
    v.level = frames_[static_cast<std::size_t>(frame)].depth;
    frames_[static_cast<std::size_t>(frame)].vn.emplace(key, v);
    return v;
  }

  /// Materializes an integer value into a uniform register.
  Value ureg(const Value& v) {
    check(v.k != Value::K::VI && v.k != Value::K::VF,
          "compile: uniform register from varying value");
    if (v.k == Value::K::U) return v;
    Insn in;
    in.op = Op::UConst;
    in.imm = v.cval;
    return emit_vn(in, VnKey{kTagConst, v.cval, 0, 0, 0}, Value::K::U, 0,
                   true);
  }

  /// Materializes an integer value into a varying register (splatting
  /// uniform values).
  Value vireg(const Value& v) {
    if (v.k == Value::K::VI) return v;
    const Value u = ureg(v);
    Insn in;
    in.op = Op::VMovU;
    in.a = u.reg;
    return emit_vn(in, VnKey{kTagConst, -1, u.vn, 0, 0}, Value::K::VI,
                   u.level, true);
  }

  // ---- storage layout ------------------------------------------------------

  // Per-variable state. Integer variables live in a dedicated register
  // (uniform or varying per the analysis); floating variables own a slab
  // as wide as their widest use (var_widths). The tree's Vals are zero
  // past their type's lanes, so those lanes read 0 on both sides: an
  // assignment zero-fills the slab past its value's lanes, and a read
  // wider than the slab zero-pads like any width conversion. `cur`
  // snapshots the last assigned integer value so reads forward the RHS
  // register (pinned, written at its own level — hoist-safe); control-flow
  // joins invalidate it back to the architectural register.
  struct VarBind {
    bool uniform = false;
    std::int32_t ireg = 0;   ///< u or vi register (by `uniform`)
    std::int32_t fbase = 0;  ///< vf base, `fw` lanes wide
    int fw = 1;
    Value cur;
  };

  /// Each variable's floating slab width: the largest of its declared
  /// lanes, the lanes of every value assigned to it and every read's type.
  std::vector<int> var_widths() const {
    std::vector<int> w(k_.symbols.size(), 1);
    for (std::size_t i = 0; i < w.size(); ++i)
      w[i] = std::max(1, k_.symbols[i].type.lanes);
    const auto widen = [&](int slot, const Type& t) {
      if (slot_in_range(slot))
        w[static_cast<std::size_t>(slot)] =
            std::max(w[static_cast<std::size_t>(slot)], t.lanes);
    };
    const auto expr = [&](const auto& self, const ExprPtr& e) -> void {
      if (!e) return;
      if (e->kind == ExprKind::VarRef) widen(e->slot, e->type);
      for (const auto& kid : e->kids) self(self, kid);
    };
    const auto stmts = [&](const auto& self,
                           const std::vector<StmtPtr>& body) -> void {
      for (const auto& s : body) {
        if (s->kind == StmtKind::Assign && s->a) widen(s->slot, s->a->type);
        expr(expr, s->a);
        expr(expr, s->b);
        expr(expr, s->c);
        self(self, s->body);
      }
    };
    stmts(stmts, k_.body);
    return w;
  }

  void alloc_storage() {
    for (std::size_t i = 0; i < k_.symbols.size(); ++i) {
      const Symbol& sym = k_.symbols[i];
      if (sym.array_len == 0) continue;
      ArrayRef ref;
      ref.len = sym.array_len;
      ref.local = sym.space == AddrSpace::Local;
      ref.name = sym.name;
      if (ref.local) {
        ref.offset = static_cast<std::int32_t>(out_.larr_doubles);
        out_.larr_doubles += sym.array_len;
      } else {
        ref.offset = static_cast<std::int32_t>(out_.parr_doubles);
        out_.parr_doubles += sym.array_len;
      }
      array_of_slot_[static_cast<int>(i)] =
          static_cast<std::int32_t>(out_.arrays.size());
      out_.arrays.push_back(std::move(ref));
    }
    // Variables first so the zero-initialized region is a prefix.
    vars_.resize(k_.symbols.size());
    const std::vector<int> widths = var_widths();
    for (std::size_t i = 0; i < k_.symbols.size(); ++i) {
      if (k_.symbols[i].array_len != 0) continue;
      VarBind vb;
      vb.uniform = analysis_.uniform[i] != 0;
      vb.ireg = vb.uniform ? fresh_u() : fresh_vi();
      vb.fw = widths[i];
      vb.fbase = fresh_vf(vb.fw);
      vb.cur = Value{};  // Const 0: unassigned variables read as zero
      vb.cur.vn = fresh_vn();
      vars_[i] = vb;
    }
    out_.n_vi_vars = n_vi_;
    out_.n_vf_vars = n_vf_;
  }

  /// Invalidates a variable's forwarding snapshot: reads go back to the
  /// architectural register, treated as defined at `level`.
  void invalidate_var(int slot, int level) {
    VarBind& vb = vars_[static_cast<std::size_t>(slot)];
    Value v;
    v.k = vb.uniform ? Value::K::U : Value::K::VI;
    v.reg = vb.ireg;
    v.level = level;
    v.vn = fresh_vn();
    vb.cur = v;
  }

  /// Collects variable slots assigned anywhere under `body` (incl. nested
  /// loop variables) for invalidation at region boundaries.
  void collect_assigned(const std::vector<StmtPtr>& body,
                        std::vector<int>& slots) {
    for (const auto& s : body) {
      if ((s->kind == StmtKind::Assign || s->kind == StmtKind::For) &&
          s->slot >= 0 && s->slot < static_cast<int>(k_.symbols.size()) &&
          k_.symbols[static_cast<std::size_t>(s->slot)].array_len == 0)
        slots.push_back(s->slot);
      if (s->kind == StmtKind::For || s->kind == StmtKind::If)
        collect_assigned(s->body, slots);
    }
  }

  // ---- symbol / argument checks -------------------------------------------

  /// Valid scalar-variable slot, or nullopt when the statement must throw
  /// "interp: bad symbol slot" at run time (out-of-range slot in reachable
  /// code — the tree checks per execution). Slots naming the wrong symbol
  /// class are undefined behaviour in the tree-walker and unreachable from
  /// the builders, so they are rejected at compile time.
  bool slot_in_range(int slot) const {
    return slot >= 0 && slot < static_cast<int>(k_.symbols.size());
  }

  std::int32_t intern_message(const std::string& msg) {
    for (std::size_t i = 0; i < out_.messages.size(); ++i)
      if (out_.messages[i] == msg) return static_cast<std::int32_t>(i);
    out_.messages.push_back(msg);
    return static_cast<std::int32_t>(out_.messages.size()) - 1;
  }

  void emit_throw(const std::string& msg) {
    Insn in;
    in.op = Op::Throw;
    in.imm = intern_message(msg);
    emit(in);
  }

  /// Resolves an array slot for the given space; compile-time failure on
  /// IR the builders cannot produce (tree behaviour would be undefined).
  std::int32_t array_id(int slot, AddrSpace space, bool* bad_slot) {
    *bad_slot = false;
    if (!slot_in_range(slot)) {
      *bad_slot = true;
      return 0;
    }
    const Symbol& sym = k_.symbols[static_cast<std::size_t>(slot)];
    check(sym.array_len > 0 && sym.space == space,
          "compile: symbol '" + sym.name + "' is not an array of the "
          "accessed address space");
    return array_of_slot_.at(slot);
  }

  // ---- expression lowering: integers --------------------------------------

  bool masked() const { return divergent_ > 0; }

  bool uniform_expr(const ExprPtr& e) const {
    return expr_uniform(e, analysis_.uniform, k_);
  }

  /// Lowers an integer-valued expression. May emit code; returns a Const
  /// or register value. On malformed-but-reachable sub-expressions a Throw
  /// is emitted and a dummy constant returned (execution never passes it).
  Value lower_int(const ExprPtr& e) {
    switch (e->kind) {
      case ExprKind::IntLit: {
        Value v;
        v.cval = e->ival;
        v.vn = const_vn(e->ival);
        return v;
      }
      case ExprKind::FpLit: {
        // Reading a floating literal as an integer yields the Val's zero
        // integer field in the tree-walker.
        Value v;
        v.vn = const_vn(0);
        return v;
      }
      case ExprKind::VarRef: {
        if (!slot_in_range(e->slot)) {
          emit_throw("interp: bad symbol slot");
          Value v;
          v.vn = const_vn(0);
          return v;
        }
        const Symbol& sym = k_.symbols[static_cast<std::size_t>(e->slot)];
        check(sym.array_len == 0,
              "compile: variable reference to array symbol '" + sym.name +
                  "'");
        return vars_[static_cast<std::size_t>(e->slot)].cur;
      }
      case ExprKind::ArgRef: {
        check(e->arg >= 0 && e->arg < static_cast<int>(k_.args.size()),
              "compile: argument index out of range");
        Insn in;
        in.op = Op::UArg;
        in.a = e->arg;
        return emit_vn(in, VnKey{kTagArg, e->arg, 0, 0, 0}, Value::K::U, 0,
                       true);
      }
      case ExprKind::Builtin: {
        const bool uni = e->bfn == BuiltinFn::GroupId ||
                         e->bfn == BuiltinFn::LocalSize ||
                         e->bfn == BuiltinFn::NumGroups;
        Insn in;
        in.op = uni ? Op::UBuiltin : Op::VBuiltin;
        in.aux = static_cast<std::uint8_t>(static_cast<int>(e->bfn) * 2 +
                                           e->dim);
        return emit_vn(in,
                       VnKey{uni ? kTagUBuiltin : kTagVBuiltin, in.aux, 0, 0,
                             0},
                       uni ? Value::K::U : Value::K::VI, 0, true);
      }
      case ExprKind::Bin:
        return lower_bin(e);
      case ExprKind::Select:
        return lower_select_int(e);
      default:
        // Floating expression read in integer position: tree Val.i == 0
        // after any floating evaluation, but the evaluation's counters
        // still run — lower it and discard the lanes.
        {
          Value f = lower_fp(e, e->type.lanes > 0 ? e->type.lanes : 1);
          release(f);
          Value v;
          v.vn = const_vn(0);
          return v;
        }
    }
  }

  int const_vn(std::int64_t c) {
    auto it = const_vns_.find(c);
    if (it != const_vns_.end()) return it->second;
    const int vn = fresh_vn();
    const_vns_.emplace(c, vn);
    return vn;
  }

  Value lower_bin(const ExprPtr& e) {
    check(e->kids.size() == 2, "compile: malformed binary expression");
    if (e->bop == BinOp::FAdd || e->bop == BinOp::FSub ||
        e->bop == BinOp::FMul) {
      // Floating arithmetic in integer position (see default case above).
      Value f = lower_fp(e, e->type.lanes);
      release(f);
      Value v;
      v.vn = const_vn(0);
      return v;
    }
    Value a = lower_int(e->kids[0]);
    Value b = lower_int(e->kids[1]);
    // Constant folding — pure integer ops only; division folds only when
    // the divisor is a non-zero constant (else it must throw at the tree's
    // evaluation point).
    if (a.k == Value::K::Const && b.k == Value::K::Const) {
      const bool divlike = e->bop == BinOp::Div || e->bop == BinOp::Mod;
      if (!divlike || b.cval != 0) {
        Value v;
        v.cval = fold(e->bop, a.cval, b.cval);
        v.vn = const_vn(v.cval);
        return v;
      }
    }
    const bool divlike = e->bop == BinOp::Div || e->bop == BinOp::Mod;
    const bool uniform = a.k != Value::K::VI && b.k != Value::K::VI;
    Insn in;
    in.flags = 0;
    if (uniform) {
      a = ureg(a);
      b = ureg(b);
      in.op = ubin_op(e->bop);
    } else {
      a = vireg(a);
      b = vireg(b);
      in.op = vbin_op(e->bop);
      if (divlike && masked()) in.flags |= kMasked;
    }
    in.a = a.reg;
    in.b = b.reg;
    const int level = std::max(a.level, b.level);
    const VnKey key{kTagBin + static_cast<int>(e->bop) +
                        (uniform ? 0 : 1000) + (in.flags ? 2000 : 0),
                    0, a.vn, b.vn, 0};
    // Division can throw, so it is never moved above its evaluation point;
    // reusing an earlier identical result is still sound.
    return emit_vn(in, key, uniform ? Value::K::U : Value::K::VI, level,
                   !divlike);
  }

  static std::int64_t fold(BinOp op, std::int64_t a, std::int64_t b) {
    switch (op) {
      case BinOp::Add: return a + b;
      case BinOp::Sub: return a - b;
      case BinOp::Mul: return a * b;
      case BinOp::Div: return a / b;
      case BinOp::Mod: return a % b;
      case BinOp::Lt: return a < b ? 1 : 0;
      case BinOp::And: return (a != 0 && b != 0) ? 1 : 0;
      default: break;
    }
    fail("compile: bad integer fold");
  }

  static Op ubin_op(BinOp op) {
    switch (op) {
      case BinOp::Add: return Op::UAdd;
      case BinOp::Sub: return Op::USub;
      case BinOp::Mul: return Op::UMul;
      case BinOp::Div: return Op::UDiv;
      case BinOp::Mod: return Op::UMod;
      case BinOp::Lt: return Op::ULt;
      case BinOp::And: return Op::UAnd;
      default: break;
    }
    fail("compile: bad uniform binary op");
  }

  static Op vbin_op(BinOp op) {
    switch (op) {
      case BinOp::Add: return Op::VAdd;
      case BinOp::Sub: return Op::VSub;
      case BinOp::Mul: return Op::VMul;
      case BinOp::Div: return Op::VDiv;
      case BinOp::Mod: return Op::VMod;
      case BinOp::Lt: return Op::VLt;
      case BinOp::And: return Op::VAnd;
      default: break;
    }
    fail("compile: bad varying binary op");
  }

  /// Integer-valued Select. Constant conditions lower the taken branch
  /// only; uniform conditions branch per group; varying conditions run
  /// both branches under complementary masks (the tree short-circuits per
  /// item, so in-branch effects must only fire for items taking it).
  Value lower_select_int(const ExprPtr& e) {
    check(e->kids.size() == 3, "compile: malformed select");
    Value c = lower_int(e->kids[0]);
    if (c.k == Value::K::Const)
      return lower_int(e->kids[c.cval != 0 ? 1 : 2]);
    if (c.k == Value::K::U) {
      // The result is uniform only when both branches are (a uniform
      // condition can still select between varying values).
      const Value cu = ureg(c);
      const bool runi = uniform_expr(e);
      Value r;
      r.k = runi ? Value::K::U : Value::K::VI;
      r.reg = runi ? fresh_u() : fresh_vi();
      r.vn = fresh_vn();
      r.level = depth();
      lower_branch_u(e->kids[1], e->kids[2], cu, r);
      return r;
    }
    // Varying condition: the result is varying even if both branches are
    // uniform expressions (items disagree on which branch they take).
    Value r;
    r.k = Value::K::VI;
    r.reg = fresh_vi();
    r.vn = fresh_vn();
    r.level = depth();
    lower_branch_v(e->kids[0], e->kids[1], e->kids[2], c, r, /*fp_lanes=*/0);
    return r;
  }

  /// Uniform-condition two-way branch assigning into `r` (int registers).
  void lower_branch_u(const ExprPtr& t, const ExprPtr& f, const Value& cond,
                      const Value& r) {
    const std::int64_t jz = emit(jump(Op::JzU, cond.reg));
    open_if_frame();
    move_int_into(r, lower_int(t));
    close_if_frame();
    const std::int64_t jend = emit(jump(Op::Jmp, 0));
    patch(frames_.back().body, jz, pos());
    open_if_frame();
    move_int_into(r, lower_int(f));
    close_if_frame();
    patch(frames_.back().body, jend, pos());
  }

  /// Varying-condition two-way branch into `r` (int when fp_lanes == 0,
  /// else a vf register of that width).
  void lower_branch_v(const ExprPtr& cond_e, const ExprPtr& t,
                      const ExprPtr& f, const Value& cond, const Value& r,
                      int fp_lanes) {
    const Value cv = vireg(cond);
    Insn mp;
    mp.op = Op::MaskPush;
    mp.a = cv.reg;
    emit(mp);
    note_mask_depth();
    const std::int64_t j1 = emit(jump(Op::JNone, 0));
    ++divergent_;
    open_if_frame();
    if (fp_lanes == 0) {
      move_int_into(r, lower_int(t), /*mask=*/true);
    } else {
      move_fp_into(r, lower_fp(t, fp_lanes), fp_lanes, /*mask=*/true);
    }
    close_if_frame();
    --divergent_;
    patch(frames_.back().body, j1, pos());
    Insn mf;
    mf.op = Op::MaskFlip;
    emit(mf);
    const std::int64_t j2 = emit(jump(Op::JNone, 0));
    ++divergent_;
    open_if_frame();
    if (fp_lanes == 0) {
      move_int_into(r, lower_int(f), /*mask=*/true);
    } else {
      move_fp_into(r, lower_fp(f, fp_lanes), fp_lanes, /*mask=*/true);
    }
    close_if_frame();
    --divergent_;
    patch(frames_.back().body, j2, pos());
    Insn pop;
    pop.op = Op::MaskPop;
    emit(pop);
    unnote_mask_depth();
    (void)cond_e;
  }

  static Insn jump(Op op, std::int32_t a) {
    Insn in;
    in.op = op;
    in.a = a;
    return in;
  }

  /// Moves an integer value into the pre-allocated result register `r`.
  void move_int_into(const Value& r, Value v, bool mask = false) {
    Insn in;
    if (r.k == Value::K::U) {
      v = ureg(v);
      in.op = Op::UMov;
      in.a = v.reg;
    } else if (v.k == Value::K::VI) {
      in.op = Op::VMov;
      in.a = v.reg;
    } else {
      v = ureg(v);
      in.op = Op::VMovU;
      in.a = v.reg;
    }
    in.dst = r.reg;
    if (mask) in.flags |= kMasked;
    emit(in);
  }

  /// Moves a floating value (any width) into vf register `r` of `lanes`.
  void move_fp_into(const Value& r, const Value& v, int lanes, bool mask) {
    Insn in;
    in.op = Op::FMov;
    in.dst = r.reg;
    in.a = v.reg;
    in.b = static_cast<std::int32_t>(lanes);           // dst width
    in.c = static_cast<std::int32_t>(v.lanes);         // src stride
    in.lanes = static_cast<std::uint8_t>(std::min(lanes, v.lanes));
    if (mask) in.flags |= kMasked;
    emit(in);
    release(v);
  }

  // An If frame scopes value numbering and stops hoisting without raising
  // the loop depth.
  void open_if_frame() {
    frames_.push_back(make_frame(Frame::Kind::If, depth()));
  }

  void close_if_frame() {
    Frame f = std::move(frames_.back());
    frames_.pop_back();
    append_stream(std::move(f.body));
  }

  void note_mask_depth() {
    ++mask_depth_;
    out_.max_mask_depth = std::max(out_.max_mask_depth, mask_depth_);
  }

  // (mask depth decrements are implicit at MaskPop emission sites)
  void unnote_mask_depth() { --mask_depth_; }

  // ---- expression lowering: floating --------------------------------------

  std::uint8_t round_flag(Scalar s) const {
    return s == Scalar::F32 ? kRoundF32 : 0;
  }

  /// Lowers a floating expression into a vf value normalized to `lanes`
  /// width (the tree zero-pads Vals past their lanes, so a narrower source
  /// reads as zero in the extra lanes).
  Value lower_fp(const ExprPtr& e, int lanes) {
    Value v = lower_fp_raw(e);
    if (v.lanes == lanes) return v;
    Value out;
    out.k = Value::K::VF;
    out.lanes = lanes;
    out.reg = alloc_vf_temp(lanes);
    out.temp = true;
    out.level = depth();
    Insn in;
    in.op = Op::FMov;
    in.dst = out.reg;
    in.a = v.reg;
    in.b = static_cast<std::int32_t>(lanes);
    in.c = static_cast<std::int32_t>(v.lanes);
    in.lanes = static_cast<std::uint8_t>(std::min(lanes, v.lanes));
    emit(in);
    release(v);
    return out;
  }

  /// Allocates the destination for a pure floating-movement op, hoisting
  /// the instruction when its operands allow; pinned when hoisted, a
  /// recyclable temp otherwise.
  Value emit_fp_pure(Insn in, int lanes, int level) {
    Value v;
    v.k = Value::K::VF;
    v.lanes = lanes;
    if (divergent_ == 0 && level < depth()) {
      v.reg = fresh_vf(lanes);  // pinned: lives in a preheader
      in.dst = v.reg;
      const int frame = emit_hoisted(in, level);
      v.level = frames_[static_cast<std::size_t>(frame)].depth;
    } else {
      v.reg = alloc_vf_temp(lanes);
      v.temp = true;
      in.dst = v.reg;
      emit(in);
      v.level = depth();
    }
    return v;
  }

  Value lower_fp_raw(const ExprPtr& e) {
    const int L = e->type.lanes;
    switch (e->kind) {
      case ExprKind::FpLit: {
        // Pre-round into the constant pool so F32 kernels pay nothing at
        // run time.
        const double x = e->type.scalar == Scalar::F32
                             ? static_cast<double>(static_cast<float>(e->fval))
                             : e->fval;
        Insn in;
        in.op = Op::FConst;
        in.lanes = static_cast<std::uint8_t>(L);
        in.imm = static_cast<std::int64_t>(out_.fpool.size());
        for (int l = 0; l < L; ++l) out_.fpool.push_back(x);
        return emit_fp_pure(in, L, 0);
      }
      case ExprKind::IntLit: {
        // Integer literal in floating position: the tree Val's floating
        // lanes stay zero.
        Insn in;
        in.op = Op::FConst;
        in.lanes = static_cast<std::uint8_t>(L);
        in.imm = static_cast<std::int64_t>(out_.fpool.size());
        for (int l = 0; l < L; ++l) out_.fpool.push_back(0.0);
        return emit_fp_pure(in, L, 0);
      }
      case ExprKind::VarRef: {
        if (!slot_in_range(e->slot)) {
          emit_throw("interp: bad symbol slot");
          Insn in;
          in.op = Op::FConst;
          in.lanes = static_cast<std::uint8_t>(L);
          in.imm = static_cast<std::int64_t>(out_.fpool.size());
          for (int l = 0; l < L; ++l) out_.fpool.push_back(0.0);
          return emit_fp_pure(in, L, depth());
        }
        const Symbol& sym = k_.symbols[static_cast<std::size_t>(e->slot)];
        check(sym.array_len == 0,
              "compile: variable reference to array symbol '" + sym.name +
                  "'");
        const VarBind& vb = vars_[static_cast<std::size_t>(e->slot)];
        Value v;
        v.k = Value::K::VF;
        v.reg = vb.fbase;
        v.lanes = vb.fw;
        v.level = depth();  // mutable: reads never hoist
        return v;
      }
      case ExprKind::ArgRef: {
        check(e->arg >= 0 && e->arg < static_cast<int>(k_.args.size()),
              "compile: argument index out of range");
        Insn in;
        in.op = Op::FArg;
        in.a = e->arg;
        in.lanes = static_cast<std::uint8_t>(L);
        in.aux = round_flag(e->type.scalar);
        return emit_fp_pure(in, L, 0);
      }
      case ExprKind::Splat: {
        check(e->kids.size() == 1, "compile: malformed splat");
        Value s = lower_fp_raw(e->kids[0]);
        Insn in;
        in.op = Op::FSplat;
        in.a = s.reg;
        in.aux = static_cast<std::uint8_t>(s.lanes);
        in.lanes = static_cast<std::uint8_t>(L);
        Value v = emit_fp_pure(in, L, s.level);
        release(s);
        return v;
      }
      case ExprKind::Lane: {
        check(e->kids.size() == 1, "compile: malformed lane");
        Value s = lower_fp_raw(e->kids[0]);
        Insn in;
        in.op = Op::FLane;
        in.a = s.reg;
        in.aux = static_cast<std::uint8_t>(s.lanes);
        in.imm = e->lane;
        in.lanes = 1;
        Value v = emit_fp_pure(in, 1, s.level);
        release(s);
        return v;
      }
      case ExprKind::Bin: {
        check(e->kids.size() == 2, "compile: malformed binary expression");
        if (e->bop != BinOp::FAdd && e->bop != BinOp::FSub &&
            e->bop != BinOp::FMul) {
          // Integer expression in floating position: evaluate (it may
          // throw exactly as the tree would) and read zero lanes.
          Value iv = lower_int(e);
          (void)iv;
          Insn in;
          in.op = Op::FConst;
          in.lanes = static_cast<std::uint8_t>(L);
          in.imm = static_cast<std::int64_t>(out_.fpool.size());
          for (int l = 0; l < L; ++l) out_.fpool.push_back(0.0);
          return emit_fp_pure(in, L, depth());
        }
        Value a = lower_fp(e->kids[0], L);
        Value b = lower_fp(e->kids[1], L);
        Insn in;
        in.op = e->bop == BinOp::FAdd  ? Op::FAdd
                : e->bop == BinOp::FSub ? Op::FSub
                                        : Op::FMul;
        in.a = a.reg;
        in.b = b.reg;
        in.lanes = static_cast<std::uint8_t>(L);
        in.aux = round_flag(e->type.scalar);
        if (masked()) in.flags |= kMasked;
        Value v = alloc_arith_dst(L, in);
        release(a);
        release(b);
        return v;
      }
      case ExprKind::Mad: {
        check(e->kids.size() == 3, "compile: malformed mad");
        Value a = lower_fp(e->kids[0], L);
        Value b = lower_fp(e->kids[1], L);
        Value c = lower_fp(e->kids[2], L);
        Insn in;
        in.op = Op::FMad;
        in.a = a.reg;
        in.b = b.reg;
        in.c = c.reg;
        in.lanes = static_cast<std::uint8_t>(L);
        in.aux = round_flag(e->type.scalar);
        if (masked()) in.flags |= kMasked;
        Value v = alloc_arith_dst(L, in);
        release(a);
        release(b);
        release(c);
        return v;
      }
      case ExprKind::LoadGlobal:
        return lower_load_global(e);
      case ExprKind::LoadLocal:
      case ExprKind::LoadPrivate:
        return lower_load_array(e);
      case ExprKind::Select: {
        check(e->kids.size() == 3, "compile: malformed select");
        Value c = lower_int(e->kids[0]);
        if (c.k == Value::K::Const)
          return lower_fp_raw(e->kids[c.cval != 0 ? 1 : 2]);
        if (c.k == Value::K::U) {
          const Value cu = ureg(c);
          Value r;
          r.k = Value::K::VF;
          r.lanes = L;
          r.reg = fresh_vf(L);
          r.level = depth();
          const std::int64_t jz = emit(jump(Op::JzU, cu.reg));
          open_if_frame();
          move_fp_into(r, lower_fp(e->kids[1], L), L, masked());
          close_if_frame();
          const std::int64_t jend = emit(jump(Op::Jmp, 0));
          patch(frames_.back().body, jz, pos());
          open_if_frame();
          move_fp_into(r, lower_fp(e->kids[2], L), L, masked());
          close_if_frame();
          patch(frames_.back().body, jend, pos());
          return r;
        }
        Value r;
        r.k = Value::K::VF;
        r.lanes = L;
        r.reg = fresh_vf(L);
        r.level = depth();
        lower_branch_v(e->kids[0], e->kids[1], e->kids[2], c, r, L);
        return r;
      }
      default: {
        // Integer-only node in floating position: evaluate for effects,
        // result lanes are zero.
        Value iv = lower_int(e);
        (void)iv;
        Insn in;
        in.op = Op::FConst;
        in.lanes = static_cast<std::uint8_t>(L);
        in.imm = static_cast<std::int64_t>(out_.fpool.size());
        for (int l = 0; l < L; ++l) out_.fpool.push_back(0.0);
        return emit_fp_pure(in, L, depth());
      }
    }
  }

  /// Destination for a counting floating op (never hoisted, never VN'd).
  Value alloc_arith_dst(int lanes, Insn in) {
    Value v;
    v.k = Value::K::VF;
    v.lanes = lanes;
    v.reg = alloc_vf_temp(lanes);
    v.temp = true;
    v.level = depth();
    in.dst = v.reg;
    emit(in);
    return v;
  }

  // ---- memory access lowering ----------------------------------------------

  /// Fills addressing fields from a lowered index value. Returns the index
  /// value so callers can release temps.
  void set_address(Insn& in, const Value& idx) {
    if (idx.k == Value::K::Const) {
      in.flags |= kImmAddr;
      in.imm = idx.cval;
    } else if (idx.k == Value::K::U) {
      in.flags |= kBUni;
      in.b = idx.reg;
    } else {
      in.b = idx.reg;
    }
  }

  Value lower_load_global(const ExprPtr& e) {
    check(e->kids.size() == 1, "compile: malformed load");
    check(e->arg >= 0 && e->arg < static_cast<int>(k_.args.size()),
          "compile: argument index out of range");
    const ArgInfo& arg = k_.args[static_cast<std::size_t>(e->arg)];
    check(arg.kind == ArgKind::GlobalPtr || arg.kind == ArgKind::GlobalConstPtr,
          "compile: global load from non-pointer argument " + arg.name);
    Value idx = lower_int(e->kids[0]);
    const int L = e->type.lanes;
    Insn in;
    in.op = Op::LoadG;
    in.a = e->arg;
    in.lanes = static_cast<std::uint8_t>(L);
    in.aux = arg.elem == Scalar::F32 ? kElemF32 : 0;
    if (masked()) in.flags |= kMasked;
    set_address(in, idx);
    return alloc_arith_dst(L, in);
  }

  Value lower_load_array(const ExprPtr& e) {
    check(e->kids.size() == 1, "compile: malformed load");
    const bool local = e->kind == ExprKind::LoadLocal;
    Value idx = lower_int(e->kids[0]);
    bool bad = false;
    const std::int32_t arr =
        array_id(e->slot, local ? AddrSpace::Local : AddrSpace::Private, &bad);
    const int L = e->type.lanes;
    if (bad) {
      emit_throw("interp: bad symbol slot");
      Insn in;
      in.op = Op::FConst;
      in.lanes = static_cast<std::uint8_t>(L);
      in.imm = static_cast<std::int64_t>(out_.fpool.size());
      for (int l = 0; l < L; ++l) out_.fpool.push_back(0.0);
      return emit_fp_pure(in, L, depth());
    }
    const ArrayRef& ref = out_.arrays[static_cast<std::size_t>(arr)];
    if (idx.k == Value::K::Const &&
        !(idx.cval >= 0 && idx.cval + L <= ref.len)) {
      // Constant out-of-range access: the tree evaluates the index then
      // throws at the load; emit the exact message.
      emit_throw(oob_message(ref, idx.cval, L, /*store=*/false));
      Insn in;
      in.op = Op::FConst;
      in.lanes = static_cast<std::uint8_t>(L);
      in.imm = static_cast<std::int64_t>(out_.fpool.size());
      for (int l = 0; l < L; ++l) out_.fpool.push_back(0.0);
      return emit_fp_pure(in, L, depth());
    }
    Insn in;
    in.op = local ? Op::LoadL : Op::LoadP;
    in.a = arr;
    in.lanes = static_cast<std::uint8_t>(e->type.lanes);
    in.aux = e->type.scalar == Scalar::F64 ? kCount8 : 0;
    if (masked()) in.flags |= kMasked;
    set_address(in, idx);
    return alloc_arith_dst(L, in);
  }

  static std::string oob_message(const ArrayRef& ref, std::int64_t idx,
                                 int lanes, bool store) {
    return strf("%s array '%s' %s out of range: index %lld + %d lanes, %zu "
                "elements",
                ref.local ? "local" : "private", ref.name.c_str(),
                store ? "store" : "load", static_cast<long long>(idx), lanes,
                static_cast<std::size_t>(ref.len));
  }

  // ---- statement lowering --------------------------------------------------

  void lower_stmt(const StmtPtr& s) {
    switch (s->kind) {
      case StmtKind::Assign:
        lower_assign(s);
        break;
      case StmtKind::StorePrivate:
      case StmtKind::StoreLocal:
        lower_store_array(s);
        break;
      case StmtKind::StoreGlobal:
        lower_store_global(s);
        break;
      case StmtKind::For:
        lower_for(s);
        break;
      case StmtKind::If:
        lower_if(s);
        break;
      case StmtKind::Barrier: {
        Insn in;
        in.op = Op::Barrier;
        emit(in);
        break;
      }
      case StmtKind::Comment:
        break;
    }
  }

  void lower_assign(const StmtPtr& s) {
    if (!slot_in_range(s->slot)) {
      emit_throw("interp: bad symbol slot");
      return;
    }
    const Symbol& sym = k_.symbols[static_cast<std::size_t>(s->slot)];
    check(sym.array_len == 0,
          "compile: assignment to array symbol '" + sym.name + "'");
    VarBind& vb = vars_[static_cast<std::size_t>(s->slot)];
    if (s->a->type.is_fp()) {
      if (try_splat_lane_p(s, vb)) return;
      Value v = lower_fp(s->a, s->a->type.lanes);
      Insn in;
      in.op = Op::FMov;
      in.dst = vb.fbase;
      in.a = v.reg;
      in.b = vb.fw;
      in.c = static_cast<std::int32_t>(v.lanes);
      in.lanes = static_cast<std::uint8_t>(v.lanes);
      if (masked()) in.flags |= kMasked;
      emit(in);
      release(v);
      return;
    }
    Value v = lower_int(s->a);
    if (vb.uniform) {
      // The analysis only keeps a variable uniform when every assignment
      // is non-divergent with a structurally uniform RHS.
      const Value u = ureg(v);
      Insn in;
      in.op = Op::UMov;
      in.dst = vb.ireg;
      in.a = u.reg;
      emit(in);
      vb.cur = v.k == Value::K::Const ? v : u;
    } else {
      Insn in;
      if (v.k == Value::K::VI) {
        in.op = Op::VMov;
        in.a = v.reg;
      } else {
        const Value u = ureg(v);
        in.op = Op::VMovU;
        in.a = u.reg;
      }
      in.dst = vb.ireg;
      if (masked()) in.flags |= kMasked;
      emit(in);
      if (masked()) {
        // Items outside the mask keep their old value: reads after the
        // region must use the architectural register.
        invalidate_var(s->slot, depth());
      } else {
        vb.cur = v;
      }
    }
  }

  /// Strength reduction: `var = splat(lane(Apm[const], ln), L)` in
  /// non-divergent code fuses into one SplatLaneP writing the variable
  /// slab directly. Private-array loads and lane/splat movement carry no
  /// counters, so the fusion is observationally identical.
  bool try_splat_lane_p(const StmtPtr& s, VarBind& vb) {
    if (masked()) return false;
    const ExprPtr& sp = s->a;
    if (sp->kind != ExprKind::Splat || sp->kids.size() != 1) return false;
    const ExprPtr& ln = sp->kids[0];
    if (ln->kind != ExprKind::Lane || ln->kids.size() != 1) return false;
    const ExprPtr& ld = ln->kids[0];
    if (ld->kind != ExprKind::LoadPrivate || ld->kids.size() != 1)
      return false;
    if (!slot_in_range(ld->slot)) return false;
    const Symbol& arr_sym = k_.symbols[static_cast<std::size_t>(ld->slot)];
    if (arr_sym.array_len == 0 || arr_sym.space != AddrSpace::Private)
      return false;
    auto idx = const_eval(ld->kids[0]);
    if (!idx) return false;
    const int w = ld->type.lanes;
    if (ln->lane < 0 || ln->lane >= w) return false;
    if (*idx < 0 || *idx + w > arr_sym.array_len) return false;
    Insn in;
    in.op = Op::SplatLaneP;
    in.dst = vb.fbase;
    in.a = array_of_slot_.at(ld->slot);
    in.imm = *idx + ln->lane;
    in.lanes = static_cast<std::uint8_t>(sp->type.lanes);
    in.b = vb.fw;
    emit(in);
    return true;
  }

  void lower_store_array(const StmtPtr& s) {
    const bool local = s->kind == StmtKind::StoreLocal;
    if (!slot_in_range(s->slot)) {
      emit_throw("interp: bad symbol slot");
      return;
    }
    bool bad = false;
    const std::int32_t arr =
        array_id(s->slot, local ? AddrSpace::Local : AddrSpace::Private, &bad);
    const ArrayRef& ref = out_.arrays[static_cast<std::size_t>(arr)];
    Value idx = lower_int(s->a);
    if (!local && idx.k == Value::K::Const &&
        try_fma_pp(s, ref, arr, idx.cval))
      return;
    const int L = s->b->type.lanes;
    if (idx.k == Value::K::Const && !(idx.cval >= 0 && idx.cval + L <= ref.len)) {
      // The tree evaluates index, then value (counters fire), then throws
      // at the bounds check.
      Value v = lower_fp(s->b, L);
      release(v);
      emit_throw(oob_message(ref, idx.cval, L, /*store=*/true));
      return;
    }
    Value v = lower_fp(s->b, L);
    Insn in;
    in.op = local ? Op::StoreL : Op::StoreP;
    in.a = arr;
    in.c = v.reg;
    in.lanes = static_cast<std::uint8_t>(L);
    in.aux = s->b->type.scalar == Scalar::F64 ? kCount8 : 0;
    if (masked()) in.flags |= kMasked;
    set_address(in, idx);
    emit(in);
    release(v);
  }

  /// Strength reduction of the unrolled rank-1 update:
  /// `Cpm[ci] = mad(A, Bpm[bi], Cpm[ci])` with constant in-range private
  /// addresses fuses into FmaPP — one instruction per work-item iteration
  /// carrying the exact flop/mad counters of the tree's Mad evaluation.
  bool try_fma_pp(const StmtPtr& s, const ArrayRef& cref, std::int32_t carr,
                  std::int64_t ci) {
    if (masked()) return false;
    const ExprPtr& m = s->b;
    if (m->kind != ExprKind::Mad || m->kids.size() != 3) return false;
    const ExprPtr& b = m->kids[1];
    const ExprPtr& c = m->kids[2];
    if (b->kind != ExprKind::LoadPrivate || c->kind != ExprKind::LoadPrivate)
      return false;
    if (c->slot != s->slot) return false;
    auto bi = const_eval(b->kids.size() == 1 ? b->kids[0] : nullptr);
    auto ci2 = const_eval(c->kids.size() == 1 ? c->kids[0] : nullptr);
    if (!bi || !ci2 || *ci2 != ci) return false;
    const int L = m->type.lanes;
    if (b->type.lanes != L || c->type.lanes != L) return false;
    if (!slot_in_range(b->slot)) return false;
    const Symbol& bsym = k_.symbols[static_cast<std::size_t>(b->slot)];
    if (bsym.array_len == 0 || bsym.space != AddrSpace::Private) return false;
    if (*bi < 0 || *bi + L > bsym.array_len) return false;
    if (ci < 0 || ci + L > cref.len) return false;
    // The multiplicand may be any expression; a read of a variable whose
    // slab holds all L lanes skips the normalization copy (the slab is read
    // directly at its own width).
    const ExprPtr& a = m->kids[0];
    const VarBind* var =
        a->kind == ExprKind::VarRef && slot_in_range(a->slot) &&
                k_.symbols[static_cast<std::size_t>(a->slot)].array_len == 0
            ? &vars_[static_cast<std::size_t>(a->slot)]
            : nullptr;
    Value av;
    int stride;
    if (var && var->fw >= L) {
      av.k = Value::K::VF;
      av.reg = var->fbase;
      stride = var->fw;
    } else {
      av = lower_fp(a, L);
      stride = L;
    }
    Insn in;
    in.op = Op::FmaPP;
    in.dst = static_cast<std::int32_t>(ci);
    in.a = carr;
    in.b = array_of_slot_.at(b->slot);
    in.c = av.reg;
    in.imm = *bi;
    in.lanes = static_cast<std::uint8_t>(L);
    in.aux = static_cast<std::uint8_t>((stride << 3) |
                                       round_flag(m->type.scalar));
    emit(in);
    release(av);
    return true;
  }

  void lower_store_global(const StmtPtr& s) {
    check(s->arg >= 0 && s->arg < static_cast<int>(k_.args.size()),
          "compile: argument index out of range");
    const ArgInfo& arg = k_.args[static_cast<std::size_t>(s->arg)];
    if (arg.kind != ArgKind::GlobalPtr) {
      // The tree checks writability before evaluating any operand.
      emit_throw("store to read-only/global-const argument " + arg.name);
      return;
    }
    Value idx = lower_int(s->a);
    const int L = s->b->type.lanes;
    Value v = lower_fp(s->b, L);
    Insn in;
    in.op = Op::StoreG;
    in.a = s->arg;
    in.c = v.reg;
    in.lanes = static_cast<std::uint8_t>(L);
    in.aux = arg.elem == Scalar::F32 ? kElemF32 : 0;
    if (masked()) in.flags |= kMasked;
    set_address(in, idx);
    emit(in);
    release(v);
  }

  void lower_if(const StmtPtr& s) {
    Value c = lower_int(s->a);
    if (c.k == Value::K::Const) {
      // A constant condition either always runs the body with the current
      // mask or always skips it.
      if (c.cval != 0)
        for (const auto& inner : s->body) lower_stmt(inner);
      return;
    }
    std::vector<int> assigned;
    collect_assigned(s->body, assigned);
    if (c.k == Value::K::U) {
      const Value cu = ureg(c);
      const std::int64_t jz = emit(jump(Op::JzU, cu.reg));
      open_if_frame();
      for (const auto& inner : s->body) lower_stmt(inner);
      close_if_frame();
      patch(frames_.back().body, jz, pos());
      for (int slot : assigned) invalidate_var(slot, depth());
      return;
    }
    const Value cv = vireg(c);
    Insn mp;
    mp.op = Op::MaskPush;
    mp.a = cv.reg;
    emit(mp);
    note_mask_depth();
    const std::int64_t jn = emit(jump(Op::JNone, 0));
    ++divergent_;
    open_if_frame();
    for (const auto& inner : s->body) lower_stmt(inner);
    close_if_frame();
    --divergent_;
    // Skip lands on the MaskPop so the mask is restored either way.
    patch(frames_.back().body, jn, pos());
    Insn pop;
    pop.op = Op::MaskPop;
    emit(pop);
    unnote_mask_depth();
    for (int slot : assigned) invalidate_var(slot, depth());
  }

  void lower_for(const StmtPtr& s) {
    if (!slot_in_range(s->slot)) {
      emit_throw("interp: bad symbol slot");
      return;
    }
    const Symbol& sym = k_.symbols[static_cast<std::size_t>(s->slot)];
    check(sym.array_len == 0,
          "compile: loop variable is array symbol '" + sym.name + "'");
    VarBind& vb = vars_[static_cast<std::size_t>(s->slot)];
    Value a = lower_int(s->a);
    Value b = lower_int(s->b);
    Value c = lower_int(s->c);
    const bool bounds_uniform = a.k != Value::K::VI && b.k != Value::K::VI &&
                                c.k != Value::K::VI && divergent_ == 0;
    std::int32_t cnt, lim, stp;
    std::int64_t forcheck = -1;
    if (bounds_uniform) {
      if (c.k == Value::K::Const && c.cval <= 0) {
        // Uniformity holds trivially, so the tree's next check fires.
        emit_throw("for: non-positive step");
        return;
      }
      if (a.k == Value::K::Const && b.k == Value::K::Const &&
          c.k == Value::K::Const && a.cval >= b.cval) {
        return;  // provably zero iterations, step already checked positive
      }
      const Value ua = ureg(a), ub = ureg(b), uc = ureg(c);
      if (c.k != Value::K::Const) {
        Insn sc;
        sc.op = Op::UStepCheck;
        sc.a = uc.reg;
        emit(sc);
      }
      cnt = fresh_u();
      lim = ub.reg;
      stp = uc.reg;
      Insn mv;
      mv.op = Op::UMov;
      mv.dst = cnt;
      mv.a = ua.reg;
      emit(mv);
    } else {
      const Value va = vireg(a), vb2 = vireg(b), vc = vireg(c);
      cnt = fresh_u();
      lim = fresh_u();
      stp = fresh_u();
      check(lim == cnt + 1 && stp == cnt + 2,
            "compile: ForCheckV register triple not consecutive");
      Insn fc;
      fc.op = Op::ForCheckV;
      fc.dst = cnt;
      fc.a = va.reg;
      fc.b = vb2.reg;
      fc.c = vc.reg;
      forcheck = emit(fc);
    }
    std::vector<int> assigned;
    collect_assigned(s->body, assigned);
    frames_.push_back(make_frame(Frame::Kind::Loop, depth() + 1));
    const int body_depth = frames_.back().depth;
    for (int slot : assigned) invalidate_var(slot, body_depth);
    // Body reads of the loop variable forward the uniform counter (its
    // value is group-uniform even in the varying-bounds case — verified).
    Value cur;
    cur.k = Value::K::U;
    cur.reg = cnt;
    cur.level = body_depth;
    cur.vn = fresh_vn();
    vb.cur = cur;
    // Architectural per-iteration write so post-loop reads observe the
    // last executed induction value (the tree leaves it there).
    {
      Insn mv;
      if (vb.uniform) {
        mv.op = Op::UMov;
      } else {
        mv.op = Op::VMovU;
        if (divergent_ > 0) mv.flags |= kMasked;
      }
      mv.dst = vb.ireg;
      mv.a = cnt;
      emit(mv);
    }
    for (const auto& inner : s->body) lower_stmt(inner);
    Frame body = std::move(frames_.back());
    frames_.pop_back();
    // Assemble: [head: exit test] body [advance; jump head] exit.
    const std::int64_t head = pos();
    Insn jge;
    jge.op = Op::JgeU;
    jge.a = cnt;
    jge.b = lim;
    const std::int64_t exit_jump = emit(jge);
    append_stream(std::move(body.body));
    Insn add;
    add.op = Op::UAdd;
    add.dst = cnt;
    add.a = cnt;
    add.b = stp;
    emit(add);
    Insn back;
    back.op = Op::Jmp;
    back.imm = head;
    emit(back);
    patch(frames_.back().body, exit_jump, pos());
    if (forcheck >= 0) patch(frames_.back().body, forcheck, pos());
    for (int slot : assigned) invalidate_var(slot, depth());
    invalidate_var(s->slot, depth());
  }

  const Kernel& k_;
  Analysis analysis_;
  CompiledKernel out_;
  std::vector<Frame> frames_;
  std::vector<VarBind> vars_;
  std::map<int, std::int32_t> array_of_slot_;
  std::map<std::int64_t, int> const_vns_;
  std::map<int, std::vector<std::int32_t>> vf_free_;
  int n_u_ = 0, n_vi_ = 0, n_vf_ = 0;
  int next_vn_ = 1;
  int divergent_ = 0;
  int mask_depth_ = 0;
};

}  // namespace

std::string serialize_kernel(const Kernel& kernel) {
  std::string out = "gemmtune-kir-v1";
  put_str(out, kernel.name);
  put_u8(out, static_cast<unsigned>(kernel.precision));
  put_i64(out, kernel.reqd_local[0]);
  put_i64(out, kernel.reqd_local[1]);
  put_i64(out, static_cast<std::int64_t>(kernel.args.size()));
  for (const ArgInfo& a : kernel.args) {
    put_str(out, a.name);
    put_u8(out, static_cast<unsigned>(a.kind));
    put_u8(out, static_cast<unsigned>(a.elem));
  }
  put_i64(out, static_cast<std::int64_t>(kernel.symbols.size()));
  for (const Symbol& s : kernel.symbols) {
    put_str(out, s.name);
    put_type(out, s.type);
    put_i64(out, s.array_len);
    put_u8(out, static_cast<unsigned>(s.space));
    put_i64(out, s.storage);
  }
  put_i64(out, static_cast<std::int64_t>(kernel.body.size()));
  for (const StmtPtr& s : kernel.body) ser_stmt(out, s);
  return out;
}

CompiledKernelPtr compile(const Kernel& kernel) {
  if (trace::enabled()) trace::counter_add("interp.compiles", 1);
  trace::Span span("interp.compile");
  Compiler c(kernel);
  return std::make_shared<const CompiledKernel>(c.run());
}

void compiled_cache_clear() {}

}  // namespace gemmtune::ir
