#include "tree_oracle.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "kernelir/vm.hpp"

namespace gemmtune::ir {

namespace {

/// Runtime value: an int scalar or up to kMaxLanes floating lanes.
struct Val {
  Type t;
  std::int64_t i = 0;
  std::array<double, kMaxLanes> f{};
};

/// Rounds `v` through the storage precision of `s`.
inline double round_fp(double v, Scalar s) {
  return s == Scalar::F32 ? static_cast<double>(static_cast<float>(v)) : v;
}

// One interpreter execution context: all mutable per-group scratch state
// (work-item registers, private/local arrays, divergence mask, counters).
class Machine {
 public:
  // The plan carries the validated geometry; the storage counts come from
  // the kernel's symbol table (each symbol's `storage` indexes one class).
  Machine(const Kernel& k, const LaunchPlan& plan)
      : k_(k),
        global_(plan.global),
        local_(plan.local),
        args_(*plan.args),
        items_per_group_(plan.items_per_group) {
    for (const auto& sym : k_.symbols) {
      if (sym.array_len == 0) {
        ++n_vars_;
      } else if (sym.space == AddrSpace::Private) {
        ++n_parrays_;
      } else {
        ++n_larrays_;
      }
    }
  }

  /// Runs work-groups [begin, end) of the row-major linearized group space
  /// (group g = (g % ngx, g / ngx)) and returns the counters this Machine
  /// accumulated over them.
  Counters run_range(std::int64_t begin, std::int64_t end) {
    const std::int64_t ngx = global_[0] / local_[0];
    for (std::int64_t g = begin; g < end; ++g) {
      run_group(g % ngx, g / ngx);
    }
    return counters_;
  }

 private:
  // ---- per-group execution --------------------------------------------------

  struct Item {
    std::int64_t lx, ly;
    std::vector<Val> vars;
    std::vector<std::vector<double>> parrays;
  };

  void run_group(std::int64_t gx, std::int64_t gy) {
    gx_ = gx;
    gy_ = gy;
    // Local arrays: shared across the group, zero-initialized per launch
    // semantics are *not* guaranteed by OpenCL, but generated kernels fully
    // initialize what they read; zero-filling makes accidental reads
    // deterministic and testable.
    larrays_.assign(static_cast<std::size_t>(n_larrays_), {});
    for (const auto& sym : k_.symbols) {
      if (sym.array_len > 0 && sym.space == AddrSpace::Local)
        larrays_[static_cast<std::size_t>(sym.storage)].assign(
            static_cast<std::size_t>(sym.array_len), 0.0);
    }
    items_.assign(static_cast<std::size_t>(items_per_group_), Item{});
    active_.assign(static_cast<std::size_t>(items_per_group_), 1);
    std::size_t t = 0;
    for (std::int64_t ly = 0; ly < local_[1]; ++ly) {
      for (std::int64_t lx = 0; lx < local_[0]; ++lx, ++t) {
        Item& it = items_[t];
        it.lx = lx;
        it.ly = ly;
        it.vars.assign(static_cast<std::size_t>(n_vars_), Val{});
        it.parrays.assign(static_cast<std::size_t>(n_parrays_), {});
        for (const auto& sym : k_.symbols) {
          if (sym.array_len > 0 && sym.space == AddrSpace::Private)
            it.parrays[static_cast<std::size_t>(sym.storage)].assign(
                static_cast<std::size_t>(sym.array_len), 0.0);
        }
      }
    }
    for (const auto& s : k_.body) exec(s);
  }

  // ---- statement execution (lockstep) ---------------------------------------

  void exec(const StmtPtr& s) {
    switch (s->kind) {
      case StmtKind::Assign: {
        const Symbol& sym = symbol(s->slot);
        for (std::size_t t = 0; t < items_.size(); ++t) {
          if (!active_[t]) continue;
          Item& it = items_[t];
          it.vars[static_cast<std::size_t>(sym.storage)] = eval(s->a, it);
        }
        break;
      }
      case StmtKind::StorePrivate: {
        const Symbol& sym = symbol(s->slot);
        for (std::size_t t = 0; t < items_.size(); ++t) {
          if (!active_[t]) continue;
          Item& it = items_[t];
          const Val idx = eval(s->a, it);
          const Val v = eval(s->b, it);
          auto& arr = it.parrays[static_cast<std::size_t>(sym.storage)];
          store_to(arr, idx.i, v, sym, /*local=*/false);
        }
        break;
      }
      case StmtKind::StoreLocal: {
        const Symbol& sym = symbol(s->slot);
        for (std::size_t t = 0; t < items_.size(); ++t) {
          if (!active_[t]) continue;
          Item& it = items_[t];
          const Val idx = eval(s->a, it);
          const Val v = eval(s->b, it);
          auto& arr = larrays_[static_cast<std::size_t>(sym.storage)];
          store_to(arr, idx.i, v, sym, /*local=*/true);
        }
        break;
      }
      case StmtKind::StoreGlobal: {
        const ArgInfo& arg = k_.args[static_cast<std::size_t>(s->arg)];
        check(arg.kind == ArgKind::GlobalPtr,
              "store to read-only/global-const argument " + arg.name);
        for (std::size_t t = 0; t < items_.size(); ++t) {
          if (!active_[t]) continue;
          Item& it = items_[t];
          const Val idx = eval(s->a, it);
          const Val v = eval(s->b, it);
          global_store(*args_[static_cast<std::size_t>(s->arg)].buffer,
                       arg.elem, idx.i, v);
        }
        break;
      }
      case StmtKind::For:
        exec_for(s);
        break;
      case StmtKind::If: {
        // Masked divergence: deactivate items whose condition is false,
        // run the body, restore. A real device predicates the same way.
        const std::vector<char> saved = active_;
        for (std::size_t t = 0; t < items_.size(); ++t) {
          if (!active_[t]) continue;
          active_[t] = eval(s->a, items_[t]).i != 0 ? 1 : 0;
        }
        bool any = false;
        for (char a : active_) any = any || a != 0;
        if (any) {
          for (const auto& inner : s->body) exec(inner);
        }
        active_ = saved;
        break;
      }
      case StmtKind::Barrier:
        // Every *active* item has reached this statement under lockstep;
        // a barrier inside a divergent region is undefined behaviour on a
        // real device, so reject it.
        for (char a : active_)
          check(a != 0, "barrier inside divergent control flow");
        ++counters_.barriers;
        break;
      case StmtKind::Comment:
        break;
    }
  }

  void exec_for(const StmtPtr& s) {
    const Symbol& sym = symbol(s->slot);
    // Evaluate bounds in every active item and require uniformity: a
    // barrier inside a non-uniform loop would be undefined behaviour on a
    // real device.
    std::size_t first = items_.size();
    for (std::size_t t = 0; t < items_.size(); ++t) {
      if (active_[t]) {
        first = t;
        break;
      }
    }
    if (first == items_.size()) return;  // fully inactive region
    const Val init0 = eval(s->a, items_[first]);
    const Val limit0 = eval(s->b, items_[first]);
    const Val step0 = eval(s->c, items_[first]);
    for (std::size_t t = first; t < items_.size(); ++t) {
      if (!active_[t]) continue;
      Item& it = items_[t];
      check(eval(s->a, it).i == init0.i && eval(s->b, it).i == limit0.i &&
                eval(s->c, it).i == step0.i,
            "for: non-uniform loop bounds across work-group");
    }
    check(step0.i > 0, "for: non-positive step");
    for (std::int64_t v = init0.i; v < limit0.i; v += step0.i) {
      for (std::size_t t = 0; t < items_.size(); ++t) {
        if (!active_[t]) continue;
        Val& var =
            items_[t].vars[static_cast<std::size_t>(sym.storage)];
        var.t = i32();
        var.i = v;
      }
      for (const auto& inner : s->body) exec(inner);
    }
  }

  // ---- expression evaluation -------------------------------------------------

  Val eval(const ExprPtr& e, Item& it) {
    switch (e->kind) {
      case ExprKind::IntLit: {
        Val v;
        v.t = e->type;
        v.i = e->ival;
        return v;
      }
      case ExprKind::FpLit: {
        Val v;
        v.t = e->type;
        const double x = round_fp(e->fval, e->type.scalar);
        for (int l = 0; l < e->type.lanes; ++l)
          v.f[static_cast<std::size_t>(l)] = x;
        return v;
      }
      case ExprKind::VarRef: {
        // A variable reads at its declared width, as on both tiers: the
        // lanes above the ones its last assignment wrote read 0.
        Val v = it.vars[static_cast<std::size_t>(symbol(e->slot).storage)];
        v.t = e->type;
        return v;
      }
      case ExprKind::ArgRef: {
        const ArgValue& a = args_[static_cast<std::size_t>(e->arg)];
        Val v;
        v.t = e->type;
        if (e->type.is_fp()) {
          v.f[0] = round_fp(a.f, e->type.scalar);
        } else {
          v.i = a.i;
        }
        return v;
      }
      case ExprKind::Builtin: {
        Val v;
        v.t = i32();
        v.i = builtin_value(e->bfn, e->dim, it);
        return v;
      }
      case ExprKind::Bin:
        return eval_bin(e, it);
      case ExprKind::Mad: {
        const Val a = eval(e->kids[0], it);
        const Val b = eval(e->kids[1], it);
        const Val c = eval(e->kids[2], it);
        Val v;
        v.t = e->type;
        for (int l = 0; l < e->type.lanes; ++l) {
          const auto u = static_cast<std::size_t>(l);
          v.f[u] = round_fp(a.f[u] * b.f[u] + c.f[u], e->type.scalar);
        }
        counters_.flops += 2u * static_cast<std::uint64_t>(e->type.lanes);
        ++counters_.mads;
        return v;
      }
      case ExprKind::Splat: {
        const Val s = eval(e->kids[0], it);
        Val v;
        v.t = e->type;
        for (int l = 0; l < e->type.lanes; ++l)
          v.f[static_cast<std::size_t>(l)] = s.f[0];
        return v;
      }
      case ExprKind::Lane: {
        const Val s = eval(e->kids[0], it);
        Val v;
        v.t = e->type;
        v.f[0] = s.f[static_cast<std::size_t>(e->lane)];
        return v;
      }
      case ExprKind::LoadGlobal: {
        const Val idx = eval(e->kids[0], it);
        const ArgInfo& arg = k_.args[static_cast<std::size_t>(e->arg)];
        return global_load(*args_[static_cast<std::size_t>(e->arg)].buffer,
                           arg.elem, idx.i, e->type);
      }
      case ExprKind::LoadLocal: {
        const Val idx = eval(e->kids[0], it);
        const Symbol& sym = symbol(e->slot);
        return array_load(larrays_[static_cast<std::size_t>(sym.storage)],
                          idx.i, e->type, sym, /*local=*/true);
      }
      case ExprKind::LoadPrivate: {
        const Val idx = eval(e->kids[0], it);
        const Symbol& sym = symbol(e->slot);
        return array_load(it.parrays[static_cast<std::size_t>(sym.storage)],
                          idx.i, e->type, sym, /*local=*/false);
      }
      case ExprKind::Select: {
        // Short-circuit: only the taken branch is evaluated, so guarded
        // loads never touch out-of-bounds addresses.
        const Val cond = eval(e->kids[0], it);
        return eval(e->kids[cond.i != 0 ? 1 : 2], it);
      }
    }
    fail("interp: bad expression kind");
  }

  Val eval_bin(const ExprPtr& e, Item& it) {
    const Val a = eval(e->kids[0], it);
    const Val b = eval(e->kids[1], it);
    Val v;
    v.t = e->type;
    switch (e->bop) {
      case BinOp::Add: v.i = a.i + b.i; return v;
      case BinOp::Sub: v.i = a.i - b.i; return v;
      case BinOp::Mul: v.i = a.i * b.i; return v;
      case BinOp::Div:
        check(b.i != 0, "interp: integer division by zero");
        v.i = a.i / b.i;
        return v;
      case BinOp::Mod:
        check(b.i != 0, "interp: integer modulo by zero");
        v.i = a.i % b.i;
        return v;
      case BinOp::Lt:
        v.i = a.i < b.i ? 1 : 0;
        return v;
      case BinOp::And:
        v.i = (a.i != 0 && b.i != 0) ? 1 : 0;
        return v;
      case BinOp::FAdd:
      case BinOp::FSub:
      case BinOp::FMul: {
        for (int l = 0; l < e->type.lanes; ++l) {
          const auto u = static_cast<std::size_t>(l);
          double r = 0;
          if (e->bop == BinOp::FAdd) r = a.f[u] + b.f[u];
          if (e->bop == BinOp::FSub) r = a.f[u] - b.f[u];
          if (e->bop == BinOp::FMul) r = a.f[u] * b.f[u];
          v.f[u] = round_fp(r, e->type.scalar);
        }
        counters_.flops += static_cast<std::uint64_t>(e->type.lanes);
        return v;
      }
    }
    fail("interp: bad binary op");
  }

  std::int64_t builtin_value(BuiltinFn fn, int dim, const Item& it) const {
    const std::int64_t lid = dim == 0 ? it.lx : it.ly;
    const std::int64_t gid = dim == 0 ? gx_ : gy_;
    const std::int64_t lsz = local_[static_cast<std::size_t>(dim)];
    const std::int64_t gsz = global_[static_cast<std::size_t>(dim)];
    switch (fn) {
      case BuiltinFn::GroupId: return gid;
      case BuiltinFn::LocalId: return lid;
      case BuiltinFn::GlobalId: return gid * lsz + lid;
      case BuiltinFn::LocalSize: return lsz;
      case BuiltinFn::NumGroups: return gsz / lsz;
    }
    fail("interp: bad builtin");
  }

  // ---- memory access ----------------------------------------------------------

  Val global_load(const simcl::Buffer& buf, Scalar elem, std::int64_t idx,
                  Type t) {
    const std::int64_t n =
        static_cast<std::int64_t>(buf.size()) / scalar_bytes(elem);
    check(idx >= 0 && idx + t.lanes <= n,
          strf("global load out of range: index %lld + %d lanes, buffer %lld "
               "elements",
               static_cast<long long>(idx), t.lanes,
               static_cast<long long>(n)));
    Val v;
    v.t = t;
    for (int l = 0; l < t.lanes; ++l) {
      const auto u = static_cast<std::size_t>(idx + l);
      v.f[static_cast<std::size_t>(l)] =
          elem == Scalar::F64 ? buf.as<double>()[u]
                              : static_cast<double>(buf.as<float>()[u]);
    }
    counters_.global_load_bytes +=
        static_cast<std::uint64_t>(t.lanes) *
        static_cast<std::uint64_t>(scalar_bytes(elem));
    return v;
  }

  void global_store(simcl::Buffer& buf, Scalar elem, std::int64_t idx,
                    const Val& v) {
    const std::int64_t n =
        static_cast<std::int64_t>(buf.size()) / scalar_bytes(elem);
    check(idx >= 0 && idx + v.t.lanes <= n,
          strf("global store out of range: index %lld + %d lanes, buffer "
               "%lld elements",
               static_cast<long long>(idx), v.t.lanes,
               static_cast<long long>(n)));
    for (int l = 0; l < v.t.lanes; ++l) {
      const auto u = static_cast<std::size_t>(idx + l);
      if (elem == Scalar::F64) {
        buf.as<double>()[u] = v.f[static_cast<std::size_t>(l)];
      } else {
        buf.as<float>()[u] =
            static_cast<float>(v.f[static_cast<std::size_t>(l)]);
      }
    }
    counters_.global_store_bytes +=
        static_cast<std::uint64_t>(v.t.lanes) *
        static_cast<std::uint64_t>(scalar_bytes(elem));
  }

  Val array_load(const std::vector<double>& arr, std::int64_t idx, Type t,
                 const Symbol& sym, bool local) {
    check(idx >= 0 &&
              idx + t.lanes <= static_cast<std::int64_t>(arr.size()),
          strf("%s array '%s' load out of range: index %lld + %d lanes, %zu "
               "elements",
               local ? "local" : "private", sym.name.c_str(),
               static_cast<long long>(idx), t.lanes, arr.size()));
    Val v;
    v.t = t;
    for (int l = 0; l < t.lanes; ++l)
      v.f[static_cast<std::size_t>(l)] = arr[static_cast<std::size_t>(idx + l)];
    const auto bytes = static_cast<std::uint64_t>(t.lanes) *
                       static_cast<std::uint64_t>(scalar_bytes(t.scalar));
    if (local) counters_.local_load_bytes += bytes;
    return v;
  }

  void store_to(std::vector<double>& arr, std::int64_t idx, const Val& v,
                const Symbol& sym, bool local) {
    check(idx >= 0 &&
              idx + v.t.lanes <= static_cast<std::int64_t>(arr.size()),
          strf("%s array '%s' store out of range: index %lld + %d lanes, %zu "
               "elements",
               local ? "local" : "private", sym.name.c_str(),
               static_cast<long long>(idx), v.t.lanes, arr.size()));
    for (int l = 0; l < v.t.lanes; ++l)
      arr[static_cast<std::size_t>(idx + l)] = v.f[static_cast<std::size_t>(l)];
    const auto bytes = static_cast<std::uint64_t>(v.t.lanes) *
                       static_cast<std::uint64_t>(scalar_bytes(v.t.scalar));
    if (local) counters_.local_store_bytes += bytes;
  }

  const Symbol& symbol(int slot) const {
    check(slot >= 0 && slot < static_cast<int>(k_.symbols.size()),
          "interp: bad symbol slot");
    return k_.symbols[static_cast<std::size_t>(slot)];
  }

  const Kernel& k_;
  std::array<std::int64_t, 2> global_, local_;
  const std::vector<ArgValue>& args_;
  std::int64_t items_per_group_ = 0;
  int n_vars_ = 0, n_parrays_ = 0, n_larrays_ = 0;
  std::int64_t gx_ = 0, gy_ = 0;
  std::vector<Item> items_;
  std::vector<char> active_;  // divergence mask (If statements)
  std::vector<std::vector<double>> larrays_;
  Counters counters_;
};

}  // namespace

Counters tree_launch(const Kernel& kernel, std::array<std::int64_t, 2> global,
                     std::array<std::int64_t, 2> local,
                     const std::vector<ArgValue>& args) {
  const LaunchPlan plan(LaunchSignature::of(kernel), global, local, args);
  Machine m(kernel, plan);
  Counters total = m.run_range(0, plan.ngroups);
  total.work_groups = static_cast<std::uint64_t>(plan.ngroups);
  total.work_items = total.work_groups *
                     static_cast<std::uint64_t>(local[0] * local[1]);
  return total;
}

}  // namespace gemmtune::ir
