#include "blas/gemm.hpp"

#include <cstring>
#include <vector>

#include "blas/hostblas.hpp"
#include "codegen/gemm_generator.hpp"
#include "codegen/paper_kernels.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "kernelir/interp.hpp"
#include "kernelir/native.hpp"
#include "layout/packing.hpp"
#include "trace/trace.hpp"
#include "tuner/shape.hpp"

namespace gemmtune::blas {

using codegen::GemmKernelArgs;
using codegen::KernelParams;
using codegen::Precision;

GemmEngine::GemmEngine(simcl::DeviceId id) : id_(id), model_(id) {}

GemmEngine::GemmEngine(simcl::DeviceId id, tuner::TunedDatabase db)
    : id_(id), model_(id), db_(std::move(db)) {}

GemmEngine::~GemmEngine() { ir::settle_native_builds(handles_); }

void GemmEngine::settle_native_builds(
    std::span<const std::unique_ptr<GemmEngine>> engines) {
  std::vector<ir::KernelHandle> handles;
  for (const std::unique_ptr<GemmEngine>& e : engines)
    handles.insert(handles.end(), e->handles_.begin(), e->handles_.end());
  ir::settle_native_builds(handles);
}

bool GemmEngine::wait_native_builds() {
  return ir::wait_native_builds(handles_);
}

const tuner::TunedKernel& GemmEngine::kernel_for(Precision prec) {
  // Seed a miss with the paper's kernel rather than running a full search;
  // a caller who wants freshly searched kernels passes a tuned database in.
  // The database dedups concurrent misses, so the stored row never changes.
  return db_.get_or_tune(id_, prec, std::nullopt, [&] {
    return tuner::profile_kernel(id_,
                                 codegen::table2_entry(id_, prec).params);
  });
}

const ir::PreparedKernel& GemmEngine::kernel_handle(Precision prec,
                                                    bool direct, Transpose ta,
                                                    Transpose tb,
                                                    bool guarded) {
  const ir::Backend tier = ir::resolve_backend(ir::Backend::Auto);
  std::size_t slot = (prec == Precision::SP ? 1u : 0u) |
                     (tier == ir::Backend::Native ? 2u : 0u);
  if (direct)
    slot |= 4u | (ta == Transpose::Yes ? 8u : 0u) |
            (tb == Transpose::Yes ? 16u : 0u) | (guarded ? 32u : 0u);
  std::call_once(prepared_[slot], [&] {
    const KernelParams& p = kernel_for(prec).params;
    const ir::Kernel kernel =
        direct ? codegen::generate_direct_gemm_kernel(
                     tuner::direct_variant(p), ta, tb, guarded)
               : codegen::generate_gemm_kernel(p);
    handles_[slot] = tier == ir::Backend::Native ? ir::prepare_tiered(kernel)
                                                 : ir::prepare(kernel, tier);
  });
  return *handles_[slot];
}

GemmProfile GemmEngine::profile_for(const KernelParams& p, index_t M,
                                    index_t N, index_t K) {
  // The paper's future-work combination: shape_cost prices the packed path
  // against the copy-free direct kernel and returns whichever is cheaper
  // (direct wins at small sizes where the O(N^2) copy is not amortized).
  const tuner::ShapeCost c =
      tuner::shape_cost(model_, p, M, N, K, direct_enabled_);
  if (!c.pack_ok) fail("GemmEngine: tuned kernel rejected: " + c.reason);
  GemmProfile prof;
  prof.total_seconds = c.seconds;
  prof.copy_seconds = c.copy_seconds;
  prof.kernel_seconds = c.kernel_seconds;
  prof.gflops = c.gflops;
  prof.used_direct = c.used_direct;
  return prof;
}

GemmProfile GemmEngine::estimate(GemmType, Precision prec, index_t M,
                                 index_t N, index_t K) {
  trace::counter_add("gemm.estimates", 1);
  const tuner::TunedKernel& t = kernel_for(prec);
  return profile_for(t.params, M, N, K);
}

double GemmEngine::estimate_gflops(GemmType type, Precision prec,
                                   index_t n) {
  return estimate(type, prec, n, n, n).gflops;
}

template <typename T>
GemmProfile GemmEngine::gemm(Transpose ta, Transpose tb, index_t M,
                             index_t N, index_t K, T alpha,
                             const Matrix<T>& A, const Matrix<T>& B, T beta,
                             Matrix<T>& C, bool verify) {
  constexpr Precision prec =
      std::is_same_v<T, float> ? Precision::SP : Precision::DP;
  trace::Span gemm_span("gemm.gemm");
  trace::counter_add("gemm.calls", 1);
  const tuner::TunedKernel& tuned = kernel_for(prec);
  const KernelParams& p = tuned.params;

  // Small-size path: run the copy-free kernel in place when it wins.
  GemmProfile prof_est = profile_for(p, M, N, K);
  if (prof_est.used_direct) {
    trace::Span direct_span("gemm.direct");
    trace::counter_add("gemm.direct_calls", 1);
    const KernelParams q = tuner::direct_variant(p);
    const bool guarded =
        M % q.Mwg != 0 || N % q.Nwg != 0 || K % q.Kwg != 0;
    const PackedExtents dext = packed_extents(M, N, K, q.Mwg, q.Nwg, q.Kwg);
    Matrix<T> Cin;
    if (verify) Cin = C;
    simcl::Context ctx(simcl::device_spec(id_));
    auto dA = ctx.create_buffer(A.size() * sizeof(T));
    auto dB = ctx.create_buffer(B.size() * sizeof(T));
    auto dC = ctx.create_buffer(C.size() * sizeof(T));
    std::memcpy(dA->data(), A.data(), A.size() * sizeof(T));
    std::memcpy(dB->data(), B.data(), B.size() * sizeof(T));
    std::memcpy(dC->data(), C.data(), C.size() * sizeof(T));
    const auto geo = codegen::launch_geometry(q, dext.Mp, dext.Np);
    std::vector<ir::ArgValue> args(11);
    args[codegen::DirectGemmKernelArgs::C] = ir::ArgValue::of(dC);
    args[codegen::DirectGemmKernelArgs::A] = ir::ArgValue::of(dA);
    args[codegen::DirectGemmKernelArgs::B] = ir::ArgValue::of(dB);
    args[codegen::DirectGemmKernelArgs::M] = ir::ArgValue::of_int(M);
    args[codegen::DirectGemmKernelArgs::N] = ir::ArgValue::of_int(N);
    args[codegen::DirectGemmKernelArgs::K] = ir::ArgValue::of_int(K);
    args[codegen::DirectGemmKernelArgs::lda] = ir::ArgValue::of_int(A.ld());
    args[codegen::DirectGemmKernelArgs::ldb] = ir::ArgValue::of_int(B.ld());
    args[codegen::DirectGemmKernelArgs::ldc] = ir::ArgValue::of_int(C.ld());
    args[codegen::DirectGemmKernelArgs::alpha] = ir::ArgValue::of_float(alpha);
    args[codegen::DirectGemmKernelArgs::beta] = ir::ArgValue::of_float(beta);
    ir::launch(kernel_handle(prec, true, ta, tb, guarded), geo.global,
               geo.local, args);
    std::memcpy(C.data(), dC->data(), C.size() * sizeof(T));
    GemmProfile prof = prof_est;
    if (verify) {
      Matrix<T> Cref = Cin;
      hostblas::gemm_parallel(ta, tb, M, N, K, alpha, A, B, beta, Cref);
      prof.max_error = max_abs_diff(C, Cref);
    }
    return prof;
  }
  const PackedExtents ext = packed_extents(M, N, K, p.Mwg, p.Nwg, p.Kwg);

  // Host-side packing stands in for the device-side copy kernels; the
  // simulated cost of those kernels is what profile_for charges.
  simcl::Context ctx(simcl::device_spec(id_));
  simcl::BufferPtr dA, dB, dC;
  std::size_t csize = 0;
  {
    trace::Span pack_span("gemm.pack");
    auto abuf =
        pack_a(A, ta, M, K, ext.Mp, ext.Kp, p.layout_a, p.Mwg, p.Kwg);
    auto bbuf =
        pack_b(B, tb, K, N, ext.Kp, ext.Np, p.layout_b, p.Kwg, p.Nwg);
    auto cbuf = pack_c(C, M, N, ext.Mp, ext.Np);
    csize = cbuf.size();
    dA = ctx.create_buffer(abuf.size() * sizeof(T));
    dB = ctx.create_buffer(bbuf.size() * sizeof(T));
    dC = ctx.create_buffer(cbuf.size() * sizeof(T));
    std::memcpy(dA->data(), abuf.data(), abuf.size() * sizeof(T));
    std::memcpy(dB->data(), bbuf.data(), bbuf.size() * sizeof(T));
    std::memcpy(dC->data(), cbuf.data(), cbuf.size() * sizeof(T));
    trace::counter_add(
        "gemm.pack_bytes",
        (abuf.size() + bbuf.size() + cbuf.size()) * sizeof(T));
  }

  {
    trace::Span kernel_span("gemm.kernel");
    const auto geo = codegen::launch_geometry(p, ext.Mp, ext.Np);
    std::vector<ir::ArgValue> args(8);
    args[GemmKernelArgs::C] = ir::ArgValue::of(dC);
    args[GemmKernelArgs::A] = ir::ArgValue::of(dA);
    args[GemmKernelArgs::B] = ir::ArgValue::of(dB);
    args[GemmKernelArgs::M] = ir::ArgValue::of_int(ext.Mp);
    args[GemmKernelArgs::N] = ir::ArgValue::of_int(ext.Np);
    args[GemmKernelArgs::K] = ir::ArgValue::of_int(ext.Kp);
    args[GemmKernelArgs::alpha] = ir::ArgValue::of_float(alpha);
    args[GemmKernelArgs::beta] = ir::ArgValue::of_float(beta);
    ir::launch(kernel_handle(prec, false, Transpose::No, Transpose::No,
                             false),
               geo.global, geo.local, args);
  }

  Matrix<T> Cin;
  if (verify) Cin = C;
  {
    trace::Span merge_span("gemm.merge");
    std::vector<T> cout(csize);
    std::memcpy(cout.data(), dC->data(), cout.size() * sizeof(T));
    unpack_c(cout, ext.Mp, ext.Np, C, M, N);
    trace::counter_add("gemm.merge_bytes", cout.size() * sizeof(T));
  }

  GemmProfile prof = prof_est;
  if (verify) {
    Matrix<T> Cref = Cin;
    hostblas::gemm_parallel(ta, tb, M, N, K, alpha, A, B, beta, Cref);
    prof.max_error = max_abs_diff(C, Cref);
  }
  return prof;
}

template GemmProfile GemmEngine::gemm(Transpose, Transpose, index_t, index_t,
                                      index_t, float, const Matrix<float>&,
                                      const Matrix<float>&, float,
                                      Matrix<float>&, bool);
template GemmProfile GemmEngine::gemm(Transpose, Transpose, index_t, index_t,
                                      index_t, double, const Matrix<double>&,
                                      const Matrix<double>&, double,
                                      Matrix<double>&, bool);

}  // namespace gemmtune::blas
