#include "tuner/shape.hpp"

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "layout/packing.hpp"

namespace gemmtune::tuner {

using codegen::KernelParams;

void fail_shape_extent(index_t n) {
  fail(strf("shape class: extent %lld is over the limit of %lld",
            static_cast<long long>(n),
            static_cast<long long>(kMaxShapeExtent)));
}

KernelParams direct_variant(const KernelParams& p) {
  KernelParams q = p;
  q.vw = 1;
  q.algo = codegen::Algorithm::BA;
  q.layout_a = BlockLayout::RowMajor;
  q.layout_b = BlockLayout::RowMajor;
  return q;
}

ShapeCost shape_cost(const perfmodel::PerfModel& model, const KernelParams& p,
                     index_t M, index_t N, index_t K, bool direct_enabled) {
  ShapeCost out;
  const double flops = 2.0 * static_cast<double>(M) *
                       static_cast<double>(N) * static_cast<double>(K);

  // Packed path: pack A, pack B, pack C, unpack C — each moves one padded
  // buffer through global memory (the paper's copy overhead, amortized as
  // O(N^2)/O(N^3)) — then the tuned kernel on the padded extents.
  {
    const PackedExtents ext = checked_packed_extents(
        M, N, K, p.Mwg, p.Nwg, p.Kwg, element_bytes(p.prec));
    const auto es = static_cast<std::uint64_t>(element_bytes(p.prec));
    const double copy =
        model.copy_seconds(es * static_cast<std::uint64_t>(ext.Kp * ext.Mp)) +
        model.copy_seconds(es * static_cast<std::uint64_t>(ext.Kp * ext.Np)) +
        model.copy_seconds(es * static_cast<std::uint64_t>(ext.Mp * ext.Np)) +
        model.copy_seconds(es * static_cast<std::uint64_t>(ext.Mp * ext.Np));
    const auto e = model.kernel_estimate(p, ext.Mp, ext.Np, ext.Kp);
    if (e.ok) {
      out.ok = out.pack_ok = true;
      out.copy_seconds = copy;
      out.kernel_seconds = e.seconds;
      out.seconds = copy + e.seconds;
    } else {
      out.reason = e.reason;
    }
  }

  // Direct path: run the guarded in-place kernel when it is usable and
  // cheaper (it wins at small sizes where the O(N^2) copy is not
  // amortized). Strided in-place accesses cost more than the packed
  // kernel's unit-stride block-major reads, and bounds checks add a little
  // on top.
  if (direct_enabled) {
    const KernelParams q = direct_variant(p);
    if (!validate(q, model.spec())) {
      const bool guarded =
          M % q.Mwg != 0 || N % q.Nwg != 0 || K % q.Kwg != 0;
      // The model requires tile-aligned extents; the guarded kernel does
      // the padded amount of work (its guards zero the phantom fringe).
      const PackedExtents ext = checked_packed_extents(
          M, N, K, q.Mwg, q.Nwg, q.Kwg, element_bytes(q.prec));
      const auto e = model.kernel_estimate(q, ext.Mp, ext.Np, ext.Kp);
      if (e.ok) {
        const double secs = e.seconds * model.calib().direct_penalty *
                            (guarded ? kDirectGuardPenalty : 1.0);
        if (!out.ok || secs < out.seconds) {
          out.ok = true;
          out.used_direct = true;
          out.copy_seconds = 0;
          out.kernel_seconds = secs;
          out.seconds = secs;
        }
      }
    }
  }

  if (out.ok) out.gflops = safe_gflops(flops, out.seconds);
  return out;
}

}  // namespace gemmtune::tuner
