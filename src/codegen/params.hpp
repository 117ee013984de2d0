// The code generator's parameter space (paper Section III).
//
// A KernelParams value fully determines one generated C <- alpha*A^T*B +
// beta*C kernel. The tuner enumerates these; validate() implements the
// structural constraints ("kernels which are failed in code generation...
// are not counted", Section III-F).
#pragma once

#include <string>

#include "common/json.hpp"
#include "layout/block_layout.hpp"
#include "simcl/device_spec.hpp"

namespace gemmtune::codegen {

/// The three GEMM algorithms of Section III-E.
enum class Algorithm {
  BA,  ///< basic (Fig. 4), Volkov-Demmel style
  PL,  ///< software pipelining (Fig. 5), MAGMA/Kurzak style
  DB   ///< double buffering in local memory (Fig. 6), Tan et al. style
};

const char* to_string(Algorithm a);
Algorithm algorithm_from_string(const std::string& s);

/// GEMM precision.
enum class Precision { SP, DP };

inline const char* to_string(Precision p) {
  return p == Precision::SP ? "SGEMM" : "DGEMM";
}
inline int element_bytes(Precision p) { return p == Precision::SP ? 4 : 8; }

/// Complete parameter set for one generated kernel.
///
/// Derived values follow the paper's definitions:
///   Mwi = Mwg / MdimC, Nwi = Nwg / NdimC (work-item blocking)
///   KdimA = MdimC*NdimC / MdimA, KdimB = MdimC*NdimC / NdimB
///   MwiA = Mwg / MdimA, KwiA = Kwg / KdimA (per-item local-fill counts)
///   KwiB = Kwg / KdimB, NwiB = Nwg / NdimB
struct KernelParams {
  Precision prec = Precision::DP;
  // Work-group blocking factors (Section III-A).
  int Mwg = 64, Nwg = 64, Kwg = 16;
  // Work-group shape; work-item blocking is derived.
  int MdimC = 16, NdimC = 16;
  // Local-memory load reshape (Section III-C).
  int MdimA = 16, NdimB = 16;
  // Innermost unroll factor (categorized as a blocking factor).
  int Kwi = 1;
  // Vector width of loads/stores and mads (Section III-B).
  int vw = 1;
  // Non-unit-stride private-C access per direction (Section III-B).
  bool stride_m = false, stride_n = false;
  // Local-memory usage per matrix (Section III-C).
  bool share_a = false, share_b = false;
  // Operand data layouts (Section III-D).
  BlockLayout layout_a = BlockLayout::CBL;
  BlockLayout layout_b = BlockLayout::CBL;
  // Algorithm selection (Section III-E).
  Algorithm algo = Algorithm::BA;

  // Derived blocking values.
  int Mwi() const { return Mwg / MdimC; }
  int Nwi() const { return Nwg / NdimC; }
  int KdimA() const { return MdimC * NdimC / MdimA; }
  int KdimB() const { return MdimC * NdimC / NdimB; }
  int MwiA() const { return Mwg / MdimA; }
  int KwiA() const { return Kwg / KdimA(); }
  int KwiB() const { return Kwg / KdimB(); }
  int NwiB() const { return Nwg / NdimB; }
  int wg_size() const { return MdimC * NdimC; }

  /// Local memory the kernel will declare, in bytes.
  std::int64_t local_mem_bytes() const {
    std::int64_t elems = 0;
    if (share_a) elems += static_cast<std::int64_t>(Kwg) * Mwg;
    if (share_b) elems += static_cast<std::int64_t>(Kwg) * Nwg;
    return elems * element_bytes(prec);
  }

  /// Live private elements per work-item: accumulators, the operand slices
  /// a compiler keeps live at once (at most two of the Kwi unrolled slices —
  /// register allocators reuse the rest), and PL's pipeline registers.
  /// Proxy for register pressure in validation and the occupancy model.
  std::int64_t private_elements() const {
    std::int64_t n = static_cast<std::int64_t>(Mwi()) * Nwi();  // Cpm
    n += static_cast<std::int64_t>(Kwi > 2 ? 2 : Kwi) *
         (Mwi() + Nwi());  // live Apm/Bpm slices
    if (algo == Algorithm::PL) {
      if (share_a) n += static_cast<std::int64_t>(MwiA()) * KwiA();
      if (share_b) n += static_cast<std::int64_t>(KwiB()) * NwiB();
    }
    return n;
  }

  /// One-line summary in the style of a Table II column.
  std::string summary() const;

  /// Stable short identifier for result caching (round-trips all fields).
  std::string key() const;

  Json to_json() const;
  static KernelParams from_json(const Json& j);

  bool operator==(const KernelParams&) const = default;
};

/// Structural validation of a parameter set against a device.
/// Returns nullptr when the kernel can be generated and launched on the
/// device, otherwise the reason it is rejected as a static string. The
/// tuner validates millions of sets, so a rejection allocates nothing.
const char* validate(const KernelParams& p, const simcl::DeviceSpec& dev);

}  // namespace gemmtune::codegen
