#include "enum_oracle.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/rng.hpp"

namespace gemmtune::tuner {

using codegen::Algorithm;
using codegen::KernelParams;
using codegen::Precision;

namespace {

constexpr int kMwg[] = {16, 32, 48, 64, 96, 128};
constexpr int kNwg[] = {16, 32, 48, 64, 96, 128};
constexpr int kKwg[] = {8, 16, 32, 48, 64, 96, 192};
constexpr int kDim[] = {4, 8, 16, 24, 32};
constexpr int kKwi[] = {1, 2, 4, 8, 16, 24};
constexpr int kVw[] = {1, 2, 4, 8};

struct Reservoir {
  std::uint64_t budget;
  Rng rng;
  std::vector<KernelParams> out;
};

}  // namespace

OracleResult oracle_enumerate(simcl::DeviceId id, Precision prec,
                              bool include_row_major,
                              const std::vector<OracleSample>& samples) {
  const simcl::DeviceSpec& dev = simcl::device_spec(id);
  std::vector<BlockLayout> layouts = {BlockLayout::CBL, BlockLayout::RBL};
  if (include_row_major) layouts.push_back(BlockLayout::RowMajor);

  std::vector<Reservoir> reservoirs;
  for (const OracleSample& s : samples)
    reservoirs.push_back({static_cast<std::uint64_t>(s.max_candidates),
                          Rng(s.seed ^ 0xC0FFEEu),
                          {}});
  OracleResult r;
  EnumStats& st = r.stats;
  const auto keep = [&](const KernelParams& p) {
    const auto k = static_cast<std::uint64_t>(++st.valid);
    for (Reservoir& res : reservoirs) {
      if (res.out.size() < res.budget) {
        res.out.push_back(p);
      } else {
        const std::uint64_t j = res.rng.next_below(k);
        if (j < res.budget) res.out[static_cast<std::size_t>(j)] = p;
      }
    }
  };

  for (int Mwg : kMwg) {
    for (int Nwg : kNwg) {
      for (int Kwg : kKwg) {
        for (int MdimC : kDim) {
          if (Mwg % MdimC != 0) continue;
          for (int NdimC : kDim) {
            if (Nwg % NdimC != 0) continue;
            const int wg = MdimC * NdimC;
            if (wg > dev.max_workgroup_size || wg < 16) continue;
            const int Mwi = Mwg / MdimC;
            const int Nwi = Nwg / NdimC;
            if (Mwi > 8 || Nwi > 12) continue;
            for (int Kwi : kKwi) {
              if (Kwg % Kwi != 0) continue;
              for (int vw : kVw) {
                if (Mwi % vw != 0 || Nwi % vw != 0) continue;
                for (int share = 0; share < 4; ++share) {
                  for (Algorithm algo :
                       {Algorithm::BA, Algorithm::PL, Algorithm::DB}) {
                    if (algo != Algorithm::BA && share == 0) continue;
                    for (int MdimA :
                         {MdimC, wg >= 2 * MdimC ? 2 * MdimC : MdimC}) {
                      for (int NdimB :
                           {NdimC, wg >= 2 * NdimC ? 2 * NdimC : NdimC}) {
                        for (int stride = 0; stride < 4; ++stride) {
                          for (BlockLayout la : layouts) {
                            for (BlockLayout lb : layouts) {
                              ++st.raw_combinations;
                              KernelParams p;
                              p.prec = prec;
                              p.Mwg = Mwg;
                              p.Nwg = Nwg;
                              p.Kwg = Kwg;
                              p.MdimC = MdimC;
                              p.NdimC = NdimC;
                              p.MdimA = MdimA;
                              p.NdimB = NdimB;
                              p.Kwi = Kwi;
                              p.vw = vw;
                              p.share_a = (share & 1) != 0;
                              p.share_b = (share & 2) != 0;
                              p.stride_m = (stride & 1) != 0;
                              p.stride_n = (stride & 2) != 0;
                              p.layout_a = la;
                              p.layout_b = lb;
                              p.algo = algo;
                              if (validate(p, dev)) {
                                ++st.invalid;
                                continue;
                              }
                              keep(p);
                            }
                          }
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }

  for (const Reservoir& res : reservoirs) {
    std::vector<std::pair<std::string, KernelParams>> keyed;
    for (const KernelParams& p : res.out) keyed.emplace_back(p.key(), p);
    std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    std::vector<KernelParams>& list = r.lists.emplace_back();
    for (const auto& kp : keyed) list.push_back(kp.second);
  }
  return r;
}

}  // namespace gemmtune::tuner
