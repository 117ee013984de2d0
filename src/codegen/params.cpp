#include "codegen/params.hpp"

#include <charconv>
#include <iterator>

#include "common/error.hpp"
#include "common/intmath.hpp"
#include "common/strings.hpp"

namespace gemmtune::codegen {

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::BA: return "BA";
    case Algorithm::PL: return "PL";
    case Algorithm::DB: return "DB";
  }
  return "?";
}

Algorithm algorithm_from_string(const std::string& s) {
  if (s == "BA") return Algorithm::BA;
  if (s == "PL") return Algorithm::PL;
  if (s == "DB") return Algorithm::DB;
  fail("unknown algorithm '" + s + "'");
}

std::string KernelParams::summary() const {
  const char* stride =
      stride_m ? (stride_n ? "M,N" : "M") : (stride_n ? "N" : "-");
  const char* shared =
      share_a ? (share_b ? "A,B" : "A") : (share_b ? "B" : "-");
  return strf(
      "%s wg=%d,%d,%d wi=%d,%d,%d dimC=%d,%d dimA=%d,%d dimB=%d,%d vw=%d "
      "stride=%s shared=%s layout=%s,%s %s",
      to_string(prec), Mwg, Nwg, Kwg, Mwi(), Nwi(), Kwi, MdimC, NdimC, MdimA,
      KdimA(), KdimB(), NdimB, vw, stride, shared,
      gemmtune::to_string(layout_a), gemmtune::to_string(layout_b),
      to_string(algo));
}

std::string KernelParams::key() const {
  // "%c.%d.%d.%d.%d.%d.%d.%d.%d.%d.%d%d.%d%d.%s.%s.%s", formatted by hand:
  // the tuner keys every candidate it keeps, and snprintf dominated that.
  std::string k;
  k.reserve(64);
  k += prec == Precision::SP ? 's' : 'd';
  char digits[16];
  for (int v : {Mwg, Nwg, Kwg, MdimC, NdimC, MdimA, NdimB, Kwi, vw}) {
    k += '.';
    k.append(digits, std::to_chars(digits, std::end(digits), v).ptr);
  }
  k += stride_m ? ".1" : ".0";
  k += stride_n ? '1' : '0';
  k += share_a ? ".1" : ".0";
  k += share_b ? '1' : '0';
  for (const char* name : {gemmtune::to_string(layout_a),
                           gemmtune::to_string(layout_b), to_string(algo)}) {
    k += '.';
    k += name;
  }
  return k;
}

Json KernelParams::to_json() const {
  Json j = Json::object();
  j["prec"] = std::string(to_string(prec));
  j["Mwg"] = Mwg;
  j["Nwg"] = Nwg;
  j["Kwg"] = Kwg;
  j["MdimC"] = MdimC;
  j["NdimC"] = NdimC;
  j["MdimA"] = MdimA;
  j["NdimB"] = NdimB;
  j["Kwi"] = Kwi;
  j["vw"] = vw;
  j["stride_m"] = stride_m;
  j["stride_n"] = stride_n;
  j["share_a"] = share_a;
  j["share_b"] = share_b;
  j["layout_a"] = std::string(gemmtune::to_string(layout_a));
  j["layout_b"] = std::string(gemmtune::to_string(layout_b));
  j["algo"] = std::string(to_string(algo));
  return j;
}

KernelParams KernelParams::from_json(const Json& j) {
  KernelParams p;
  p.prec = j.at("prec").as_string() == "SGEMM" ? Precision::SP : Precision::DP;
  p.Mwg = static_cast<int>(j.at("Mwg").as_int());
  p.Nwg = static_cast<int>(j.at("Nwg").as_int());
  p.Kwg = static_cast<int>(j.at("Kwg").as_int());
  p.MdimC = static_cast<int>(j.at("MdimC").as_int());
  p.NdimC = static_cast<int>(j.at("NdimC").as_int());
  p.MdimA = static_cast<int>(j.at("MdimA").as_int());
  p.NdimB = static_cast<int>(j.at("NdimB").as_int());
  p.Kwi = static_cast<int>(j.at("Kwi").as_int());
  p.vw = static_cast<int>(j.at("vw").as_int());
  p.stride_m = j.at("stride_m").as_bool();
  p.stride_n = j.at("stride_n").as_bool();
  p.share_a = j.at("share_a").as_bool();
  p.share_b = j.at("share_b").as_bool();
  p.layout_a = block_layout_from_string(j.at("layout_a").as_string());
  p.layout_b = block_layout_from_string(j.at("layout_b").as_string());
  p.algo = algorithm_from_string(j.at("algo").as_string());
  return p;
}

const char* validate(const KernelParams& p, const simcl::DeviceSpec& dev) {
  if (p.Mwg <= 0 || p.Nwg <= 0 || p.Kwg <= 0 || p.MdimC <= 0 ||
      p.NdimC <= 0 || p.MdimA <= 0 || p.NdimB <= 0 || p.Kwi <= 0)
    return "non-positive parameter";
  if (p.vw != 1 && p.vw != 2 && p.vw != 4 && p.vw != 8 && p.vw != 16)
    return "vector width not in {1,2,4,8,16}";
  if (p.wg_size() > dev.max_workgroup_size)
    return "work-group exceeds device limit";
  if (p.Mwg % p.MdimC != 0) return "MdimC does not divide Mwg";
  if (p.Nwg % p.NdimC != 0) return "NdimC does not divide Nwg";
  if (p.Kwg % p.Kwi != 0) return "Kwi does not divide Kwg";
  if (p.Mwi() % p.vw != 0) return "vw does not divide Mwi";
  if (p.Nwi() % p.vw != 0) return "vw does not divide Nwi";
  // The local-fill reshape must tile the A/B blocks exactly (Section III-C:
  // "reshaping the block is possible as long as the shapes completely
  // overlay the corresponding matrix").
  if (p.share_a) {
    if (p.wg_size() % p.MdimA != 0)
      return "MdimA does not divide work-group size";
    if (p.Mwg % p.MdimA != 0) return "MdimA does not divide Mwg";
    if (p.Kwg % p.KdimA() != 0) return "KdimA does not divide Kwg";
  }
  if (p.share_b) {
    if (p.wg_size() % p.NdimB != 0)
      return "NdimB does not divide work-group size";
    if (p.Nwg % p.NdimB != 0) return "NdimB does not divide Nwg";
    if (p.Kwg % p.KdimB() != 0) return "KdimB does not divide Kwg";
  }
  if (p.local_mem_bytes() > static_cast<std::int64_t>(dev.local_mem_bytes()))
    return "local memory exceeds device capacity";
  if ((p.algo == Algorithm::PL || p.algo == Algorithm::DB) && !p.share_a &&
      !p.share_b)
    return "PL/DB require local memory for at least one matrix";
  if (p.algo == Algorithm::DB) {
    // Fig. 6 double-buffers half-tiles of Kwg/2 rows.
    if (p.Kwg % 2 != 0) return "DB requires even Kwg";
    if ((p.Kwg / 2) % p.Kwi != 0)
      return "DB requires Kwi to divide Kwg/2";
    if (p.share_a && (p.Kwg / 2) % p.KdimA() != 0)
      return "DB requires KdimA to divide Kwg/2";
    if (p.share_b && (p.Kwg / 2) % p.KdimB() != 0)
      return "DB requires KdimB to divide Kwg/2";
  }
  // Hard register-file limit: a work-group whose private data cannot fit in
  // the compute unit's register file will not launch ("failed in
  // compilation or testing").
  const double priv_bytes =
      static_cast<double>(p.private_elements()) * element_bytes(p.prec) *
      p.wg_size();
  if (dev.is_gpu() && priv_bytes > dev.register_bytes_per_cu())
    return "register file exceeded";
  return nullptr;
}

}  // namespace gemmtune::codegen
