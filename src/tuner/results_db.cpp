#include "tuner/results_db.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "codegen/paper_kernels.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

namespace gemmtune::tuner {

using codegen::KernelParams;
using codegen::Precision;

TunedKernel profile_kernel(simcl::DeviceId id, const KernelParams& params,
                           std::int64_t stage2_max_n) {
  SearchEngine engine(id);
  SearchOptions opt;
  opt.stage2_max_n = stage2_max_n;
  return engine.profile_candidate(params, opt);
}

std::string TunedDatabase::key(simcl::DeviceId id, Precision prec,
                               const std::optional<ShapeClass>& shape) {
  std::string k = simcl::to_string(id);
  k += '/';
  k += to_string(prec);
  if (shape) {
    k += '@';
    k += to_string(*shape);
  }
  return k;
}

TunedDatabase::TunedDatabase(TunedDatabase&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  results_ = std::move(other.results_);
}

TunedDatabase& TunedDatabase::operator=(TunedDatabase&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    results_ = std::move(other.results_);
  }
  return *this;
}

std::size_t TunedDatabase::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return results_.size();
}

std::optional<TunedKernel> TunedDatabase::find(
    simcl::DeviceId id, Precision prec,
    const std::optional<ShapeClass>& shape) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = results_.find(key(id, prec, shape));
  if (it == results_.end()) return std::nullopt;
  return it->second;
}

void TunedDatabase::put(simcl::DeviceId id, Precision prec,
                        TunedKernel result) {
  put(id, prec, std::nullopt, std::move(result));
}

void TunedDatabase::put(simcl::DeviceId id, Precision prec,
                        const std::optional<ShapeClass>& shape,
                        TunedKernel result) {
  std::lock_guard<std::mutex> lock(mu_);
  results_[key(id, prec, shape)] = std::move(result);
}

const TunedKernel& TunedDatabase::get_or_tune(simcl::DeviceId id,
                                              Precision prec,
                                              const SearchOptions& opt) {
  return get_or_tune(id, prec, opt.shape, [&]() {
    SearchEngine engine(id);
    return engine.tune(prec, opt);
  });
}

const TunedKernel& TunedDatabase::get_or_tune(
    simcl::DeviceId id, Precision prec,
    const std::optional<ShapeClass>& shape,
    const std::function<TunedKernel()>& tune_fn) {
  const std::string k = key(id, prec, shape);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = results_.find(k);
    if (it != results_.end()) return it->second;
    if (!tuning_.contains(k)) break;
    // Another thread is tuning this key; wait for it instead of running a
    // duplicate multi-second search.
    cv_.wait(lock);
  }
  tuning_.insert(k);
  lock.unlock();
  TunedKernel tuned;
  try {
    tuned = tune_fn();
  } catch (...) {
    lock.lock();
    tuning_.erase(k);
    cv_.notify_all();
    throw;
  }
  lock.lock();
  auto it = results_.emplace(k, std::move(tuned)).first;
  tuning_.erase(k);
  cv_.notify_all();
  return it->second;
}

std::string TunedDatabase::save_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json root = Json::object();
  for (const auto& [k, t] : results_) {
    Json entry = Json::object();
    entry["params"] = t.params.to_json();
    entry["stage1_gflops"] = t.stage1_gflops;
    entry["best_gflops"] = t.best_gflops;
    entry["best_n"] = t.best_n;
    Json curve = Json::array();
    for (const auto& [n, g] : t.curve) {
      Json pt = Json::array();
      pt.push_back(n);
      pt.push_back(g);
      curve.push_back(std::move(pt));
    }
    entry["curve"] = std::move(curve);
    if (t.shape) {
      // Precision is already carried by the params; store the rest of the
      // class so old readers (which ignore unknown fields) keep working.
      Json sc = Json::object();
      sc["type"] = std::string(to_string(t.shape->type));
      sc["Mc"] = t.shape->Mc;
      sc["Nc"] = t.shape->Nc;
      sc["Kc"] = t.shape->Kc;
      entry["shape_class"] = std::move(sc);
    }
    root[k] = std::move(entry);
  }
  return root.dump(2);
}

TunedDatabase TunedDatabase::load_json(const std::string& text) {
  TunedDatabase db;
  const Json root = Json::parse(text);
  for (const auto& [k, entry] : root.items()) {
    TunedKernel t;
    t.params = KernelParams::from_json(entry.at("params"));
    t.stage1_gflops = entry.at("stage1_gflops").as_number();
    t.best_gflops = entry.at("best_gflops").as_number();
    t.best_n = entry.at("best_n").as_int();
    const Json& curve = entry.at("curve");
    for (std::size_t i = 0; i < curve.size(); ++i) {
      t.curve.emplace_back(curve.at(i).at(std::size_t{0}).as_int(),
                           curve.at(i).at(std::size_t{1}).as_number());
    }
    if (entry.contains("shape_class")) {
      // Databases written before shape-class keys existed simply lack this
      // field; their rows load as class-agnostic results.
      const Json& sc = entry.at("shape_class");
      ShapeClass s;
      s.prec = t.params.prec;
      s.type = gemm_type_from_string(sc.at("type").as_string());
      s.Mc = sc.at("Mc").as_int();
      s.Nc = sc.at("Nc").as_int();
      s.Kc = sc.at("Kc").as_int();
      t.shape = s;
    }
    db.results_[k] = std::move(t);
  }
  return db;
}

void TunedDatabase::save_file(const std::string& path) const {
  // Crash-safe: write the full document to a sibling temp file, then
  // rename it over the destination, so a reader (or a crash mid-write)
  // never observes a truncated database.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    check(f.good(), "save_file: cannot open " + tmp);
    f << save_json();
    f.flush();
    check(f.good(), "save_file: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail("save_file: cannot rename " + tmp + " -> " + path);
  }
}

TunedDatabase TunedDatabase::load_file(const std::string& path) {
  std::ifstream f(path);
  check(f.good(), "load_file: cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  try {
    return load_json(ss.str());
  } catch (const Error& e) {
    fail("load_file: corrupt tuning database '" + path + "': " + e.what());
  }
}

TunedDatabase TunedDatabase::paper_seeded() {
  TunedDatabase db;
  for (simcl::DeviceId id : simcl::all_devices()) {
    for (Precision prec : {Precision::DP, Precision::SP}) {
      const auto entry = codegen::table2_entry(id, prec);
      db.put(id, prec, profile_kernel(id, entry.params));
    }
  }
  return db;
}

}  // namespace gemmtune::tuner
