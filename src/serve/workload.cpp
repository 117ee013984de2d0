#include "serve/workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/keyval.hpp"
#include "common/report_version.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace gemmtune::serve {

using codegen::Precision;

namespace {

struct Shape {
  index_t M, N, K;
};

// The size palettes of the mixture. Quantized-popular sizes plus a couple
// of deliberately unaligned ones (50, 100) so the shape-class bucketing is
// exercised by every default workload.
constexpr Shape kSmall[] = {
    {16, 16, 16},   {32, 32, 32},  {48, 48, 48},
    {50, 50, 50},   {64, 64, 64},  {64, 64, 32},
    {96, 96, 96},   {100, 100, 100}, {128, 128, 128},
    {128, 64, 64},
};
constexpr Shape kMedium[] = {
    {256, 256, 256}, {384, 384, 384}, {512, 512, 512},
    {512, 256, 256}, {768, 768, 768},
};
constexpr Shape kLarge[] = {
    {1024, 1024, 1024},
    {1536, 1536, 1536},
    {2048, 2048, 2048},
};

// Per-class latency budget: generous at the default rate (the acceptance
// bar is zero deadline violations there) yet tight enough that a
// saturating workload visibly expires requests.
constexpr double kSmallDeadline = 0.10;
constexpr double kMediumDeadline = 0.30;
constexpr double kLargeDeadline = 2.0;

Precision parse_precision(const std::string& s) {
  if (s == to_string(Precision::DP)) return Precision::DP;
  if (s == to_string(Precision::SP)) return Precision::SP;
  fail("workload: unknown precision '" + s + "'");
}

GemmType parse_type(const std::string& s) {
  for (GemmType t : all_gemm_types()) {
    if (s == to_string(t)) return t;
  }
  fail("workload: unknown GEMM type '" + s + "'");
}

std::int64_t parse_int(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const std::int64_t n = std::stoll(value, &used);
    check(used == value.size(),
          "workload spec: " + key + " expects an integer, got '" + value +
              "'");
    return n;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    fail("workload spec: " + key + " expects an integer, got '" + value +
         "'");
  }
}

/// parse_int() of an int field; a value outside int's range is refused,
/// naming the key and the range.
int parse_int32(const std::string& key, const std::string& value) {
  constexpr int lo = std::numeric_limits<int>::min();
  constexpr int hi = std::numeric_limits<int>::max();
  const std::int64_t n = parse_int(key, value);
  if (n < lo || n > hi)
    fail(strf("workload spec: %s is %lld, outside the range [%d, %d]",
              key.c_str(), static_cast<long long>(n), lo, hi));
  return static_cast<int>(n);
}

double parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double d = std::stod(value, &used);
    check(used == value.size(),
          "workload spec: " + key + " expects a number, got '" + value +
              "'");
    return d;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    fail("workload spec: " + key + " expects a number, got '" + value + "'");
  }
}

/// obj.at(key) as a T. A number outside T's range is refused, naming the
/// field (`where`.key, or `where`[index].key) and the range.
template <typename T>
T int_field(const Json& obj, const char* key, const char* where,
            std::size_t index = std::string::npos) {
  constexpr std::int64_t lo = std::numeric_limits<T>::min();
  constexpr std::int64_t hi = std::numeric_limits<T>::max();
  const Json& v = obj.at(key);
  if (const std::optional<std::int64_t> n = v.int_in(lo, hi))
    return static_cast<T>(*n);
  const std::string field =
      index == std::string::npos
          ? strf("%s.%s", where, key)
          : strf("%s[%zu].%s", where, index, key);
  fail(strf("workload: %s is %s, outside the range [%lld, %lld]",
            field.c_str(), v.dump().c_str(), static_cast<long long>(lo),
            static_cast<long long>(hi)));
}

}  // namespace

Arrival parse_arrival(const std::string& context, const std::string& value) {
  if (value == "poisson") return Arrival::Poisson;
  if (value == "uniform") return Arrival::Uniform;
  if (value == "burst") return Arrival::Burst;
  fail_unknown_value(context, value, {"poisson", "uniform", "burst"});
}

std::vector<simcl::DeviceId> WorkloadSpec::resolved_devices() const {
  return devices.empty() ? simcl::evaluation_devices() : devices;
}

WorkloadSpec parse_spec(const std::string& text) {
  WorkloadSpec spec;
  for (const auto& [key, value] : parse_keyval_spec(text, "workload spec")) {
    if (key == "requests") {
      spec.requests = parse_int32(key, value);
      check(spec.requests > 0, "workload spec: requests must be > 0");
    } else if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(parse_int(key, value));
    } else if (key == "rate") {
      spec.rate_rps = parse_double(key, value);
      check(spec.rate_rps > 0, "workload spec: rate must be > 0");
    } else if (key == "arrival") {
      spec.arrival = parse_arrival("workload spec: arrival", value);
    } else if (key == "max_batch") {
      spec.max_batch = parse_int32(key, value);
      check(spec.max_batch >= 1, "workload spec: max_batch must be >= 1");
    } else if (key == "queue") {
      spec.queue_capacity = parse_int32(key, value);
      check(spec.queue_capacity >= 1, "workload spec: queue must be >= 1");
    } else if (key == "devices") {
      spec.devices.clear();
      std::istringstream ds(value);
      std::string name;
      while (std::getline(ds, name, '+'))
        spec.devices.push_back(simcl::device_by_name(name));
      check(!spec.devices.empty(), "workload spec: devices list is empty");
    } else {
      fail_unknown_key("workload spec", key,
                       {"requests", "seed", "rate", "arrival", "devices",
                        "max_batch", "queue"});
    }
  }
  return spec;
}

std::vector<GemmRequest> generate_workload(const WorkloadSpec& spec) {
  Rng rng(spec.seed);
  std::vector<GemmRequest> out;
  out.reserve(static_cast<std::size_t>(spec.requests));
  double t = 0;
  for (int i = 0; i < spec.requests; ++i) {
    // Fixed draw order per request — interarrival, class, shape,
    // precision, type, priority — so the stream is a pure function of the
    // seed regardless of how any draw is consumed downstream. Every
    // arrival process consumes the interarrival draw (even when it ignores
    // it), so the request *mixture* is identical across processes.
    const double u = rng.next_double();
    switch (spec.arrival) {
      case Arrival::Poisson:
        t += -std::log(1.0 - u) / spec.rate_rps;
        break;
      case Arrival::Uniform:
        t += 1.0 / spec.rate_rps;
        break;
      case Arrival::Burst:
        // kBurstSize requests land at one instant; the gap between bursts
        // is exponential with mean kBurstSize/rate, preserving the rate.
        if (i % kBurstSize == 0)
          t += -std::log(1.0 - u) * kBurstSize / spec.rate_rps;
        break;
    }
    const double cls = rng.next_double();
    const Shape* palette;
    std::size_t palette_size;
    double deadline_budget;
    if (cls < 0.70) {
      palette = kSmall;
      palette_size = std::size(kSmall);
      deadline_budget = kSmallDeadline;
    } else if (cls < 0.95) {
      palette = kMedium;
      palette_size = std::size(kMedium);
      deadline_budget = kMediumDeadline;
    } else {
      palette = kLarge;
      palette_size = std::size(kLarge);
      deadline_budget = kLargeDeadline;
    }
    const Shape s = palette[rng.next_below(palette_size)];
    GemmRequest r;
    r.id = i;
    r.M = s.M;
    r.N = s.N;
    r.K = s.K;
    r.prec = rng.next_double() < 0.5 ? Precision::DP : Precision::SP;
    const double ty = rng.next_double();
    r.type = ty < 0.70   ? GemmType::NN
             : ty < 0.80 ? GemmType::NT
             : ty < 0.90 ? GemmType::TN
                         : GemmType::TT;
    const double pr = rng.next_double();
    r.priority = pr < 0.80 ? 0 : pr < 0.95 ? 1 : 2;
    r.arrival_seconds = t;
    r.deadline_seconds = t + deadline_budget;
    out.push_back(r);
  }
  return out;
}

Json workload_json(const WorkloadSpec& spec,
                   const std::vector<GemmRequest>& requests) {
  Json doc = Json::object();
  doc["schema"] = kWorkloadSchema;
  Json sp = Json::object();
  sp["seed"] = static_cast<std::int64_t>(spec.seed);
  sp["requests"] = spec.requests;
  sp["rate_rps"] = spec.rate_rps;
  sp["arrival"] = to_string(spec.arrival);
  Json devs = Json::array();
  for (simcl::DeviceId id : spec.resolved_devices())
    devs.push_back(simcl::to_string(id));
  sp["devices"] = std::move(devs);
  sp["max_batch"] = spec.max_batch;
  sp["queue_capacity"] = spec.queue_capacity;
  doc["spec"] = std::move(sp);
  Json reqs = Json::array();
  for (const GemmRequest& r : requests) {
    Json j = Json::object();
    j["id"] = r.id;
    j["type"] = to_string(r.type);
    j["prec"] = to_string(r.prec);
    j["m"] = r.M;
    j["n"] = r.N;
    j["k"] = r.K;
    j["priority"] = r.priority;
    j["arrival_s"] = r.arrival_seconds;
    j["deadline_s"] = r.deadline_seconds;
    reqs.push_back(std::move(j));
  }
  doc["requests"] = std::move(reqs);
  return doc;
}

Workload workload_from_json(const Json& doc) {
  check(doc.contains("schema") &&
            doc.at("schema").as_string() == kWorkloadSchema,
        "workload: not a " + std::string(kWorkloadSchema) + " document");
  Workload w;
  const Json& sp = doc.at("spec");
  w.spec.seed =
      static_cast<std::uint64_t>(int_field<std::int64_t>(sp, "seed", "spec"));
  w.spec.requests = int_field<int>(sp, "requests", "spec");
  w.spec.rate_rps = sp.at("rate_rps").as_number();
  // Traces written before the arrival key existed are Poisson by
  // construction, so the absent-field default keeps them loading.
  if (sp.contains("arrival"))
    w.spec.arrival =
        parse_arrival("workload spec: arrival", sp.at("arrival").as_string());
  const Json& devs = sp.at("devices");
  for (std::size_t i = 0; i < devs.size(); ++i)
    w.spec.devices.push_back(simcl::device_by_name(devs.at(i).as_string()));
  w.spec.max_batch = int_field<int>(sp, "max_batch", "spec");
  w.spec.queue_capacity = int_field<int>(sp, "queue_capacity", "spec");
  const Json& reqs = doc.at("requests");
  check(reqs.size() == static_cast<std::size_t>(w.spec.requests),
        "workload: spec.requests is " + std::to_string(w.spec.requests) +
            " but the trace lists " + std::to_string(reqs.size()) +
            " requests");
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Json& j = reqs.at(i);
    GemmRequest r;
    r.id = int_field<std::int64_t>(j, "id", "requests", i);
    r.type = parse_type(j.at("type").as_string());
    r.prec = parse_precision(j.at("prec").as_string());
    r.M = int_field<index_t>(j, "m", "requests", i);
    r.N = int_field<index_t>(j, "n", "requests", i);
    r.K = int_field<index_t>(j, "k", "requests", i);
    check(r.M > 0 && r.N > 0 && r.K > 0,
          "workload: request " + std::to_string(r.id) +
              " has non-positive extents");
    r.priority = int_field<int>(j, "priority", "requests", i);
    r.arrival_seconds = j.at("arrival_s").as_number();
    r.deadline_seconds = j.at("deadline_s").as_number();
    w.requests.push_back(r);
  }
  std::sort(w.requests.begin(), w.requests.end(),
            [](const GemmRequest& a, const GemmRequest& b) {
              return a.arrival_seconds != b.arrival_seconds
                         ? a.arrival_seconds < b.arrival_seconds
                         : a.id < b.id;
            });
  return w;
}

void save_workload_file(const std::string& path, const WorkloadSpec& spec,
                        const std::vector<GemmRequest>& requests) {
  // Same crash-safety discipline as TunedDatabase::save_file: a reader
  // never observes a half-written trace.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    check(f.good(), "save_workload_file: cannot open " + tmp);
    f << workload_json(spec, requests).dump(2) << "\n";
    f.flush();
    check(f.good(), "save_workload_file: write failed for " + tmp);
  }
  check(std::rename(tmp.c_str(), path.c_str()) == 0,
        "save_workload_file: cannot rename " + tmp + " -> " + path);
}

Workload load_workload_file(const std::string& path) {
  std::ifstream f(path);
  check(f.good(), "load_workload_file: cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  // A file that is not JSON is corrupt; a well-formed one whose contents
  // disagree is invalid.
  Json doc;
  try {
    doc = Json::parse(ss.str());
  } catch (const Error& e) {
    fail("load_workload_file: corrupt workload trace '" + path +
         "': " + e.what());
  }
  try {
    return workload_from_json(doc);
  } catch (const Error& e) {
    fail("load_workload_file: invalid workload trace '" + path +
         "': " + e.what());
  }
}

}  // namespace gemmtune::serve
