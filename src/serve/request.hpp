// Request/response types of the GEMM serving subsystem.
//
// A GemmRequest is one C <- alpha*op(A)*op(B) + beta*C problem submitted
// to the service at a simulated arrival time, with a priority and an
// absolute deadline. The scheduler coalesces requests of the same
// ShapeClass — precision, multiplication type and tile-quantized extents —
// into batches that one device dispatch serves together (the batched-GEMM
// pattern of real serving traffic, where a handful of popular shapes
// dominate). The quantization to multiples of 16 lets near-miss shapes
// (e.g. 50^3 and 64^3) share a guarded launch geometry, exactly like the
// guarded direct kernel handles non-divisible fringes.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>

#include "codegen/params.hpp"
#include "layout/gemm_type.hpp"
#include "layout/matrix.hpp"
#include "simcl/device_registry.hpp"
#include "tuner/shape.hpp"

namespace gemmtune::serve {

/// One GEMM problem submitted to the service.
struct GemmRequest {
  std::int64_t id = 0;
  GemmType type = GemmType::NN;
  codegen::Precision prec = codegen::Precision::DP;
  index_t M = 0, N = 0, K = 0;
  int priority = 0;              ///< higher dispatches first
  double arrival_seconds = 0;    ///< simulated submission time
  /// Absolute simulated deadline; a request still queued past it is
  /// rejected instead of dispatched. <= 0 means no deadline.
  double deadline_seconds = 0;

  double flops() const {
    return 2.0 * static_cast<double>(M) * static_cast<double>(N) *
           static_cast<double>(K);
  }
  bool expired_at(double clock) const {
    return deadline_seconds > 0 && clock > deadline_seconds;
  }
};

/// Batching key: requests of one shape class share a single dispatch.
/// The definition lives in tuner/shape.hpp so the tuner can key searches
/// and databases per class; re-exported here (with its to_string) so
/// serving code keeps naming it serve::ShapeClass.
using ShapeClass = tuner::ShapeClass;
using tuner::to_string;

/// Terminal state of a request.
enum class RequestStatus {
  Completed,          ///< served; latency/batch fields are filled
  RejectedQueueFull,  ///< backpressure: the bounded queue was full on arrival
  RejectedDeadline    ///< still queued past its deadline at dispatch time
};

inline const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::Completed: return "completed";
    case RequestStatus::RejectedQueueFull: return "rejected_queue_full";
    case RequestStatus::RejectedDeadline: return "rejected_deadline";
  }
  return "?";
}

/// Outcome of one request, in simulated time.
struct GemmResponse {
  std::int64_t request_id = -1;
  RequestStatus status = RequestStatus::Completed;
  double finish_seconds = 0;   ///< completion (or rejection) time
  double latency_seconds = 0;  ///< finish - arrival (completed only)
  double wait_seconds = 0;     ///< queue wait before dispatch
  int device_index = -1;       ///< index into the server's device list
  std::int64_t batch_id = -1;
  int batch_size = 0;
  bool used_direct = false;    ///< served by the copy-free direct path
};

}  // namespace gemmtune::serve
