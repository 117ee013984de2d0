#include "simcl/runtime.hpp"

#include <cstring>

namespace gemmtune::simcl {

BufferPtr Context::create_buffer(std::size_t bytes) {
  check(bytes > 0, "Context: zero-sized buffer");
  const double capacity = spec_.global_mem_gb * 1024.0 * 1024.0 * 1024.0;
  if (!(static_cast<double>(allocated_ + bytes) <= capacity))
    fail("Context: device global memory exhausted on " + spec_.code_name);
  allocated_ += bytes;
  return std::make_shared<Buffer>(bytes);
}

double CommandQueue::transfer_seconds(std::size_t bytes) const {
  const double bw = ctx_->device().host_bw_gbs * 1e9;
  // Fixed submission latency plus bandwidth term.
  return 10e-6 + static_cast<double>(bytes) / bw;
}

void CommandQueue::enqueue_write(Buffer& dst, const void* src,
                                 std::size_t bytes, std::size_t dst_offset) {
  check(dst_offset + bytes <= dst.size(), "enqueue_write: out of range");
  std::memcpy(dst.data() + dst_offset, src, bytes);
  const double t = transfer_seconds(bytes);
  elapsed_ += t;
  events_.push_back({"write", t, 0.0, bytes});
}

void CommandQueue::enqueue_read(const Buffer& src, void* dst,
                                std::size_t bytes, std::size_t src_offset) {
  check(src_offset + bytes <= src.size(), "enqueue_read: out of range");
  std::memcpy(dst, src.data() + src_offset, bytes);
  const double t = transfer_seconds(bytes);
  elapsed_ += t;
  events_.push_back({"read", t, 0.0, bytes});
}

void CommandQueue::enqueue_copy(const Buffer& src, Buffer& dst,
                                std::size_t bytes) {
  check(bytes <= src.size() && bytes <= dst.size(),
        "enqueue_copy: out of range");
  std::memcpy(dst.data(), src.data(), bytes);
  // Device-side copies run at global-memory bandwidth (read + write).
  const double bw = ctx_->device().global_bw_gbs * 1e9;
  const double t = 2.0 * static_cast<double>(bytes) / bw +
                   ctx_->device().kernel_launch_us * 1e-6;
  elapsed_ += t;
  events_.push_back({"copy", t, 0.0, bytes});
}

void CommandQueue::enqueue_kernel(const std::string& name, double seconds,
                                  double gflop) {
  check(seconds >= 0, "enqueue_kernel: negative duration");
  elapsed_ += seconds;
  events_.push_back({name, seconds, gflop, 0});
}

void CommandQueue::reset() {
  elapsed_ = 0;
  events_.clear();
}

}  // namespace gemmtune::simcl
