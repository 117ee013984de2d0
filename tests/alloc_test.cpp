// Allocation guard: pricing a candidate allocates nothing. A model_topk
// shape-class tune calls shape_cost for each of ~20 000 candidates, and a
// heap allocation per passing check on that path once halved the tuner's
// throughput. This binary replaces the global operator new to count the
// allocations made on the calling thread.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "codegen/paper_kernels.hpp"
#include "common/error.hpp"
#include "layout/packing.hpp"
#include "perfmodel/model.hpp"
#include "tuner/shape.hpp"

namespace {
thread_local std::size_t t_allocations = 0;

void* counted_alloc(std::size_t n) noexcept {
  ++t_allocations;
  return std::malloc(n > 0 ? n : 1);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gemmtune {
namespace {

using codegen::KernelParams;
using codegen::Precision;

/// Heap allocations `fn` makes on this thread.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = t_allocations;
  fn();
  return t_allocations - before;
}

TEST(AllocGuard, CountsAllocationsOnThisThread) {
  static void* volatile sink = nullptr;
  EXPECT_EQ(allocations_in([] {
              sink = ::operator new(8);
              ::operator delete(sink);
            }),
            1u);
}

TEST(AllocGuard, PassingLiteralCheckAllocatesNothing) {
  EXPECT_EQ(allocations_in([] {
              for (int i = 0; i < 1000; ++i)
                check(i >= 0,
                      "alloc_test: a literal message longer than any "
                      "short-string buffer");
            }),
            0u);
}

TEST(AllocGuard, CheckedPackedExtentsAllocatesNothing) {
  index_t sum = 0;
  EXPECT_EQ(allocations_in([&] {
              for (index_t n = 1; n <= 1000; ++n)
                sum += checked_packed_extents(n, 2 * n, 3 * n, 64, 96, 16, 8)
                           .Kp;
            }),
            0u);
  EXPECT_GT(sum, 0);
}

TEST(AllocGuard, ShapeCostOfEveryTableIIKernelAllocatesNothing) {
  for (simcl::DeviceId id : simcl::evaluation_devices()) {
    const perfmodel::PerfModel model(id);
    for (Precision prec : {Precision::DP, Precision::SP}) {
      const KernelParams p = codegen::table2_entry(id, prec).params;
      const KernelParams q = tuner::direct_variant(p);
      SCOPED_TRACE(simcl::to_string(id) + " " + to_string(prec));
      ASSERT_EQ(codegen::validate(q, model.spec()), nullptr);
      // A problem both paths price: the packed kernel and the direct
      // variant each pass the model at their padded extents.
      index_t n = 0;
      for (index_t m : {384, 512, 768, 1024, 256, 192, 128}) {
        const PackedExtents a = packed_extents(m, m, m, p.Mwg, p.Nwg, p.Kwg);
        const PackedExtents b = packed_extents(m, m, m, q.Mwg, q.Nwg, q.Kwg);
        if (model.kernel_estimate(p, a.Mp, a.Np, a.Kp).ok &&
            model.kernel_estimate(q, b.Mp, b.Np, b.Kp).ok) {
          n = m;
          break;
        }
      }
      ASSERT_GT(n, 0) << "no problem size prices both paths";
      EXPECT_TRUE(tuner::shape_cost(model, p, n, n, n).pack_ok);
      double total = 0;
      EXPECT_EQ(allocations_in([&] {
                  for (int i = 0; i < 1000; ++i)
                    total += tuner::shape_cost(model, p, n, n, n).gflops;
                }),
                0u);
      EXPECT_GT(total, 0);
    }
  }
}

}  // namespace
}  // namespace gemmtune
