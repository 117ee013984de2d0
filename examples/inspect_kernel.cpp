// Prints the OpenCL C source of a generated GEMM kernel — by default the
// paper's fastest Tahiti SGEMM kernel (Table II). With `native` it prints
// the C++ translation unit the native JIT would compile for that kernel
// instead, at the host's probed vector width, so the straight-line runs
// the emitter forms can be read without a toolchain.
//
//   build/examples/inspect_kernel [device] [SGEMM|DGEMM] [native]
//   e.g. build/examples/inspect_kernel Fermi DGEMM
//        build/examples/inspect_kernel Tahiti SGEMM native
#include <cstdio>
#include <string>

#include "codegen/gemm_generator.hpp"
#include "codegen/paper_kernels.hpp"
#include "kernelir/compile.hpp"
#include "kernelir/emit.hpp"
#include "kernelir/native.hpp"

using namespace gemmtune;

int main(int argc, char** argv) {
  const std::string device = argc > 1 ? argv[1] : "Tahiti";
  const std::string prec_s = argc > 2 ? argv[2] : "SGEMM";
  const bool native = argc > 3 && std::string(argv[3]) == "native";
  const simcl::DeviceId id = simcl::device_by_name(device);
  const codegen::Precision prec =
      prec_s == "DGEMM" ? codegen::Precision::DP : codegen::Precision::SP;

  const auto entry = codegen::table2_entry(id, prec);
  std::printf("// fastest %s kernel on %s (Table II): %s\n", prec_s.c_str(),
              device.c_str(), entry.params.summary().c_str());
  std::printf("// paper-reported maximum: %.0f GFlop/s (%.0f%% of peak)\n\n",
              entry.max_gflops, 100 * entry.efficiency);
  const ir::Kernel k = codegen::generate_gemm_kernel(entry.params);
  if (native) {
    const ir::CompiledKernelPtr prog = ir::compile(k);
    std::printf("%s", ir::emit_native_source(k, *prog,
                                             ir::native_simd_width())
                          .c_str());
    return 0;
  }
  std::printf("%s", ir::emit_opencl(k).c_str());
  std::printf("\n// local memory: %lld bytes; private elements/work-item: "
              "%lld\n",
              static_cast<long long>(k.local_mem_bytes()),
              static_cast<long long>(k.private_scalars()));
  return 0;
}
