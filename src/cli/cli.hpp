// Command-line interface, exposed as a library so tests can drive it.
//
// Global options (before the command):
//   --threads N                      worker threads for tuning and kernel
//                                    interpretation (overrides the
//                                    GEMMTUNE_THREADS environment variable)
//   --interp <bytecode|native>       kernel execution tier (overrides the
//                                    GEMMTUNE_INTERP environment variable;
//                                    default bytecode)
//   --trace FILE                     enable tracing; write a Chrome
//                                    trace-event JSON timeline to FILE
//   --metrics FILE                   enable tracing; write the aggregated
//                                    metrics JSON (spans, counters, gauges)
//                                    to FILE
//
// Subcommands:
//   devices                          list the simulated processors
//   emit <device> <DGEMM|SGEMM>      print the tuned kernel's OpenCL C
//   compile <file.cl>                parse an OpenCL kernel, print a summary
//   tune <device> <DGEMM|SGEMM> [budget] [out.json]
//                                    run the two-stage search
//   estimate <device> <DGEMM|SGEMM> <NN|NT|TN|TT> <n>
//                                    implementation-level GFlop/s estimate
//   sweep <device> <DGEMM|SGEMM> <maxN>
//                                    kernel GFlop/s curve
//   verify <device> <DGEMM|SGEMM> <M> <N> <K>
//                                    functional run against the reference
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace gemmtune::cli {

/// Runs one CLI invocation; returns the process exit code. All output goes
/// to `out` (errors included, prefixed "error:").
int run(const std::vector<std::string>& args, std::ostream& out);

}  // namespace gemmtune::cli
