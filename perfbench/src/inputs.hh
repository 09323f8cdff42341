/**
 * @file
 * Seeded input generators for the scan and serve workloads. Every
 * generator is a pure function of its arguments, so one workload
 * seed always yields byte-identical inputs.
 */

#ifndef LFM_PERFBENCH_INPUTS_HH
#define LFM_PERFBENCH_INPUTS_HH

#include <cstdint>
#include <string>

#include "bugs/kernel.hh"
#include "trace/trace.hh"

namespace perfbench
{

/** The trace of one RandomPolicy execution of a kernel variant. */
lfm::trace::Trace kernelTrace(const lfm::bugs::BugKernel &kernel,
                              lfm::bugs::Variant variant,
                              std::uint64_t seed);

/** A randprog execution. Race-free ones are generated with every
 * access under a consistently assigned lock. */
lfm::trace::Trace randprogTrace(bool raceFree, int opsPerThread,
                                std::uint64_t seed);

/**
 * A raw pthread-style event log in the replay importer's grammar:
 * a main thread that allocates a buffer, creates `threads` workers,
 * joins them and frees the buffer; workers mix locked and unlocked
 * reads and writes over a few shared words. Every line is valid and
 * the replay never stalls, so imports are clean.
 */
std::string rawLog(int threads, int opsPerThread, std::uint64_t seed);

/** Long synthetic trace, most accesses on one contended variable
 * (the shape that makes pairwise race passes quadratic). */
lfm::trace::Trace hotTrace(std::size_t events, std::uint64_t seed);

/** Long synthetic trace spread over many variables and threads (the
 * shape where indexing dominates). */
lfm::trace::Trace wideTrace(std::size_t events, std::uint64_t seed);

} // namespace perfbench

#endif // LFM_PERFBENCH_INPUTS_HH
