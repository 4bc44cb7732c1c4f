/**
 * @file
 * Synthetic workload specifications standing in for the paper's
 * Parsec / CloudSuite / HPC benchmarks.
 *
 * We cannot replay the authors' 2 TB Simics traces, so each workload is
 * a parameterized address-stream generator calibrated to the TLB-level
 * statistics the paper reports: private L2 TLB miss rates of 5-18 %, a
 * shared L2 TLB eliminating 70-90 % of those misses (most for the
 * poor-locality workloads canneal / gups / xsbench), and 50-80 % of the
 * footprint superpage-backed under transparent hugepages.
 *
 * The stream mixes three locality tiers:
 *  - a per-thread HOT set sized around the L1 TLB reach (uniform),
 *    modelling the inner-loop working set; its spill fills the L2 TLB
 *    with cheap hits;
 *  - a process-shared WARM pool (Zipf) touched by all threads, sized
 *    between the private and the chip-wide shared L2 TLB reach -- this
 *    is the tier a shared last-level TLB rescues, and the source of
 *    the sharing / implicit-prefetch benefits;
 *  - a COLD uniform tail over a huge region, the irreducible misses
 *    that no TLB capacity can absorb (2 TB footprints).
 */

#ifndef NOCSTAR_WORKLOAD_SPEC_HH
#define NOCSTAR_WORKLOAD_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

namespace nocstar::workload
{

/** Generator parameters for one application. */
struct WorkloadSpec
{
    std::string name;

    /** Pages in each thread's hot set (4 KB units, ~L1 TLB reach). */
    std::uint64_t hotPages = 56;
    /** Pages in the process-shared warm pool. */
    std::uint64_t warmPages = 32768;
    /** Zipf skew of the warm pool (0 = uniform). */
    double warmAlpha = 1.2;
    /** Pages in the cold tail region. */
    std::uint64_t coldPages = std::uint64_t{1} << 24;

    /** Fraction of accesses to the shared warm pool. */
    double warmFraction = 0.13;
    /** Fraction of accesses to the cold tail. */
    double coldFraction = 0.003;

    /** Average instructions between memory accesses. */
    double instructionsPerAccess = 3.0;
    /** Cycles per instruction excluding translation and data stalls. */
    double baseCpi = 0.6;
    /** Average non-translation memory stall cycles per access. */
    double dataStallPerAccess = 2.0;

    /** Fraction of 2 MB regions superpage-backed under THP. */
    double superpageFraction = 0.65;
};

/** The paper's eleven evaluation workloads, in figure order. */
const std::vector<WorkloadSpec> &paperWorkloads();

/** Find a paper workload by name; fatal() if unknown. */
const WorkloadSpec &findWorkload(const std::string &name);

/**
 * Empty when @p name is a paper workload, otherwise the error naming
 * it and listing the valid names (for command-line checks).
 */
std::string unknownWorkloadError(const std::string &name);

/** A small, well-behaved spec for unit tests and the quickstart. */
WorkloadSpec testWorkload();

} // namespace nocstar::workload

#endif // NOCSTAR_WORKLOAD_SPEC_HH
