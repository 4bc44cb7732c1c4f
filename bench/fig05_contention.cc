/**
 * @file
 * Fig 5: for every shared L2 TLB access on a 32-core system, the
 * number of concurrently outstanding shared L2 TLB accesses, bucketed
 * as in the paper (1, 2-4, ..., 29-32).
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    constexpr unsigned cores = 32;
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 6000,
        "Fig 5: concurrent-access distribution at a shared L2 TLB");
    std::vector<bench::SimJob> jobs;
    for (const auto &spec : workload::paperWorkloads())
        jobs.push_back({bench::makeConfig(core::OrgKind::Distributed,
                                          cores, spec),
                        args.accesses});
    bench::SweepHarness harness("fig05_contention", args.run, args.jobs);
    auto results = harness.runMany(jobs);
    const cpu::RunResult *next = results.data();

    static const char *bucket_names[] = {"1", "2-4", "5-8", "9-12",
                                         "13-16", "17-20", "21-24",
                                         "25-28", "29+"};

    std::printf("Fig 5: concurrent shared-L2 accesses per access, "
                "32 cores (fractions)\n");
    std::printf("%-16s", "workload");
    for (const char *b : bucket_names)
        std::printf("%8s", b);
    std::printf("\n");

    std::vector<double> averages(9, 0.0);
    for (const auto &spec : workload::paperWorkloads()) {
        const cpu::RunResult &result = *next++;
        std::printf("%-16s", spec.name.c_str());
        for (std::size_t i = 0; i < 9; ++i) {
            std::printf("%8.3f", result.concurrencyBuckets[i]);
            averages[i] += result.concurrencyBuckets[i] / 11.0;
        }
        std::printf("\n");
    }
    std::printf("%-16s", "average");
    for (double avg : averages)
        std::printf("%8.3f", avg);
    std::printf("\n");
    return 0;
}
