/**
 * @file
 * Paper workload table.
 *
 * Pool sizes are in 4 KB pages. For scale: the L1 TLB reaches 64
 * pages, a private L2 TLB 1024 pages (4 MB), a 16/32/64-core shared L2
 * TLB 16 K / 32 K / 64 K pages. Warm pools sit between the private and
 * the large shared reach, so the shared organizations rescue most warm
 * misses -- more of them at higher core counts, as Fig 2 reports.
 * Poor-locality workloads (canneal, gups, xsbench) have large, flat
 * warm pools and big hot sets that overflow the L1 TLB.
 */

#include "workload/spec.hh"

#include "sim/logging.hh"

namespace nocstar::workload
{

namespace
{

std::vector<WorkloadSpec>
buildTable()
{
    std::vector<WorkloadSpec> table;
    auto add = [&](const char *name, std::uint64_t hot,
                   std::uint64_t warm, double warm_alpha,
                   double warm_frac, double cold_frac, double ipa,
                   double base_cpi, double data_stall,
                   double superpages) {
        WorkloadSpec s;
        s.name = name;
        s.hotPages = hot;
        s.warmPages = warm;
        s.warmAlpha = warm_alpha;
        s.coldPages = std::uint64_t{1} << 24; // ~64 GB tail region
        s.warmFraction = warm_frac;
        s.coldFraction = cold_frac;
        s.instructionsPerAccess = ipa;
        s.baseCpi = base_cpi;
        s.dataStallPerAccess = data_stall;
        s.superpageFraction = superpages;
        table.push_back(std::move(s));
    };

    //   name        hot   warm    wA    wF     cF     ipa  cpi  ds   sp
    add("graph500", 96, 24576, 1.18, .26, .0015, 3.0, .50, 1.6, .55);
    add("canneal", 112, 32768, 1.08, .30, .0020, 3.2, .55, 1.8, .50);
    add("xsbench", 104, 28672, 1.12, .28, .0018, 3.0, .50, 1.5, .60);
    add("datacaching", 72, 18432, 1.38, .23, .0010, 3.5, .60, 1.4, .70);
    add("swtesting", 68, 16384, 1.42, .20, .0007, 3.3, .55, 1.3, .65);
    add("graphanalytics", 80, 22528, 1.25, .23, .0012, 3.0, .50, 1.5,
        .60);
    add("nutch", 68, 14336, 1.42, .18, .0007, 3.6, .60, 1.2, .70);
    add("olio", 66, 12288, 1.46, .16, .0005, 3.6, .60, 1.1, .75);
    add("redis", 72, 16384, 1.38, .20, .0010, 3.4, .55, 1.4, .70);
    add("mongodb", 76, 20480, 1.32, .22, .0012, 3.4, .55, 1.5, .65);
    add("gups", 128, 36864, 1.08, .32, .0040, 2.8, .45, 1.8, .60);
    return table;
}

} // namespace

const std::vector<WorkloadSpec> &
paperWorkloads()
{
    static const std::vector<WorkloadSpec> table = buildTable();
    return table;
}

const WorkloadSpec &
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : paperWorkloads()) {
        if (spec.name == name)
            return spec;
    }
    fatal(unknownWorkloadError(name));
}

std::string
unknownWorkloadError(const std::string &name)
{
    std::string known;
    for (const WorkloadSpec &spec : paperWorkloads()) {
        if (spec.name == name)
            return "";
        known += (known.empty() ? "" : ", ") + spec.name;
    }
    return "unknown workload '" + name + "' (expected one of: " + known +
           ")";
}

WorkloadSpec
testWorkload()
{
    WorkloadSpec s;
    s.name = "test";
    s.hotPages = 48;
    s.warmPages = 8192;
    s.warmAlpha = 1.2;
    s.coldPages = 1 << 20;
    s.warmFraction = 0.12;
    s.coldFraction = 0.003;
    s.instructionsPerAccess = 3.0;
    s.baseCpi = 0.6;
    s.dataStallPerAccess = 2.0;
    s.superpageFraction = 0.5;
    return s;
}

} // namespace nocstar::workload
