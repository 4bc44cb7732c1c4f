/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot kernels:
 * TLB lookups, fabric arbitration, zipf sampling and full-system
 * stepping. These guard the simulation's own performance (the
 * experiment harnesses run millions of these operations).
 */

#include <benchmark/benchmark.h>

#include "core/interconnect.hh"
#include "cpu/system.hh"
#include "sim/random.hh"
#include "tlb/set_assoc_tlb.hh"
#include "workload/generator.hh"

using namespace nocstar;

namespace
{

void
BM_TlbLookup(benchmark::State &state)
{
    stats::StatGroup g("g");
    tlb::SetAssocTlb tlb("t", 1024, 8, &g);
    Random rng(1);
    for (PageNum v = 0; v < 1024; ++v) {
        tlb::TlbEntry e;
        e.valid = true;
        e.ctx = 0;
        e.vpn = v;
        e.ppn = v;
        tlb.insert(e);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tlb.lookup(0, rng.below(2048), PageSize::FourKB));
    }
}
BENCHMARK(BM_TlbLookup);

void
BM_ZipfSample(benchmark::State &state)
{
    Random rng(2);
    ZipfSampler zipf(1 << 20, 1.2);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

void
BM_FabricUncontendedSend(benchmark::State &state)
{
    EventQueue queue;
    stats::StatGroup root("root");
    noc::GridTopology topo = noc::GridTopology::forCores(64);
    core::Interconnect fabric("fabric", queue, topo, core::FabricConfig{},
                              &root);
    Random rng(3);
    for (auto _ : state) {
        CoreId src = static_cast<CoreId>(rng.below(64));
        CoreId dst = static_cast<CoreId>(rng.below(64));
        fabric.send(src, dst, queue.curCycle(), [](Cycle) {});
        queue.run();
    }
}
BENCHMARK(BM_FabricUncontendedSend);

void
BM_GeneratorNext(benchmark::State &state)
{
    auto spec = workload::findWorkload("graph500");
    workload::AccessGenerator gen(spec, 0, 0, 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_GeneratorNext);

void
BM_SystemStep(benchmark::State &state)
{
    // Whole-system throughput: accesses simulated per second.
    cpu::SystemConfig config;
    config.org.kind = core::OrgKind::Nocstar;
    config.org.numCores = 16;
    {
        cpu::AppConfig app_config;
        app_config.spec = workload::testWorkload();
        app_config.threads = 16;
        config.apps.push_back(std::move(app_config));
    }
    for (auto _ : state) {
        state.PauseTiming();
        cpu::System system(config);
        state.ResumeTiming();
        system.run(1000);
    }
    state.SetItemsProcessed(state.iterations() * 16000);
}
BENCHMARK(BM_SystemStep)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
