/**
 * @file
 * Address stream generator implementation.
 */

#include "workload/generator.hh"

namespace nocstar::workload
{

AccessGenerator::AccessGenerator(const WorkloadSpec &spec, ContextId ctx,
                                 unsigned thread, std::uint64_t seed,
                                 const ZipfSampler &warmZipf)
    : spec_(spec), ctx_(ctx), thread_(thread),
      rng_(seed ^ (static_cast<std::uint64_t>(ctx) << 32) ^
           (static_cast<std::uint64_t>(thread) << 16) ^ 0xabcdef12345ULL),
      warmZipf_(warmZipf)
{
    if (warmZipf.numItems() != spec.warmPages ||
        warmZipf.alpha() != spec.warmAlpha)
        panic("AccessGenerator: warm-pool sampler does not match ",
              spec.name);
}

AccessGenerator::AccessGenerator(const WorkloadSpec &spec, ContextId ctx,
                                 unsigned thread, std::uint64_t seed)
    : AccessGenerator(spec, ctx, thread, seed,
                      ZipfSampler(spec.warmPages, spec.warmAlpha))
{}

Addr
AccessGenerator::draw()
{
    double u = rng_.uniform();
    PageNum page;
    Addr base;

    if (u < spec_.coldFraction) {
        page = rng_.below(spec_.coldPages);
        base = coldBase(ctx_);
    } else if (u < spec_.coldFraction + spec_.warmFraction) {
        // Warm pool: identical rank->page mapping for every thread of
        // this context, so hot pages genuinely overlap across cores.
        page = warmZipf_.sample(rng_);
        base = sharedBase(ctx_);
    } else {
        // Per-thread hot set, uniform: the inner-loop working set.
        page = rng_.below(spec_.hotPages);
        base = privateBase(ctx_, thread_);
    }

    Addr vaddr = base + (page << pageShift(PageSize::FourKB));
    // Spread accesses within the page so data-side behaviour is sane.
    vaddr |= rng_.below(pageBytes(PageSize::FourKB)) & ~Addr{7};
    return vaddr;
}

} // namespace nocstar::workload
