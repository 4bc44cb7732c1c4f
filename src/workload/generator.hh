/**
 * @file
 * Per-thread virtual-address stream generator driven by a WorkloadSpec.
 *
 * Virtual address layout (per context):
 *   warm (shared) pool : 0x0100'0000'0000 + ctx * 0x0400'0000'0000
 *   hot (thread) pool  : shared base + 0x0004'0000'0000 * (thread + 1)
 *   cold tail          : shared base + 0x0200'0000'0000
 * so pools never collide across threads or contexts.
 */

#ifndef NOCSTAR_WORKLOAD_GENERATOR_HH
#define NOCSTAR_WORKLOAD_GENERATOR_HH

#include <memory>

#include "sim/random.hh"
#include "sim/types.hh"
#include "workload/address_source.hh"
#include "workload/spec.hh"

namespace nocstar::workload
{

/**
 * Deterministic address stream for one hardware thread.
 */
class AccessGenerator : public AddressSource
{
  public:
    /**
     * @param spec workload parameters.
     * @param ctx process context (shared pool is per-context).
     * @param thread global thread index within the app instance.
     * @param seed stream seed; streams with distinct (ctx, thread)
     *        never correlate.
     * @param warmZipf the application's warm-pool sampler over
     *        (spec.warmPages, spec.warmAlpha). The generator keeps a
     *        copy, which shares the sampler's table, so every thread
     *        of an application reads one table.
     */
    AccessGenerator(const WorkloadSpec &spec, ContextId ctx,
                    unsigned thread, std::uint64_t seed,
                    const ZipfSampler &warmZipf);

    /** As above, with a warm-pool sampler of its own. */
    AccessGenerator(const WorkloadSpec &spec, ContextId ctx,
                    unsigned thread, std::uint64_t seed);

    /** Next virtual byte address of the stream. */
    Addr next() override { return draw(); }

    /** Batched draw: one virtual dispatch for @p n addresses. */
    void
    nextBatch(Addr *out, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = draw();
    }

    const WorkloadSpec &spec() const { return spec_; }
    ContextId ctx() const { return ctx_; }

    /** Base of the shared pool for @p ctx (exposed for tests). */
    static Addr
    sharedBase(ContextId ctx)
    {
        return 0x010000000000ULL + static_cast<Addr>(ctx) *
                                       0x040000000000ULL;
    }

    static Addr
    coldBase(ContextId ctx)
    {
        // 2 TB into the context's arena, clear of any private pool.
        return sharedBase(ctx) + 0x020000000000ULL;
    }

    static Addr
    privateBase(ContextId ctx, unsigned thread)
    {
        return sharedBase(ctx) +
               0x000400000000ULL * (static_cast<Addr>(thread) + 1);
    }

    /** Checkpoint: the RNG words are the only mutable state. */
    void
    saveState(std::vector<std::uint64_t> &out) const override
    {
        for (std::uint64_t word : rng_.state())
            out.push_back(word);
    }

    std::size_t
    restoreState(const std::vector<std::uint64_t> &in,
                 std::size_t pos) override
    {
        rng_.setState({in.at(pos), in.at(pos + 1), in.at(pos + 2),
                       in.at(pos + 3)});
        return pos + 4;
    }

  private:
    /** One address draw (non-virtual core of next()/nextBatch()). */
    Addr draw();

    WorkloadSpec spec_;
    ContextId ctx_;
    unsigned thread_;
    Random rng_;
    ZipfSampler warmZipf_;
};

} // namespace nocstar::workload

#endif // NOCSTAR_WORKLOAD_GENERATOR_HH
