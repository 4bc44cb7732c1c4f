/**
 * @file
 * Data-cache hierarchy model for page-walk references.
 *
 * Walk references probe the requesting walker's per-core L2 cache, then
 * the shared LLC, then DRAM (latencies per the paper's Haswell
 * methodology: 12 / 50 / ~150+ cycles). Capacity pressure from the
 * application's own data is modelled as a retention time: a line older
 * than the configured TTL has been evicted by app traffic. Tuning the
 * TTLs reproduces the paper's measurement that 70-87 % of walks reach
 * the LLC or memory.
 *
 * The model also counts "foreign fills" -- PTE lines installed into a
 * core's L2 on behalf of *another* core's translation -- which is the
 * cache-pollution effect that makes remote-core page walks slightly
 * worse than requester-side walks (paper Fig 17).
 */

#ifndef NOCSTAR_MEM_CACHE_MODEL_HH
#define NOCSTAR_MEM_CACHE_MODEL_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "energy/translation_energy.hh"
#include "sim/checkpoint.hh"
#include "sim/flat_map.hh"
#include "sim/inline_function.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace nocstar::mem
{

/** Outcome of one walk reference. */
struct CacheAccessResult
{
    Cycle latency = 0;
    energy::WalkService service = energy::WalkService::Dram;
    /** True if this access installed a line into the walker core's L2. */
    bool filledL2 = false;
};

/** Walk service hierarchy: fixed latencies, sizable line stores. */
struct CacheModelConfig
{
    static constexpr Cycle l2Latency = 12;
    static constexpr Cycle llcLatency = 50;
    static constexpr Cycle dramLatency = 250;
    /** PTE-line capacity of one core's L2 (lines). */
    std::uint32_t l2Lines = 768;
    /** PTE-line capacity of the shared LLC (lines). */
    std::uint32_t llcLines = 131072;
    /** App-pressure retention of PTE lines in the L2 (cycles). */
    Cycle l2RetentionCycles = 300000;
    /** App-pressure retention of PTE lines in the LLC (cycles). */
    Cycle llcRetentionCycles = 10000000;
};

/**
 * Per-system cache hierarchy for walk references.
 */
class CacheModel : public stats::StatGroup
{
  public:
    CacheModel(const std::string &name, unsigned num_cores,
               const CacheModelConfig &config,
               stats::StatGroup *parent = nullptr);

    /**
     * Service one walk reference to @p line issued by the walker on
     * @p walk_core at time @p now, on behalf of the translation
     * requester @p requester_core.
     */
    CacheAccessResult access(CoreId walk_core, CoreId requester_core,
                             Addr line, Cycle now);

    /** Foreign PTE fills absorbed by @p core's L2 cache. */
    std::uint64_t foreignFills(CoreId core) const;

    /**
     * Functional-warming reference: moves the line stores exactly as
     * access() would (probe refresh, LLC fill on miss, L2 fill) but
     * counts no stats, never fires the foreign-fill hook and returns
     * no latency. Used by fast-forward warming.
     */
    void warmAccess(CoreId walk_core, Addr line, Cycle now);

    /** Serialize every line store (checkpointing). */
    void saveState(sim::CkptWriter &w) const;

    /** Restore state captured by saveState(). */
    void restoreState(sim::CkptReader &r);

    /** Resident bytes of the line stores (memory audit). */
    std::size_t memoryBytes() const;

    /**
     * Hook invoked whenever a foreign fill lands in a core's L2, so the
     * system can charge that core a pollution penalty (Fig 17).
     */
    using ForeignFillHook = InlineFunction<void(CoreId), 32>;

    void
    setForeignFillHook(ForeignFillHook hook)
    {
        foreignFillHook_ = std::move(hook);
    }

    const CacheModelConfig &config() const { return config_; }

    stats::Scalar l2Hits;
    stats::Scalar llcHits;
    stats::Scalar dramAccesses;
    stats::Scalar foreignFillCount;

    /** Fraction of references serviced past the L2 (LLC or DRAM). */
    double
    beyondL2Fraction() const
    {
        double total = l2Hits.value() + llcHits.value() +
                       dramAccesses.value();
        return total > 0
            ? (llcHits.value() + dramAccesses.value()) / total : 0.0;
    }

  private:
    /** A bounded line store with FIFO eviction and TTL expiry. */
    struct LineStore
    {
        std::uint32_t maxLines = 0;
        Cycle ttl = 0;
        FlatMap<Addr, Cycle> lines; ///< line -> last touch
        std::deque<Addr> fifo;

        bool probe(Addr line, Cycle now);
        /** @return true if the line was newly installed. */
        bool fill(Addr line, Cycle now);
    };

    static void saveStore(sim::CkptWriter &w, const LineStore &store);
    static void restoreStore(sim::CkptReader &r, LineStore &store);

    CacheModelConfig config_;
    std::vector<LineStore> l2_; ///< one per core
    LineStore llc_;
    std::vector<std::uint64_t> foreignFills_;
    ForeignFillHook foreignFillHook_;
};

} // namespace nocstar::mem

#endif // NOCSTAR_MEM_CACHE_MODEL_HH
