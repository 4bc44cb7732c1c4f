/**
 * @file
 * Full address-translation energy accounting (paper Fig 14, right).
 *
 * Tracks dynamic energy of TLB lookups, interconnect messages and page
 * table walk memory references, plus TLB leakage integrated over runtime.
 * The paper's observation that page-walk cache/memory references are
 * orders of magnitude costlier than TLB lookups drives the constants.
 */

#ifndef NOCSTAR_ENERGY_TRANSLATION_ENERGY_HH
#define NOCSTAR_ENERGY_TRANSLATION_ENERGY_HH

#include <cstdint>

#include "energy/noc_energy.hh"
#include "energy/sram_model.hh"
#include "sim/types.hh"

namespace nocstar::energy
{

/** Where a page-walk memory reference was serviced. */
enum class WalkService
{
    PwcHit, ///< paging-structure cache, near-free
    L2Hit, ///< per-core L2 data cache
    LlcHit, ///< shared last-level cache
    Dram, ///< main memory
};

/**
 * Accumulates translation energy for one simulated configuration.
 */
class TranslationEnergyModel
{
  public:
    // Dynamic energies (pJ), 28 nm class. Cache / DRAM numbers are the
    // McPAT-flavoured constants the paper's claim rests on: a DRAM PTE
    // fetch is ~3 orders of magnitude above an L1 TLB probe.
    static constexpr double l1TlbLookupPj = 2.0;
    static constexpr double pwcLookupPj = 1.0;
    static constexpr double l2CacheAccessPj = 50.0;
    static constexpr double llcAccessPj = 500.0;
    /** Full system cost of a DRAM PTE fetch (activation + IO + queue
     * occupancy), the term that makes eliminated walks dominate. */
    static constexpr double dramAccessPj = 15000.0;

    /** Count one L1 TLB probe. */
    void addL1Lookup() { dynamicPj_ += l1TlbLookupPj; }

    /** Count one L2-TLB-bound message (lookup + traversal). */
    void
    addL2Message(NocStyle style, unsigned hops, std::uint64_t sram_entries)
    {
        dynamicPj_ += NocEnergyModel::message(style, hops,
                                              sram_entries).total();
    }

    /** Count one private-L2-TLB lookup (no interconnect). */
    void
    addPrivateL2Lookup(std::uint64_t sram_entries)
    {
        dynamicPj_ += SramModel::accessEnergyPj(sram_entries);
    }

    /** Count one page-walk memory reference. */
    void
    addWalkReference(WalkService svc)
    {
        switch (svc) {
          case WalkService::PwcHit: dynamicPj_ += pwcLookupPj; break;
          case WalkService::L2Hit: dynamicPj_ += l2CacheAccessPj; break;
          case WalkService::LlcHit: dynamicPj_ += llcAccessPj; break;
          case WalkService::Dram: dynamicPj_ += dramAccessPj; break;
        }
    }

    /**
     * Finalize leakage: @p total_tlb_mw of TLB leakage power integrated
     * over @p cycles cycles at 2 GHz (0.5 ns / cycle).
     */
    void
    addLeakage(double total_tlb_mw, Cycle cycles)
    {
        // mW * ns = pJ.
        leakagePj_ += total_tlb_mw * 0.5 * static_cast<double>(cycles);
    }

    double dynamicPj() const { return dynamicPj_; }
    double leakagePj() const { return leakagePj_; }
    double totalPj() const { return dynamicPj_ + leakagePj_; }

  private:
    double dynamicPj_ = 0;
    double leakagePj_ = 0;
};

} // namespace nocstar::energy

#endif // NOCSTAR_ENERGY_TRANSLATION_ENERGY_HH
