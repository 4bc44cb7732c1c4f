/**
 * @file
 * Functional page table implementation.
 */

#include "mem/page_table.hh"

#include "sim/logging.hh"

namespace nocstar::mem
{

namespace
{

/** splitmix64-style hash for deterministic region decisions. */
std::uint64_t
mix(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

PageTable::PageTable(double superpage_fraction, std::uint64_t seed)
    : superpageFraction_(superpage_fraction), seed_(seed)
{
    if (superpage_fraction < 0.0 || superpage_fraction > 1.0)
        fatal("superpage fraction must be within [0,1], got ",
              superpage_fraction);
}

bool
PageTable::regionWantsSuperpage(ContextId ctx, RegionKey key) const
{
    double fraction = superpageFraction_;
    if (const double *ctx_fraction = contextFraction_.find(ctx))
        fraction = *ctx_fraction;
    if (fraction <= 0.0)
        return false;
    double u = static_cast<double>(mix(key ^ seed_) >> 11) * 0x1.0p-53;
    return u < fraction;
}

std::uint32_t
PageTable::regionIndexFor(ContextId ctx, Addr vaddr)
{
    RegionKey key = regionKey(ctx, vaddr);
    auto [index, inserted] = regionIndex_.emplace(
        key, static_cast<std::uint32_t>(regionPool_.size()));
    if (inserted)
        regionPool_.push_back(
            Region{regionWantsSuperpage(ctx, key), nextFrame_++, 0});
    return *index;
}

Translation
PageTable::translate(ContextId ctx, Addr vaddr)
{
    RegionKey key = regionKey(ctx, vaddr);
    RegionMemo &m = memoSlot(key);
    const Region *region = nullptr;
    if (m.key == key && m.index < regionPool_.size()) {
        const Region &r = regionPool_[m.index];
        if (r.version == m.version)
            region = &r;
    }
    if (!region) {
        std::uint32_t index = regionIndexFor(ctx, vaddr);
        m = RegionMemo{key, index, regionPool_[index].version};
        region = &regionPool_[index];
    }

    Translation result;
    result.version = region->version;
    if (region->superpage) {
        result.size = PageSize::TwoMB;
        result.ppn = region->frame;
    } else {
        result.size = PageSize::FourKB;
        // 512 4 KB pages per 2 MB frame.
        Addr offset_in_region =
            (vaddr >> pageShift(PageSize::FourKB)) & 0x1ff;
        result.ppn = (region->frame << 9) | offset_in_region;
    }
    return result;
}

WalkLines
PageTable::walkAddresses(ContextId ctx, Addr vaddr) const
{
    // Synthesize stable, well-distributed page-table-entry line
    // addresses from the VA's per-level indices. Adjacent virtual pages
    // share upper-level entries and usually the same PTE cache line,
    // exactly like a radix table.
    WalkLines lines;

    auto entry_line = [&](WalkLevel level, Addr table_id, Addr index) {
        // 8-byte entries, 64-byte lines -> 8 entries per line.
        Addr table_base = mix((static_cast<std::uint64_t>(ctx) << 3) ^
                              (static_cast<Addr>(level) << 56) ^ table_id)
                          & 0x0000fffffffff000ULL;
        return table_base + ((index >> 3) << 6);
    };

    Addr pml4_idx = (vaddr >> 39) & 0x1ff;
    Addr pdpt_idx = (vaddr >> 30) & 0x1ff;
    Addr pd_idx = (vaddr >> 21) & 0x1ff;
    Addr pt_idx = (vaddr >> 12) & 0x1ff;

    lines.push_back(entry_line(WalkLevel::Pml4, 0, pml4_idx));
    lines.push_back(entry_line(WalkLevel::Pdpt, pml4_idx, pdpt_idx));
    lines.push_back(entry_line(WalkLevel::Pd, (pml4_idx << 9) | pdpt_idx,
                               pd_idx));

    // A 2 MB mapping terminates at the PDE.
    RegionKey key = regionKey(ctx, vaddr);
    const std::uint32_t *index = regionIndex_.find(key);
    bool superpage = index ? regionPool_[*index].superpage
                           : regionWantsSuperpage(ctx, key);
    if (!superpage) {
        lines.push_back(entry_line(
            WalkLevel::Pt,
            (pml4_idx << 18) | (pdpt_idx << 9) | pd_idx, pt_idx));
    }
    return lines;
}

unsigned
PageTable::setRegionSuperpage(ContextId ctx, Addr vaddr, bool promote)
{
    Region &region = regionPool_[regionIndexFor(ctx, vaddr)];
    if (region.superpage == promote)
        return 0;
    region.superpage = promote;
    ++region.version;
    // Promoting (or demoting) rewrites 512 leaf PTEs / one PDE; the
    // paper's storm microbenchmark counts 512 invalidations per change.
    return promote ? 512 : 1;
}

bool
PageTable::isSuperpage(ContextId ctx, Addr vaddr) const
{
    RegionKey key = regionKey(ctx, vaddr);
    if (const std::uint32_t *index = regionIndex_.find(key))
        return regionPool_[*index].superpage;
    return regionWantsSuperpage(ctx, key);
}

void
PageTable::saveState(sim::CkptWriter &w) const
{
    w.u64(nextFrame_);
    w.u64(regionPool_.size());
    for (const Region &region : regionPool_) {
        w.u8(region.superpage ? 1 : 0);
        w.u64(region.frame);
        w.u32(region.version);
    }
    w.u64(regionIndex_.size());
    for (const auto &slot : regionIndex_) {
        w.u64(slot.first);
        w.u32(slot.second);
    }
}

void
PageTable::restoreState(sim::CkptReader &r)
{
    nextFrame_ = r.u64();
    regionPool_.clear();
    std::uint64_t pool = r.u64();
    regionPool_.reserve(pool);
    for (std::uint64_t i = 0; i < pool; ++i) {
        Region region;
        region.superpage = r.u8() != 0;
        region.frame = r.u64();
        region.version = r.u32();
        regionPool_.push_back(region);
    }
    regionIndex_.clear();
    std::uint64_t count = r.u64();
    regionIndex_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        RegionKey key = r.u64();
        std::uint32_t index = r.u32();
        if (index >= regionPool_.size())
            fatal("page table checkpoint: region index ", index,
                  " out of range (pool has ", regionPool_.size(), ")");
        regionIndex_.emplace(key, index);
    }
    // The memo caches (key, pool index, version) triples; stale slots
    // would be version-checked anyway, but start clean.
    memo_.assign(memoSize, RegionMemo{});
}

std::size_t
PageTable::memoryBytes() const
{
    using IndexSlot = FlatMap<RegionKey, std::uint32_t>::Slot;
    return regionPool_.capacity() * sizeof(Region) +
           regionIndex_.capacity() * (sizeof(IndexSlot) + 1) +
           memo_.capacity() * sizeof(RegionMemo);
}

} // namespace nocstar::mem
