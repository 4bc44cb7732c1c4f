/**
 * @file
 * Set-associative TLB implementation (structure-of-arrays probes).
 */

#include "tlb/set_assoc_tlb.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/logging.hh"

namespace nocstar::tlb
{

SetAssocTlb::SetAssocTlb(const std::string &name, std::uint32_t entries,
                         std::uint32_t assoc, stats::StatGroup *parent)
    : stats::StatGroup(name, parent),
      hits(this, "hits", "demand lookups that hit"),
      misses(this, "misses", "demand lookups that missed"),
      insertions(this, "insertions", "entries written"),
      evictions(this, "evictions", "valid entries displaced by inserts"),
      invalidations(this, "invalidations", "entries removed by shootdown"),
      prefetchHits(this, "prefetch_hits",
                   "demand hits on prefetched entries")
{
    if (entries == 0 || assoc == 0)
        fatal("TLB '", name, "' must have entries and associativity");
    if (assoc > entries) {
        warn_once("TLB '", name, "': associativity ", assoc,
                  " exceeds ", entries, " entries; clamping to ",
                  entries, "-way (fully associative)");
        assoc = entries;
    }
    if (entries % assoc != 0)
        fatal("TLB '", name, "': ", entries,
              " entries not divisible by associativity ", assoc);
    numEntries_ = entries;
    assoc_ = assoc;
    numSets_ = entries / assoc;
    if ((numSets_ & (numSets_ - 1)) == 0)
        setMask_ = numSets_ - 1;
    else
        setFastModM_ = ~static_cast<unsigned __int128>(0) / numSets_ + 1;
    // 3 trailing pad slots keep the vector probe's 4-lane loads inside
    // the allocation for every way of the last set.
    keys_.assign(static_cast<std::size_t>(entries) + 3, invalidKey);
    lastUse_.assign(entries, 0);
    payload_.resize(entries);
}

std::uint32_t
SetAssocTlb::setIndex(PageNum vpn, PageSize size) const
{
    // Hash-mixed index (xor-folded multiplicative hash of the VPN plus
    // a page-size salt). Plain modulo indexing would leave most sets of
    // a shared slice unused, because the slice-interleaving already
    // fixed the low VPN bits: every VPN homed on slice s satisfies
    // vpn % numCores == s, so vpn % numSets could only reach
    // numSets / numCores distinct sets. Mixing restores full set
    // utilization while still being pure virtual-address bits.
    std::uint64_t x = vpn + (static_cast<std::uint64_t>(size) << 60);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    if (setMask_ || numSets_ == 1)
        return static_cast<std::uint32_t>(x & setMask_);
    // x % numSets_ via Lemire-Kaser direct remainder: the low 128 bits
    // of M * x, multiplied by the divisor, carry the remainder in
    // their top 64 bits. Exactly equal to the division for any x.
    unsigned __int128 lowbits = setFastModM_ * x;
    std::uint64_t lo = static_cast<std::uint64_t>(lowbits);
    std::uint64_t hi = static_cast<std::uint64_t>(lowbits >> 64);
    unsigned __int128 p_lo =
        static_cast<unsigned __int128>(lo) * numSets_;
    unsigned __int128 p_hi =
        static_cast<unsigned __int128>(hi) * numSets_ + (p_lo >> 64);
    return static_cast<std::uint32_t>(p_hi >> 64);
}

int
SetAssocTlb::findWay(std::uint32_t set, std::uint64_t key) const
{
    // Compare all ways of the set at once through GNU vector
    // extensions, as GCC and Clang provide; setIndex()'s unsigned
    // __int128 already needs one of them.
    const std::uint64_t *base =
        keys_.data() + static_cast<std::size_t>(set) * assoc_;
    typedef std::uint64_t KeyVec __attribute__((vector_size(32)));
    const KeyVec probe = {key, key, key, key};
    for (std::uint32_t w = 0; w < assoc_; w += 4) {
        KeyVec lanes;
        std::memcpy(&lanes, base + w, sizeof(lanes));
        auto eq = lanes == probe; // matching lanes read all-ones
        auto mask = static_cast<unsigned>(
            (eq[0] & 1) | (eq[1] & 2) | (eq[2] & 4) | (eq[3] & 8));
        if (std::uint32_t rem = assoc_ - w; rem < 4)
            mask &= (1u << rem) - 1; // lanes past the set's last way
        if (mask)
            return static_cast<int>(w) + std::countr_zero(mask);
    }
    return -1;
}

int
SetAssocTlb::findIndex(ContextId ctx, PageNum vpn, PageSize size) const
{
    if (outOfTagRange(ctx, vpn))
        return -1; // unpackable, so insert() can never have stored it
    std::uint32_t set = setIndex(vpn, size);
    int way = findWay(set, packKey(ctx, vpn, size));
    if (way < 0)
        return -1;
    return static_cast<int>(set * assoc_) + way;
}

std::uint32_t
SetAssocTlb::victimWay(std::uint32_t set) const
{
    // Branchless strict min-scan: empty ways hold stamp 0 and valid
    // ways hold distinct stamps >= 1, so the scan lands on the first
    // empty way when one exists and on the unique LRU way otherwise --
    // the same victim the old first-invalid-else-LRU loop chose.
    const std::uint64_t *use =
        lastUse_.data() + static_cast<std::size_t>(set) * assoc_;
    std::uint32_t victim = 0;
    std::uint64_t best = use[0];
    for (std::uint32_t way = 1; way < assoc_; ++way) {
        bool earlier = use[way] < best;
        victim = earlier ? way : victim;
        best = earlier ? use[way] : best;
    }
    return victim;
}

const TlbEntry *
SetAssocTlb::lookup(ContextId ctx, PageNum vpn, PageSize size,
                    bool update_lru)
{
    int index = findIndex(ctx, vpn, size);
    if (index < 0) {
        ++misses;
        return nullptr;
    }
    ++hits;
    TlbEntry &entry = payload_[static_cast<std::size_t>(index)];
    if (entry.prefetched) {
        ++prefetchHits;
        entry.prefetched = false;
    }
    if (update_lru)
        lastUse_[static_cast<std::size_t>(index)] = ++lruClock_;
    return &entry;
}

const TlbEntry *
SetAssocTlb::lookupAnySize(ContextId ctx, Addr vaddr, bool update_lru)
{
    // One pipelined array read probes all granularities; only count one
    // access. Probe in increasing page-size order.
    static constexpr PageSize sizes[] = {PageSize::FourKB, PageSize::TwoMB,
                                         PageSize::OneGB};
    for (PageSize size : sizes) {
        int index = findIndex(ctx, pageNumber(vaddr, size), size);
        if (index >= 0) {
            ++hits;
            TlbEntry &entry = payload_[static_cast<std::size_t>(index)];
            if (entry.prefetched) {
                ++prefetchHits;
                entry.prefetched = false;
            }
            if (update_lru)
                lastUse_[static_cast<std::size_t>(index)] = ++lruClock_;
            return &entry;
        }
    }
    ++misses;
    return nullptr;
}

std::optional<TlbEntry>
SetAssocTlb::insert(const TlbEntry &entry)
{
    if (!entry.valid)
        panic("inserting invalid TLB entry");
    if (outOfTagRange(entry.ctx, entry.vpn))
        fatal("TLB entry (ctx ", entry.ctx, ", vpn ", entry.vpn,
              ") exceeds the packed tag's field widths (ctx <= ",
              maxCtx, ", vpn <= ", maxVpn, ")");
    ++insertions;

    std::uint32_t set = setIndex(entry.vpn, entry.size);
    std::uint64_t key = packKey(entry.ctx, entry.vpn, entry.size);

    // Refresh in place if already present (e.g. racing fills).
    if (int way = findWay(set, key); way >= 0) {
        std::size_t index = static_cast<std::size_t>(set) * assoc_ +
                            static_cast<std::uint32_t>(way);
        TlbEntry &existing = payload_[index];
        bool was_prefetched = existing.prefetched && entry.prefetched;
        existing = entry;
        existing.prefetched = was_prefetched;
        existing.lastUse = ++lruClock_;
        lastUse_[index] = existing.lastUse;
        return std::nullopt;
    }

    std::uint32_t way = victimWay(set);
    std::size_t index = static_cast<std::size_t>(set) * assoc_ + way;

    std::optional<TlbEntry> evicted;
    if (keys_[index] != invalidKey) {
        ++evictions;
        evicted = payload_[index];
    } else {
        ++validCount_;
    }
    keys_[index] = key;
    payload_[index] = entry;
    payload_[index].lastUse = ++lruClock_;
    lastUse_[index] = payload_[index].lastUse;
    return evicted;
}

bool
SetAssocTlb::present(ContextId ctx, PageNum vpn, PageSize size) const
{
    return findIndex(ctx, vpn, size) >= 0;
}

const TlbEntry *
SetAssocTlb::touch(ContextId ctx, PageNum vpn, PageSize size)
{
    int index = findIndex(ctx, vpn, size);
    if (index < 0)
        return nullptr;
    TlbEntry &entry = payload_[static_cast<std::size_t>(index)];
    entry.prefetched = false;
    lastUse_[static_cast<std::size_t>(index)] = ++lruClock_;
    return &entry;
}

const TlbEntry *
SetAssocTlb::touchAnySize(ContextId ctx, Addr vaddr)
{
    static constexpr PageSize sizes[] = {PageSize::FourKB,
                                         PageSize::TwoMB,
                                         PageSize::OneGB};
    for (PageSize size : sizes) {
        int index = findIndex(ctx, pageNumber(vaddr, size), size);
        if (index >= 0) {
            TlbEntry &entry = payload_[static_cast<std::size_t>(index)];
            entry.prefetched = false;
            lastUse_[static_cast<std::size_t>(index)] = ++lruClock_;
            return &entry;
        }
    }
    return nullptr;
}

void
SetAssocTlb::saveState(sim::CkptWriter &w) const
{
    w.u32(numEntries_);
    w.u32(assoc_);
    w.u64(lruClock_);
    w.u64(validCount_);
    for (std::size_t i = 0; i < numEntries_; ++i) {
        w.u64(keys_[i]);
        w.u64(lastUse_[i]);
        const TlbEntry &e = payload_[i];
        w.u8(e.valid ? 1 : 0);
        w.u64(e.vpn);
        w.u64(e.ppn);
        w.u64(e.ctx);
        w.u8(static_cast<std::uint8_t>(e.size));
        w.u64(e.lastUse);
        w.u8(e.prefetched ? 1 : 0);
    }
}

void
SetAssocTlb::restoreState(sim::CkptReader &r)
{
    std::uint32_t entries = r.u32();
    std::uint32_t assoc = r.u32();
    if (entries != numEntries_ || assoc != assoc_)
        fatal("TLB '", name(), "': checkpoint geometry ", entries, "x",
              assoc, " does not match this array's ", numEntries_, "x",
              assoc_);
    lruClock_ = r.u64();
    validCount_ = r.u64();
    for (std::size_t i = 0; i < numEntries_; ++i) {
        keys_[i] = r.u64();
        lastUse_[i] = r.u64();
        TlbEntry &e = payload_[i];
        e.valid = r.u8() != 0;
        e.vpn = r.u64();
        e.ppn = r.u64();
        e.ctx = static_cast<ContextId>(r.u64());
        e.size = static_cast<PageSize>(r.u8());
        e.lastUse = r.u64();
        e.prefetched = r.u8() != 0;
    }
}

std::size_t
SetAssocTlb::memoryBytes() const
{
    return keys_.capacity() * sizeof(std::uint64_t) +
           lastUse_.capacity() * sizeof(std::uint64_t) +
           payload_.capacity() * sizeof(TlbEntry);
}

bool
SetAssocTlb::invalidate(ContextId ctx, PageNum vpn, PageSize size)
{
    int index = findIndex(ctx, vpn, size);
    if (index < 0)
        return false;
    auto i = static_cast<std::size_t>(index);
    keys_[i] = invalidKey;
    lastUse_[i] = 0;
    payload_[i].valid = false;
    --validCount_;
    ++invalidations;
    return true;
}

std::uint64_t
SetAssocTlb::invalidateContext(ContextId ctx)
{
    if (validCount_ == 0 || ctx > maxCtx)
        return 0; // empty array / a context no tag can encode
    std::uint64_t count = 0;
    std::uint64_t ctx_bits = static_cast<std::uint64_t>(ctx) << 2;
    for (std::size_t i = 0; i < numEntries_; ++i) {
        if (keys_[i] != invalidKey &&
            (keys_[i] & (std::uint64_t{maxCtx} << 2)) == ctx_bits) {
            keys_[i] = invalidKey;
            lastUse_[i] = 0;
            payload_[i].valid = false;
            ++count;
        }
    }
    validCount_ -= count;
    invalidations += static_cast<double>(count);
    return count;
}

std::uint64_t
SetAssocTlb::invalidateAll()
{
    if (validCount_ == 0)
        return 0;
    std::uint64_t count = validCount_;
    std::fill(keys_.begin(), keys_.end(), invalidKey);
    std::fill(lastUse_.begin(), lastUse_.end(), 0);
    for (TlbEntry &entry : payload_)
        entry.valid = false;
    validCount_ = 0;
    invalidations += static_cast<double>(count);
    return count;
}

} // namespace nocstar::tlb
