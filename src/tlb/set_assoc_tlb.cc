/**
 * @file
 * Set-associative TLB implementation (set blocks of tags, stamps and
 * frames).
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
    const std::size_t words = std::size_t{3} * entries + padWords;
    words_.reset(static_cast<std::uint64_t *>(::operator new[](
        words * sizeof(std::uint64_t), std::align_val_t{64})));
    std::fill_n(words_.get() + words - padWords, padWords, invalidKey);
    clear();
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
SetAssocTlb::findWay(const std::uint64_t *tags, std::uint64_t key) const
{
    // Compare all ways of the set at once through GNU vector
    // extensions, as GCC and Clang provide; setIndex()'s unsigned
    // __int128 already needs one of them. Lanes past the set's last
    // tag read its stamps, its frames or the pad, and are masked off.
    typedef std::uint64_t KeyVec __attribute__((vector_size(32)));
    const KeyVec probe = {key, key, key, key};
    for (std::uint32_t w = 0; w < assoc_; w += 4) {
        KeyVec lanes;
        std::memcpy(&lanes, tags + w, sizeof(lanes));
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

std::uint64_t *
SetAssocTlb::findTag(ContextId ctx, PageNum vpn, PageSize size) const
{
    // An empty array answers before hashing; an unpackable tag can
    // never have been stored by insert().
    if (validCount_ == 0 || outOfTagRange(ctx, vpn))
        return nullptr;
    std::uint64_t *tags = block(setIndex(vpn, size));
    int way = findWay(tags, packKey(ctx, vpn, size));
    return way < 0 ? nullptr : tags + way;
}

std::uint64_t *
SetAssocTlb::findAnySize(ContextId ctx, Addr vaddr) const
{
    // One pipelined array read probes all granularities, in increasing
    // page-size order.
    for (PageSize size :
         {PageSize::FourKB, PageSize::TwoMB, PageSize::OneGB})
        if (std::uint64_t *tag =
                findTag(ctx, pageNumber(vaddr, size), size))
            return tag;
    return nullptr;
}

std::uint32_t
SetAssocTlb::victimWay(const std::uint64_t *stamps) const
{
    // Branchless strict min-scan: empty ways hold stamp 0 and valid
    // ways hold distinct stamps >= 1, so the scan lands on the first
    // empty way when one exists and on the unique LRU way otherwise --
    // the same victim the old first-invalid-else-LRU loop chose.
    std::uint32_t victim = 0;
    std::uint64_t best = stamps[0];
    for (std::uint32_t way = 1; way < assoc_; ++way) {
        bool earlier = stamps[way] < best;
        victim = earlier ? way : victim;
        best = earlier ? stamps[way] : best;
    }
    return victim;
}

void
SetAssocTlb::touchWay(std::uint64_t *tag)
{
    tag[2 * assoc_] &= ~prefetchedBit;
    tag[assoc_] = ++lruClock_;
}

void
SetAssocTlb::demandHit(std::uint64_t *tag)
{
    ++hits;
    if (tag[2 * assoc_] & prefetchedBit)
        ++prefetchHits;
    touchWay(tag);
}

bool
SetAssocTlb::lookup(ContextId ctx, PageNum vpn, PageSize size)
{
    std::uint64_t *tag = findTag(ctx, vpn, size);
    if (!tag) {
        ++misses;
        return false;
    }
    demandHit(tag);
    return true;
}

std::optional<TlbEntry>
SetAssocTlb::lookupAnySize(ContextId ctx, Addr vaddr)
{
    std::uint64_t *tag = findAnySize(ctx, vaddr);
    if (!tag) {
        ++misses;
        return std::nullopt;
    }
    demandHit(tag);
    TlbEntry entry;
    entry.valid = true;
    entry.vpn = *tag >> 18;
    entry.ctx = static_cast<ContextId>((*tag >> 2) & maxCtx);
    entry.size = static_cast<PageSize>(*tag & 3);
    entry.ppn = tag[2 * assoc_]; // demandHit() cleared the mark
    return entry;
}

void
SetAssocTlb::insert(const TlbEntry &entry)
{
    if (!entry.valid)
        panic("inserting invalid TLB entry");
    if (outOfTagRange(entry.ctx, entry.vpn))
        fatal("TLB entry (ctx ", entry.ctx, ", vpn ", entry.vpn,
              ") exceeds the packed tag's field widths (ctx <= ",
              maxCtx, ", vpn <= ", maxVpn, ")");
    if (entry.ppn & prefetchedBit)
        fatal("TLB entry (ctx ", entry.ctx, ", vpn ", entry.vpn,
              ") has ppn ", entry.ppn,
              ", whose bit 63 the frame word keeps for the prefetched "
              "mark");
    ++insertions;

    std::uint64_t *tags = block(setIndex(entry.vpn, entry.size));
    std::uint64_t key = packKey(entry.ctx, entry.vpn, entry.size);
    std::uint64_t frame =
        entry.ppn | (entry.prefetched ? prefetchedBit : 0);

    // Refresh in place if already present (e.g. racing fills); the
    // prefetched mark survives only a prefetch over a prefetch.
    int way = findWay(tags, key);
    if (way >= 0) {
        std::uint64_t &old = tags[2 * assoc_ + way];
        old = (old & prefetchedBit & frame) | entry.ppn;
        tags[assoc_ + way] = ++lruClock_;
        return;
    }

    way = static_cast<int>(victimWay(tags + assoc_));
    if (tags[way] != invalidKey)
        ++evictions;
    else
        ++validCount_;
    tags[way] = key;
    tags[assoc_ + way] = ++lruClock_;
    tags[2 * assoc_ + way] = frame;
}

bool
SetAssocTlb::present(ContextId ctx, PageNum vpn, PageSize size) const
{
    return findTag(ctx, vpn, size) != nullptr;
}

bool
SetAssocTlb::touch(ContextId ctx, PageNum vpn, PageSize size)
{
    std::uint64_t *tag = findTag(ctx, vpn, size);
    if (tag)
        touchWay(tag);
    return tag != nullptr;
}

bool
SetAssocTlb::touchAnySize(ContextId ctx, Addr vaddr)
{
    std::uint64_t *tag = findAnySize(ctx, vaddr);
    if (tag)
        touchWay(tag);
    return tag != nullptr;
}

void
SetAssocTlb::saveState(sim::CkptWriter &w) const
{
    w.u32(numEntries_);
    w.u32(assoc_);
    w.u64(lruClock_);
    w.u64(validCount_);
    for (std::size_t i = 0; i < std::size_t{3} * numEntries_; ++i)
        w.u64(words_[i]);
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
    for (std::size_t i = 0; i < std::size_t{3} * numEntries_; ++i)
        words_[i] = r.u64();
}

std::size_t
SetAssocTlb::memoryBytes() const
{
    return (std::size_t{3} * numEntries_ + padWords) *
           sizeof(std::uint64_t);
}

bool
SetAssocTlb::invalidate(ContextId ctx, PageNum vpn, PageSize size)
{
    std::uint64_t *tag = findTag(ctx, vpn, size);
    if (!tag)
        return false;
    *tag = invalidKey;
    tag[assoc_] = 0;
    tag[2 * assoc_] = 0;
    --validCount_;
    ++invalidations;
    return true;
}

void
SetAssocTlb::clear()
{
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        std::uint64_t *tags = block(set);
        std::fill_n(tags, assoc_, invalidKey);
        std::fill_n(tags + assoc_, 2 * assoc_, std::uint64_t{0});
    }
    validCount_ = 0;
}

std::uint64_t
SetAssocTlb::invalidateAll()
{
    if (validCount_ == 0)
        return 0;
    std::uint64_t count = validCount_;
    clear();
    invalidations += static_cast<double>(count);
    return count;
}

} // namespace nocstar::tlb
