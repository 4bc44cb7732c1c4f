/**
 * @file
 * Page-table walker implementation.
 */

#include "mem/page_walker.hh"

#include "sim/trace_recorder.hh"

namespace nocstar::mem
{

bool
PageTableWalker::Psc::probe(std::uint64_t key)
{
    return entries.contains(key);
}

void
PageTableWalker::Psc::fill(std::uint64_t key, Cycle now)
{
    auto [touched, inserted] = entries.emplace(key, now);
    *touched = now;
    if (!inserted)
        return;
    fifo.push_back(key);
    while (entries.size() > maxEntries && !fifo.empty()) {
        entries.erase(fifo.front());
        fifo.pop_front();
    }
}

PageTableWalker::PageTableWalker(const std::string &name, CoreId core,
                                 PageTable &table, CacheModel &caches,
                                 const WalkerConfig &config,
                                 stats::StatGroup *parent,
                                 const sim::FaultPlan *faults)
    : stats::StatGroup(name, parent),
      walks(this, "walks", "page table walks performed"),
      walkCycles(this, "walk_cycles", "cycles spent walking"),
      queueCycles(this, "queue_cycles", "cycles walks waited for walker"),
      eccRewalks(this, "ecc_rewalks",
                 "walks redone for page-table ECC errors"),
      core_(core), table_(table), caches_(caches), config_(config)
{
    for (auto &psc : psc_)
        psc.maxEntries = config.pscEntriesPerLevel;
    if (faults && faults->walkEccProb > 0)
        eccFaults_ = std::make_unique<sim::FaultInjector>(
            *faults, sim::FaultInjector::Stream::WalkEcc,
            core * 0x9e3779b97f4a7c15ULL + 1);
}

WalkResult
PageTableWalker::walk(ContextId ctx, Addr vaddr, CoreId requester_core,
                      Cycle now)
{
    WalkResult result;
    result.translation = table_.translate(ctx, vaddr);

    Cycle start = std::max(now, busyUntil_);
    result.queueDelay = start - now;

    if (config_.fixedLatency) {
        result.walkLatency = config_.fixedLatency;
        // Count one LLC-class reference so the energy model charges
        // fixed-mode walks something plausible.
        result.llcRefs = 1;
    } else {
        Cycle latency = 0;
        WalkLines lines = table_.walkAddresses(ctx, vaddr);

        // Upper levels (all but the leaf) may hit the PSCs.
        std::size_t leaf = lines.size() - 1;
        for (std::size_t level = 0; level < lines.size(); ++level) {
            bool upper = level < leaf && level < 3;
            std::uint64_t psc_key =
                (static_cast<std::uint64_t>(ctx) << 48) ^
                (vaddr >> (39 - 9 * level));
            if (upper && psc_[level].probe(psc_key)) {
                latency += config_.pscHitLatency;
                ++result.pscHits;
                continue;
            }
            CacheAccessResult ref = caches_.access(
                core_, requester_core, lines[level], start + latency);
            latency += ref.latency;
            switch (ref.service) {
              case energy::WalkService::L2Hit: ++result.l2Refs; break;
              case energy::WalkService::LlcHit: ++result.llcRefs; break;
              case energy::WalkService::Dram: ++result.dramRefs; break;
              default: break;
            }
            if (upper)
                psc_[level].fill(psc_key, start + latency);
        }
        result.walkLatency = latency;
    }

    // Fault injection: a corrupt page-table read forces the whole walk
    // to rerun. Approximated as a second back-to-back walk of the same
    // cost (the PSCs and caches are now warm in reality, so this is a
    // mild overstatement). Never draws without a walk-ECC plan.
    if (eccFaults_ && eccFaults_->walkEcc()) {
        ++eccRewalks;
        result.walkLatency *= 2;
        result.eccRetried = true;
    }

    busyUntil_ = start + result.walkLatency;
    ++walks;
    walkCycles += static_cast<double>(result.walkLatency);
    queueCycles += static_cast<double>(result.queueDelay);
    if (sim::recording())
        sim::recorder().span(sim::Lane::Walker, core_, "walk", start,
                             start + result.walkLatency,
                             result.pscHits, result.dramRefs,
                             "psc_hits", "dram_refs");
    return result;
}

void
PageTableWalker::warmWalk(ContextId ctx, Addr vaddr, Cycle now)
{
    table_.translate(ctx, vaddr);
    if (config_.fixedLatency)
        return; // fixed-latency mode references no modeled caches
    WalkLines lines = table_.walkAddresses(ctx, vaddr);
    std::size_t leaf = lines.size() - 1;
    for (std::size_t level = 0; level < lines.size(); ++level) {
        bool upper = level < leaf && level < 3;
        std::uint64_t psc_key =
            (static_cast<std::uint64_t>(ctx) << 48) ^
            (vaddr >> (39 - 9 * level));
        if (upper && psc_[level].probe(psc_key))
            continue;
        caches_.warmAccess(core_, lines[level], now);
        if (upper)
            psc_[level].fill(psc_key, now);
    }
}

void
PageTableWalker::saveState(sim::CkptWriter &w) const
{
    // The fifo holds exactly the live keys in fill order, so saving
    // (key, fill cycle) pairs in fifo order reconstructs both the map
    // and the eviction order.
    for (const Psc &psc : psc_) {
        w.u64(psc.fifo.size());
        for (std::uint64_t key : psc.fifo) {
            const Cycle *cycle = psc.entries.find(key);
            w.u64(key);
            w.u64(cycle ? *cycle : 0);
        }
    }
}

void
PageTableWalker::restoreState(sim::CkptReader &r)
{
    for (Psc &psc : psc_) {
        psc.entries.clear();
        psc.fifo.clear();
        std::uint64_t count = r.u64();
        for (std::uint64_t i = 0; i < count; ++i) {
            std::uint64_t key = r.u64();
            Cycle cycle = r.u64();
            psc.entries.emplace(key, cycle);
            psc.fifo.push_back(key);
        }
    }
}

} // namespace nocstar::mem
