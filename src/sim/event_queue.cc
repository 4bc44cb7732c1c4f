/**
 * @file
 * Event queue implementation.
 */

#include "sim/event_queue.hh"

#include <bit>

#include "sim/trace.hh"

namespace nocstar
{

Event::~Event()
{
    if (_scheduled)
        panic("event destroyed while still scheduled");
}

EventQueue::EventQueue()
{
    // Trace lines emitted by components of this simulation are stamped
    // with this queue's clock (thread-local, so parallel sweeps each
    // stamp with their own simulation's time).
    trace::setCycleSource(&_curCycle);
}

EventQueue::~EventQueue()
{
    trace::clearCycleSource(&_curCycle);
    // Pooled lambda events may still be pending at teardown; detach
    // them so their destructors do not trip the scheduled() assertion.
    for (PooledLambdaEvent *ev : lambdaAll_) {
        ev->_scheduled = false;
        delete ev;
    }
}

void
EventQueue::schedule(Event *ev, Cycle when)
{
    if (ev->_scheduled)
        panic("double schedule of event already queued for cycle ",
              ev->_when);
    if (when < _curCycle)
        panic("scheduling event in the past: ", when, " < ", _curCycle);

    TRACE(EventQ, "schedule event prio ", ev->priority(), " for cycle ",
          when);
    ev->_scheduled = true;
    ev->_when = when;
    ++ev->_generation;
    if (when - _curCycle < wheelSize)
        pushToWheel(when, WheelRecord{ev->priority(), _nextSeq++,
                                      ev->_generation, ev});
    else
        overflow_.push(Record{when, ev->priority(), _nextSeq++,
                              ev->_generation, ev});
    ++_numScheduled;
}

void
EventQueue::pushToWheel(Cycle when, const WheelRecord &rec)
{
    std::size_t bucket = when & wheelMask;
    wheel_[bucket].push_back(rec);
    occupied_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
    ++wheelCount_;
}

void
EventQueue::deschedule(Event *ev)
{
    if (!ev->_scheduled)
        panic("deschedule of unscheduled event");
    TRACE(EventQ, "deschedule event queued for cycle ", ev->_when);
    // Lazy removal: bump the generation so the queued record is stale.
    ev->_scheduled = false;
    ev->_when = invalidCycle;
    ++ev->_generation;
    --_numScheduled;
}

void
EventQueue::reschedule(Event *ev, Cycle when)
{
    if (ev->_scheduled)
        deschedule(ev);
    schedule(ev, when);
}

Cycle
EventQueue::nextEventCycle() const
{
    Cycle next = invalidCycle;
    if (wheelCount_ > 0) {
        // Wheel entries always sit within [curCycle, curCycle +
        // wheelSize), so the first occupied bucket at or after the
        // current one (circularly) identifies the earliest cycle.
        std::size_t start = _curCycle & wheelMask;
        for (std::size_t w = 0; w <= wheelWords; ++w) {
            std::size_t word = ((start >> 6) + w) & (wheelWords - 1);
            std::uint64_t bits = occupied_[word];
            if (w == 0)
                bits &= ~std::uint64_t{0} << (start & 63);
            if (!bits)
                continue;
            std::size_t bucket =
                (word << 6) +
                static_cast<std::size_t>(std::countr_zero(bits));
            next = _curCycle + ((bucket - start) & wheelMask);
            break;
        }
    }
    if (!overflow_.empty() && overflow_.top().when < next)
        next = overflow_.top().when;
    return next;
}

bool
EventQueue::quietUntil(Cycle when) const
{
    if (when - _curCycle >= wheelSize)
        return false; // window leaves the horizon: report conservatively
    if (!overflow_.empty() && overflow_.top().when <= when)
        return false;
    // Check the occupancy bits of every bucket in [_curCycle, when].
    // Bucket bits are maintained precisely (cleared the moment a bucket
    // drains, even mid-processCycle), so a clear window really means
    // nothing -- live or stale -- is pending there.
    std::size_t start = _curCycle & wheelMask;
    std::size_t n = static_cast<std::size_t>(when - _curCycle) + 1;
    std::size_t word = start >> 6;
    std::uint64_t bits = occupied_[word] >> (start & 63);
    std::size_t avail = 64 - (start & 63);
    for (;;) {
        if (n <= avail) {
            std::uint64_t keep =
                n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
            return (bits & keep) == 0;
        }
        if (bits)
            return false;
        n -= avail;
        word = (word + 1) & (wheelWords - 1);
        bits = occupied_[word];
        avail = 64;
    }
}

Cycle
EventQueue::firstBusyCycle(Cycle when) const
{
    // nextEventCycle() is exactly "earliest cycle with any pending
    // record, live or stale": the occupancy bitmap is maintained
    // precisely and the overflow head bounds everything beyond the
    // horizon. Clip it to the queried window.
    Cycle busy = nextEventCycle();
    return busy <= when ? busy : invalidCycle;
}

void
EventQueue::foldOverflow()
{
    // Bucket indices are interpreted relative to _curCycle, so a record
    // may only enter the wheel once its cycle lies within [_curCycle,
    // _curCycle + wheelSize). Folding relative to any anchor ahead of
    // the clock (e.g. the next head cycle before the clock reaches it)
    // would let the record alias to `when - wheelSize` on a later scan
    // if the clock never catches up -- which happens whenever run()
    // stops on its limit, or the head bucket holds only records
    // invalidated by deschedule().
    while (!overflow_.empty() &&
           overflow_.top().when - _curCycle < wheelSize) {
        const Record &rec = overflow_.top();
        pushToWheel(rec.when, WheelRecord{rec.priority, rec.seq,
                                          rec.generation, rec.event});
        overflow_.pop();
    }
}

std::uint64_t
EventQueue::processCycle(Cycle cycle)
{
    std::size_t index = cycle & wheelMask;
    std::vector<WheelRecord> &bucket = wheel_[index];
    std::uint64_t processed = 0;

    auto clear_bit = [&] {
        occupied_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
    };

    // Fast path: schedule() appends in seq order, so a bucket whose
    // records run (priority, seq)-non-decreasing front to back is
    // already in dispatch order and can be consumed by cursor.
    // Records folded in from the overflow heap carry older seqs and
    // can break the order, as can a lower-priority record appended
    // behind a higher-priority one; the `sorted` watermark verifies
    // the invariant incrementally (covering same-cycle records
    // appended by process()) and the first violation falls through to
    // the exact min-scan below.
    auto ordered = [](const WheelRecord &a, const WheelRecord &b) {
        return a.priority < b.priority ||
               (a.priority == b.priority && a.seq < b.seq);
    };
    std::size_t cursor = 0;
    std::size_t sorted = 0; // [0, sorted] verified non-decreasing
    while (cursor < bucket.size()) {
        while (sorted + 1 < bucket.size() &&
               ordered(bucket[sorted], bucket[sorted + 1]))
            ++sorted;
        if (sorted + 1 < bucket.size())
            break; // a lower priority arrived behind a higher one
        WheelRecord rec = bucket[cursor++];
        --wheelCount_;
        if (cursor == bucket.size()) {
            // Drain the bucket *before* dispatching its last record:
            // handlers (and the hit-streak bypass they host) observe
            // precise occupancy for this cycle.
            bucket.clear();
            cursor = 0;
            sorted = 0;
            clear_bit();
        }
        Event *ev = rec.event;
        if (!ev->_scheduled || ev->_generation != rec.generation)
            continue; // stale record from a deschedule/reschedule
        ev->_scheduled = false;
        ev->_when = invalidCycle;
        --_numScheduled;
        TRACE(EventQ, "process event prio ", rec.priority, " seq ",
              rec.seq);
        ev->process();
        ++processed;
    }
    if (cursor > 0)
        bucket.erase(bucket.begin(),
                     bucket.begin() + static_cast<std::ptrdiff_t>(cursor));

    // Exact fallback for mixed-priority buckets: smallest (priority,
    // seq) first; buckets are small, so a linear scan beats maintaining
    // a heap. Same-cycle records appended by process() are picked up by
    // later passes.
    while (!bucket.empty()) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < bucket.size(); ++i) {
            if (bucket[i].priority < bucket[best].priority ||
                (bucket[i].priority == bucket[best].priority &&
                 bucket[i].seq < bucket[best].seq))
                best = i;
        }
        WheelRecord rec = bucket[best];
        bucket[best] = bucket.back();
        bucket.pop_back();
        --wheelCount_;
        if (bucket.empty())
            clear_bit();

        Event *ev = rec.event;
        if (!ev->_scheduled || ev->_generation != rec.generation)
            continue; // stale record from a deschedule/reschedule

        ev->_scheduled = false;
        ev->_when = invalidCycle;
        --_numScheduled;
        TRACE(EventQ, "process event prio ", rec.priority, " seq ",
              rec.seq);
        ev->process();
        ++processed;
    }
    return processed;
}

std::uint64_t
EventQueue::run(Cycle limit)
{
    trace::setCycleSource(&_curCycle);
    std::uint64_t processed = 0;
    while (_numScheduled > 0) {
        Cycle head = nextEventCycle();
        if (head > limit)
            break;
        // Advance the clock before folding so newly folded records are
        // within the wheel horizon of _curCycle (see foldOverflow()).
        _curCycle = head;
        foldOverflow();
        processed += processCycle(head);
    }
    // Advance the clock to the limit if we stopped on it and work remains.
    if (limit != invalidCycle && _numScheduled > 0 && _curCycle < limit)
        _curCycle = limit;
    return processed;
}

void
EventQueue::runOneCycle()
{
    if (wheelCount_ == 0 && overflow_.empty())
        return;
    Cycle head = nextEventCycle();
    _curCycle = head;
    foldOverflow();
    processCycle(head);
}

} // namespace nocstar
