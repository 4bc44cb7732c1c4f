/**
 * @file
 * Event queue implementation.
 */

#include "sim/event_queue.hh"

#include <bit>

namespace nocstar
{

Event::~Event()
{
    if (_scheduled)
        panic("event destroyed while still scheduled");
}

EventQueue::~EventQueue()
{
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

    ev->_scheduled = true;
    ev->_when = when;
    ev->_seq = _nextSeq++;
    ++ev->_generation;
    if (when - _curCycle < wheelSize)
        link(ev);
    else
        overflow_.push(Record{when, ev->priority(), ev->_seq,
                              ev->_generation, ev});
    ++_numScheduled;
}

void
EventQueue::link(Event *ev)
{
    std::size_t index = ev->_when & wheelMask;
    Bucket &bucket = wheel_[index];
    auto before = [](const Event *a, const Event *b) {
        return a->_priority < b->_priority ||
               (a->_priority == b->_priority && a->_seq < b->_seq);
    };
    ev->_inWheel = true;
    ++wheelCount_;
    occupied_[index >> 6] |= std::uint64_t{1} << (index & 63);
    if (!bucket.tail || !before(ev, bucket.tail)) {
        // Fast path: a fresh schedule() carries the newest seq, so it
        // belongs at the tail unless it outranks the tail's priority.
        ev->_next = nullptr;
        (bucket.tail ? bucket.tail->_next : bucket.head) = ev;
        bucket.tail = ev;
        return;
    }
    // A higher priority, or an older seq folded in from the overflow
    // heap: insert before the first event that sorts after it.
    Event **slot = &bucket.head;
    while (!before(ev, *slot))
        slot = &(*slot)->_next;
    ev->_next = *slot;
    *slot = ev;
}

void
EventQueue::deschedule(Event *ev)
{
    if (!ev->_scheduled)
        panic("deschedule of unscheduled event");
    if (ev->_inWheel) {
        // Unlink at once: the wheel holds only live events.
        std::size_t index = ev->_when & wheelMask;
        Bucket &bucket = wheel_[index];
        Event *prev = nullptr;
        Event **slot = &bucket.head;
        for (; *slot != ev; slot = &(*slot)->_next)
            prev = *slot;
        *slot = ev->_next;
        if (bucket.tail == ev)
            bucket.tail = prev;
        if (!bucket.head)
            occupied_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
        ev->_inWheel = false;
        --wheelCount_;
    }
    // An overflow record goes stale with the generation bump and is
    // dropped when it surfaces.
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
    // drains, by dispatch or by deschedule, even mid-processCycle), so
    // a clear window really means no event is pending there.
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

void
EventQueue::advanceTo(Cycle when)
{
    if (when < _curCycle)
        panic("advanceTo into the past: ", when, " < ", _curCycle);
    if (_numScheduled > 0)
        panic("advanceTo(", when, ") with ", _numScheduled,
              " live events pending at cycle ", _curCycle);
    overflow_ = {};
    _curCycle = when;
}

void
EventQueue::foldOverflow()
{
    // Bucket indices are interpreted relative to _curCycle, so an event
    // may only enter the wheel once its cycle lies within [_curCycle,
    // _curCycle + wheelSize). Folding relative to any anchor ahead of
    // the clock (e.g. the next head cycle before the clock reaches it)
    // would let the event alias to `when - wheelSize` on a later scan
    // if the clock never catches up -- which happens whenever run()
    // stops on its limit, or the head cycle holds only stale records.
    while (!overflow_.empty() &&
           overflow_.top().when - _curCycle < wheelSize) {
        const Record &rec = overflow_.top();
        Event *ev = rec.event;
        if (ev->_scheduled && ev->_generation == rec.generation)
            link(ev);
        overflow_.pop();
    }
}

std::uint64_t
EventQueue::processCycle(Cycle cycle)
{
    std::size_t index = cycle & wheelMask;
    Bucket &bucket = wheel_[index];
    std::uint64_t processed = 0;
    // The bucket stays in (priority, seq) order, also as handlers link
    // same-cycle events into it or unlink its other events, so its head
    // is always the next event to run. A handler that advanced the
    // clock (advanceTo() on an otherwise empty queue) may have linked
    // an event for `cycle + k * wheelSize` into this bucket; the scan
    // finds it later.
    Event *ev;
    while (_curCycle == cycle && (ev = bucket.head)) {
        bucket.head = ev->_next;
        if (!bucket.head) {
            // Drain the bucket *before* dispatching its last event:
            // handlers observe precise occupancy for this cycle.
            bucket.tail = nullptr;
            occupied_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
        }
        ev->_inWheel = false;
        --wheelCount_;
        ev->_scheduled = false;
        ev->_when = invalidCycle;
        --_numScheduled;
        ev->process();
        ++processed;
    }
    return processed;
}

std::uint64_t
EventQueue::run(Cycle limit)
{
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
