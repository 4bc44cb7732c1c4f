/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "tests/move_counter.hh"

using namespace nocstar;
using nocstar::test::MoveCounter;
using nocstar::test::MoveLog;

namespace
{

class CountingEvent : public Event
{
  public:
    explicit CountingEvent(std::vector<int> *log, int id,
                           Priority prio = defaultPriority)
        : Event(prio), log_(log), id_(id)
    {}

    void process() override { log_->push_back(id_); }

  private:
    std::vector<int> *log_;
    int id_;
};

} // namespace

TEST(EventQueue, StartsEmptyAtCycleZero)
{
    EventQueue queue;
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.curCycle(), 0u);
    EXPECT_EQ(queue.run(), 0u);
}

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2), c(&log, 3);
    queue.schedule(&b, 20);
    queue.schedule(&a, 10);
    queue.schedule(&c, 30);
    EXPECT_EQ(queue.run(), 3u);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(queue.curCycle(), 30u);
}

TEST(EventQueue, FifoAmongSameCycleSamePriority)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2), c(&log, 3);
    queue.schedule(&a, 5);
    queue.schedule(&b, 5);
    queue.schedule(&c, 5);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityOrdersWithinCycle)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent late(&log, 9, Event::lastPriority);
    CountingEvent arb(&log, 5, Event::arbitrationPriority);
    CountingEvent normal(&log, 1);
    queue.schedule(&late, 7);
    queue.schedule(&arb, 7);
    queue.schedule(&normal, 7);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{1, 5, 9}));
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2);
    queue.schedule(&a, 10);
    queue.schedule(&b, 11);
    queue.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    EXPECT_EQ(queue.run(), 1u);
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2);
    queue.schedule(&a, 10);
    queue.schedule(&b, 20);
    queue.reschedule(&a, 30);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(queue.curCycle(), 30u);
}

TEST(EventQueue, RunWithLimitStopsEarly)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2);
    queue.schedule(&a, 10);
    queue.schedule(&b, 100);
    EXPECT_EQ(queue.run(50), 1u);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_FALSE(queue.empty());
    EXPECT_EQ(queue.run(), 1u);
    EXPECT_EQ(log.size(), 2u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue queue;
    std::vector<Cycle> fired;
    queue.scheduleLambda(1, [&] {
        fired.push_back(queue.curCycle());
        queue.scheduleLambda(queue.curCycle() + 5, [&] {
            fired.push_back(queue.curCycle());
        });
    });
    queue.run();
    EXPECT_EQ(fired, (std::vector<Cycle>{1, 6}));
}

TEST(EventQueue, DoubleSchedulePanics)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1);
    queue.schedule(&a, 10);
    EXPECT_THROW(queue.schedule(&a, 12), PanicError);
    queue.deschedule(&a);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue queue;
    queue.scheduleLambda(10, [] {});
    queue.run();
    std::vector<int> log;
    CountingEvent a(&log, 1);
    EXPECT_THROW(queue.schedule(&a, 5), PanicError);
}

TEST(EventQueue, DescheduleUnscheduledPanics)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1);
    EXPECT_THROW(queue.deschedule(&a), PanicError);
}

TEST(EventQueue, RunOneCycleProcessesHeadCycleOnly)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2), c(&log, 3);
    queue.schedule(&a, 4);
    queue.schedule(&b, 4);
    queue.schedule(&c, 9);
    queue.runOneCycle();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(queue.size(), 1u);
    queue.run();
}

TEST(EventQueue, ManyLambdaEventsAreReaped)
{
    EventQueue queue;
    std::uint64_t count = 0;
    for (int i = 0; i < 10000; ++i)
        queue.scheduleLambda(static_cast<Cycle>(i), [&] { ++count; });
    queue.run();
    EXPECT_EQ(count, 10000u);
    // Everything scheduled before running, so the pool grew to the
    // in-flight peak; after the run every event is back on the free
    // list awaiting reuse.
    EXPECT_EQ(queue.allocatedLambdaEvents(), 10000u);
    EXPECT_EQ(queue.freeLambdaEvents(), 10000u);
}

TEST(EventQueue, PooledLambdaEventsAreReused)
{
    // A steady-state message chain (each delivery schedules the next)
    // must stop growing the pool instead of allocating one event per
    // scheduleLambda call. A callback runs in place and its event is
    // recycled only after it returns, so the chain alternates between
    // exactly two events.
    EventQueue queue;
    std::uint64_t count = 0;
    std::function<void()> chain = [&] {
        if (++count < 1000)
            queue.scheduleLambda(queue.curCycle() + 1, chain);
    };
    queue.scheduleLambda(0, chain);
    queue.run();
    EXPECT_EQ(count, 1000u);
    EXPECT_EQ(queue.allocatedLambdaEvents(), 2u);
    EXPECT_EQ(queue.freeLambdaEvents(), 2u);
}

TEST(EventQueue, ScheduledLambdaIsBuiltInPlaceAndRunOnce)
{
    // The callable moves once, into its pooled event, and runs there:
    // nothing relocates it between scheduleLambda() and dispatch.
    MoveLog log;
    {
        EventQueue queue;
        queue.scheduleLambda(3, MoveCounter{&log});
        EXPECT_LE(log.moves, 1);
        EXPECT_EQ(log.calls, 0);
        queue.run();
        EXPECT_EQ(log.calls, 1);
        EXPECT_EQ(log.destroyed, 1);
        EXPECT_LE(log.moves, 1);
        EXPECT_EQ(log.live, 0);
    }
    // A callable still pending at teardown is destroyed, never run.
    MoveLog pending;
    {
        EventQueue queue;
        queue.scheduleLambda(100, MoveCounter{&pending});
        queue.run(50);
    }
    EXPECT_EQ(pending.calls, 0);
    EXPECT_EQ(pending.destroyed, 1);
    EXPECT_EQ(pending.live, 0);
}

TEST(EventQueue, ThrowingLambdaIsStillRecycled)
{
    // panic() throws; the event must still return to the pool with its
    // callable destroyed, and the queue must keep working.
    EventQueue queue;
    MoveLog log;
    queue.scheduleLambda(1, [counter = MoveCounter{&log}]() mutable {
        counter();
        panic("callback failed");
    });
    EXPECT_THROW(queue.run(), PanicError);
    EXPECT_EQ(log.calls, 1);
    EXPECT_EQ(log.destroyed, 1);
    EXPECT_EQ(log.live, 0);
    EXPECT_EQ(queue.allocatedLambdaEvents(), 1u);
    EXPECT_EQ(queue.freeLambdaEvents(), 1u);

    int after = 0;
    queue.scheduleLambda(2, [&] { ++after; });
    queue.run();
    EXPECT_EQ(after, 1);
    EXPECT_EQ(queue.allocatedLambdaEvents(), 1u);
}

TEST(EventQueue, FarFutureEventSurvivesLimitedRun)
{
    // Regression: run(limit) used to fold overflow records into the
    // wheel relative to the head cycle before the clock reached it;
    // breaking on the limit then left the clock behind, and the next
    // scan misread the folded bucket as `when - wheelSize` (an event
    // at 10000 fired at 1808 after run(50)).
    EventQueue queue;
    std::vector<Cycle> fired;
    queue.scheduleLambda(10000, [&] { fired.push_back(queue.curCycle()); });
    EXPECT_EQ(queue.run(50), 0u);
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(queue.run(), 1u);
    EXPECT_EQ(fired, (std::vector<Cycle>{10000}));
    EXPECT_EQ(queue.curCycle(), 10000u);
}

TEST(EventQueue, StaleHeadDoesNotAliasOverflowEvent)
{
    // Regression: a descheduled (stale) record at the head bucket let
    // nextEventCycle() report a cycle the clock never advanced to, and
    // overflow records folded relative to that phantom head aliased to
    // earlier buckets (an event at 8000 fired at 3904).
    EventQueue queue;
    std::vector<int> log;
    CountingEvent stale(&log, 1);
    queue.schedule(&stale, 4000);
    std::vector<Cycle> fired;
    queue.scheduleLambda(8000, [&] { fired.push_back(queue.curCycle()); });
    queue.deschedule(&stale);
    EXPECT_EQ(queue.run(), 1u);
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(fired, (std::vector<Cycle>{8000}));
    EXPECT_EQ(queue.curCycle(), 8000u);
}

TEST(EventQueue, FarFutureOrderingAcrossRepeatedLimitedRuns)
{
    // Stepping the queue in small limit increments (the way System
    // interleaves with context-switch/storm events that live in the
    // overflow heap) must preserve exact (cycle, priority, seq) order.
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2), c(&log, 3), d(&log, 4);
    queue.schedule(&a, 100);
    queue.schedule(&b, 5000);
    queue.schedule(&c, 9000);
    queue.schedule(&d, 20000);
    for (Cycle limit = 0; limit <= 25000; limit += 64)
        queue.run(limit);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2);
    queue.schedule(&a, 1);
    queue.schedule(&b, 2);
    EXPECT_EQ(queue.size(), 2u);
    queue.deschedule(&b);
    EXPECT_EQ(queue.size(), 1u);
    queue.run();
    EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueue, NextEventCycleEmptyQueueIsInvalid)
{
    EventQueue queue;
    EXPECT_EQ(queue.nextEventCycle(), invalidCycle);
    // Still invalid after the clock has moved.
    queue.scheduleLambda(100, [] {});
    queue.run();
    EXPECT_EQ(queue.nextEventCycle(), invalidCycle);
}

TEST(EventQueue, NextEventCycleSeesOverflowHeapHead)
{
    // An event beyond the wheel horizon lives only in the overflow
    // heap; nextEventCycle() must still report it.
    EventQueue queue;
    queue.scheduleLambda(100000, [] {});
    EXPECT_EQ(queue.nextEventCycle(), 100000u);
    std::vector<int> log;
    CountingEvent a(&log, 1);
    queue.schedule(&a, 12);
    EXPECT_EQ(queue.nextEventCycle(), 12u);
    queue.deschedule(&a);
    // The stale record keeps the answer conservative (never later
    // than the first live event) but the clock must not be misled.
    EXPECT_LE(queue.nextEventCycle(), 100000u);
    EXPECT_EQ(queue.run(), 1u);
    EXPECT_EQ(queue.curCycle(), 100000u);
}

TEST(EventQueue, NextEventCycleHeadAtCurrentCycle)
{
    // From inside a dispatched event, a sibling scheduled for the
    // same cycle must read back as pending at curCycle itself.
    EventQueue queue;
    Cycle seen = invalidCycle;
    queue.scheduleLambda(7, [&] { seen = queue.nextEventCycle(); });
    queue.scheduleLambda(7, [] {});
    queue.run();
    EXPECT_EQ(seen, 7u);
}

TEST(EventQueue, QuietUntilBoundsAndStrictness)
{
    EventQueue queue;
    // Empty queue: quiet anywhere inside the wheel horizon, but the
    // check refuses windows reaching the horizon (can't prove them).
    EXPECT_TRUE(queue.quietUntil(0));
    EXPECT_TRUE(queue.quietUntil(4094));
    EXPECT_FALSE(queue.quietUntil(4096));

    std::vector<int> log;
    CountingEvent a(&log, 1);
    queue.schedule(&a, 50);
    EXPECT_TRUE(queue.quietUntil(49));   // window excludes the event
    EXPECT_FALSE(queue.quietUntil(50));  // window includes it
    EXPECT_FALSE(queue.quietUntil(51));

    // Overflow-heap events bound the quiet window too. Run past the
    // descheduled record first: run() never visits stale buckets on
    // its own, so a live event at 60 drags the scan (and the bit
    // clearing) across bucket 50.
    queue.deschedule(&a);
    queue.scheduleLambda(60, [] {});
    EXPECT_EQ(queue.run(), 1u);
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(queue.curCycle(), 60u);
    queue.scheduleLambda(queue.curCycle() + 100000, [] {});
    EXPECT_TRUE(queue.quietUntil(queue.curCycle() + 4000));
    EXPECT_FALSE(queue.quietUntil(queue.curCycle() + 100000));
}

TEST(EventQueue, QuietUntilStaleRecordIsConservative)
{
    // A descheduled record leaves its bucket bit set until the scan
    // reaches it; quietUntil() may answer false (conservative), but
    // must never answer true past a *live* event hiding behind it.
    EventQueue queue;
    std::vector<int> log;
    CountingEvent stale(&log, 1), live(&log, 2);
    queue.schedule(&stale, 30);
    queue.schedule(&live, 40);
    queue.deschedule(&stale);
    EXPECT_FALSE(queue.quietUntil(40));
    EXPECT_FALSE(queue.quietUntil(4095));
    queue.deschedule(&live);
}

TEST(EventQueue, QuietUntilPreciseDuringDispatch)
{
    // The bypass fires from *inside* a dispatched step event, so the
    // current bucket's occupancy bit must already be clear when the
    // bucket's last record is being processed -- and still set while
    // a same-cycle sibling waits.
    EventQueue queue;
    std::vector<bool> quiet;
    queue.scheduleLambda(10, [&] { quiet.push_back(queue.quietUntil(20)); });
    queue.scheduleLambda(10, [&] { quiet.push_back(queue.quietUntil(20)); });
    queue.scheduleLambda(30, [] {});
    queue.run();
    // First dispatch: sibling at 10 still pending -> not quiet.
    // Second dispatch: bucket drained, next event at 30 -> quiet to 20.
    EXPECT_EQ(quiet, (std::vector<bool>{false, true}));
}

TEST(EventQueue, AdvanceToMovesClockAndRejectsPast)
{
    EventQueue queue;
    queue.advanceTo(0); // no-op: advancing to the present is legal
    queue.advanceTo(123);
    EXPECT_EQ(queue.curCycle(), 123u);
    EXPECT_THROW(queue.advanceTo(122), PanicError);

    // Scheduling relative to the advanced clock works as usual.
    std::vector<int> log;
    CountingEvent a(&log, 1);
    queue.schedule(&a, 200);
    queue.run();
    EXPECT_EQ(queue.curCycle(), 200u);
    EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(EventQueue, AdvanceToInsideDispatchSkipsQuietCycles)
{
    // The bypass pattern end-to-end: an event checks the queue is
    // quiet, advances the clock over the gap, and the queue resumes
    // exact dispatch from the new cycle.
    EventQueue queue;
    std::vector<Cycle> fired;
    queue.scheduleLambda(5, [&] {
        ASSERT_TRUE(queue.quietUntil(24));
        queue.advanceTo(24);
        queue.scheduleLambda(25, [&] { fired.push_back(queue.curCycle()); });
    });
    queue.scheduleLambda(25, [&] { fired.push_back(queue.curCycle()); });
    queue.run();
    EXPECT_EQ(fired, (std::vector<Cycle>{25, 25}));
    EXPECT_EQ(queue.curCycle(), 25u);
}
