/**
 * @file
 * Unit tests for the discrete-event kernel, plus a differential test
 * that drives randomized schedule/deschedule/reschedule/run sequences
 * through the timing wheel and through a reference binary heap keyed
 * on (cycle, priority, seq) with lazy deletion, and demands the same
 * dispatch order and live-event count at every step.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <queue>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
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
    // The descheduled wheel event is gone at once, and the clock must
    // not be misled.
    EXPECT_EQ(queue.nextEventCycle(), 100000u);
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

    // Overflow-heap events bound the quiet window too.
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
    // A descheduled wheel event leaves its bucket at once, so its
    // occupancy bit clears and quietUntil() sees through it -- but
    // never past a *live* event behind it.
    EventQueue queue;
    std::vector<int> log;
    CountingEvent gone(&log, 1), live(&log, 2);
    queue.schedule(&gone, 30);
    queue.schedule(&live, 40);
    EXPECT_FALSE(queue.quietUntil(30));
    queue.deschedule(&gone);
    EXPECT_TRUE(queue.quietUntil(39));
    EXPECT_EQ(queue.nextEventCycle(), 40u);
    EXPECT_FALSE(queue.quietUntil(40));
    EXPECT_FALSE(queue.quietUntil(4095));
    queue.deschedule(&live);
    EXPECT_TRUE(queue.quietUntil(4095));

    // Only the overflow heap keeps stale records: a descheduled
    // far-future event still bounds the window until it surfaces.
    // quietUntil() may answer false needlessly, never true across a
    // live event.
    CountingEvent far(&log, 3);
    queue.schedule(&far, 5000);
    queue.deschedule(&far);
    ASSERT_TRUE(queue.quietUntil(2000));
    queue.advanceTo(2000);
    EXPECT_TRUE(queue.quietUntil(4999));
    EXPECT_FALSE(queue.quietUntil(5000));
    EXPECT_EQ(queue.run(), 0u);
    EXPECT_TRUE(log.empty());
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

TEST(EventQueue, AdvanceToInsideDispatchLeavesAliasedBucketForLater)
{
    // A long bypass streak advances the clock in quiet steps, so a
    // handler can bring its own cycle plus the wheel span within the
    // horizon while that cycle is still being dispatched. An event it
    // schedules there lands in the bucket being dispatched, and must
    // wait for its own cycle.
    EventQueue queue;
    std::vector<Cycle> fired;
    queue.scheduleLambda(10, [&] {
        for (Cycle next = 1000; next <= 4000; next += 1000) {
            ASSERT_TRUE(queue.quietUntil(next));
            queue.advanceTo(next);
        }
        queue.scheduleLambda(10 + 4096,
                             [&] { fired.push_back(queue.curCycle()); });
    });
    EXPECT_EQ(queue.run(), 2u);
    EXPECT_EQ(fired, (std::vector<Cycle>{10 + 4096}));
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

namespace
{

class WheelOracle;

/** A pooled test event: reports its dispatch to the oracle. */
class ProbeEvent : public Event
{
  public:
    ProbeEvent(WheelOracle *oracle, std::size_t id, Priority prio)
        : Event(prio), oracle_(oracle), id_(id)
    {}

    void process() override;

  private:
    WheelOracle *oracle_;
    std::size_t id_;
};

/**
 * Drives an EventQueue and a reference priority queue in lockstep.
 * Every operation goes to both; every dispatch the real queue makes
 * must be the reference's next live record, and the live counts must
 * agree after every step. Handlers draw further operations from the
 * same stream, so same-cycle scheduling, deschedules of the bucket
 * being dispatched and far-future events all happen mid-dispatch.
 */
class WheelOracle
{
  public:
    WheelOracle(std::uint64_t seed, std::size_t events) : rng_(seed)
    {
        static constexpr Event::Priority prios[] = {
            -7, Event::defaultPriority, Event::defaultPriority, 3,
            Event::arbitrationPriority, Event::lastPriority};
        for (std::size_t id = 0; id < events; ++id)
            events_.push_back(std::make_unique<ProbeEvent>(
                this, id, prios[rng_.below(std::size(prios))]));
        seq_.assign(events, noSeq);
    }

    ~WheelOracle()
    {
        // The queue outlives the pool; a failed run may leave events
        // pending, and destroying a scheduled event panics.
        for (const std::unique_ptr<ProbeEvent> &ev : events_)
            if (ev->scheduled())
                queue_.deschedule(ev.get());
    }

    /** One top-level operation, drawn from the stream. */
    void
    step()
    {
        switch (rng_.below(10)) {
          case 0:
          case 1:
          case 2:
            scheduleIdle(queue_.curCycle() + delay());
            break;
          case 3:
            if (std::size_t id = pickQueued(); id != none)
                deschedule(id);
            break;
          case 4:
            if (std::size_t id = pickQueued(); id != none)
                reschedule(id, queue_.curCycle() + delay());
            break;
          case 5:
            runUntil(limit());
            break;
          case 6:
            runOneCycle();
            break;
          case 7:
            skipQuiet();
            break;
          default:
            checkNextEventCycle();
            break;
        }
        expectInSync();
    }

    /** Drain both queues and compare the end state. */
    void
    drain()
    {
        runUntil(invalidCycle);
        EXPECT_TRUE(queue_.empty());
        EXPECT_EQ(live_, 0u);
        expectInSync();
    }

    /** Called by ProbeEvent::process(). */
    void
    dispatched(std::size_t id)
    {
        if (failed_)
            return;
        const Cycle now = queue_.curCycle();
        dropStale();
        if (ref_.empty() || ref_.top().when != now ||
            ref_.top().id != id) {
            ADD_FAILURE() << "dispatch #" << dispatches_ << ": queue ran "
                          << id << " at " << now << ", reference expected "
                          << (ref_.empty() ? none : ref_.top().id) << " at "
                          << (ref_.empty() ? invalidCycle
                                           : ref_.top().when);
            failed_ = true;
            return;
        }
        ref_.pop();
        seq_[id] = noSeq;
        --live_;
        ++dispatches_;
        clock_ = now;
        ++dispatchedThisStep_;
        expectInSync();

        // Handler work: same-cycle events that run before and after
        // this one, deschedules and reschedules of pending events
        // (often in the bucket being dispatched), far-future events.
        const Event::Priority prio = events_[id]->priority();
        for (std::uint64_t n = rng_.below(3); n > 0 && !failed_; --n) {
            switch (rng_.below(6)) {
              case 0:
                scheduleIdle(now, [prio](Event::Priority p) {
                    return p < prio;
                });
                break;
              case 1:
                scheduleIdle(now, [prio](Event::Priority p) {
                    return p >= prio;
                });
                break;
              case 2:
                scheduleIdle(now + delay());
                break;
              case 3:
                if (std::size_t victim = pickQueued(); victim != none)
                    deschedule(victim);
                break;
              default:
                if (std::size_t victim = pickQueued(); victim != none)
                    reschedule(victim, now + delay());
                break;
            }
            expectInSync();
        }
    }

    bool failed() const { return failed_; }
    std::uint64_t dispatches() const { return dispatches_; }

  private:
    static constexpr std::size_t none = ~std::size_t{0};
    static constexpr std::uint64_t noSeq = ~std::uint64_t{0};

    struct RefRecord
    {
        Cycle when;
        Event::Priority priority;
        std::uint64_t seq;
        std::size_t id;

        bool
        operator>(const RefRecord &other) const
        {
            if (when != other.when)
                return when > other.when;
            if (priority != other.priority)
                return priority > other.priority;
            return seq > other.seq;
        }
    };

    /**
     * Mostly near-term, some at the wheel horizon, some beyond it, and
     * some on a coarse grid of cycles, so that events folded in from
     * the overflow heap share buckets with events scheduled directly.
     */
    Cycle
    delay()
    {
        switch (rng_.below(9)) {
          case 0:
            return 0;
          case 1:
          case 2:
          case 3:
            return rng_.below(4);
          case 4:
            return rng_.below(64);
          case 5:
            return rng_.below(4096);
          case 6:
            return 4094 + rng_.below(4);
          case 7: {
            const Cycle now = queue_.curCycle();
            return (now + rng_.below(3 * 4096)) / 1024 * 1024 + 1024 - now;
          }
          default:
            return 4096 + rng_.below(3 * 4096);
        }
    }

    Cycle
    limit()
    {
        static constexpr Cycle spans[] = {0, 1, 8, 300, 5000, 20000};
        return queue_.curCycle() + spans[rng_.below(std::size(spans))];
    }

    /** Schedule an idle event whose priority satisfies @p want. */
    template <typename Pred>
    void
    scheduleIdle(Cycle when, Pred want)
    {
        const std::size_t n = events_.size();
        const std::size_t start = rng_.below(n);
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t id = (start + k) % n;
            if (!events_[id]->scheduled() &&
                want(events_[id]->priority())) {
                schedule(id, when);
                return;
            }
        }
    }

    void
    scheduleIdle(Cycle when)
    {
        scheduleIdle(when, [](Event::Priority) { return true; });
    }

    void
    schedule(std::size_t id, Cycle when)
    {
        queue_.schedule(events_[id].get(), when);
        refPush(id, when);
    }

    void
    deschedule(std::size_t id)
    {
        queue_.deschedule(events_[id].get());
        seq_[id] = noSeq;
        --live_;
    }

    void
    reschedule(std::size_t id, Cycle when)
    {
        queue_.reschedule(events_[id].get(), when);
        seq_[id] = noSeq;
        --live_;
        refPush(id, when);
    }

    void
    refPush(std::size_t id, Cycle when)
    {
        seq_[id] = nextSeq_++;
        ref_.push(RefRecord{when, events_[id]->priority(), seq_[id], id});
        ++live_;
    }

    /**
     * A pending event at the head, middle or tail of one cycle's
     * dispatch order (the current cycle's, half the time, if any is
     * pending there), or none.
     */
    std::size_t
    pickQueued()
    {
        const std::size_t n = events_.size();
        const std::size_t start = rng_.below(n);
        const bool now_first = rng_.below(2) == 0;
        std::size_t pick = none;
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t id = (start + k) % n;
            if (!events_[id]->scheduled())
                continue;
            if (pick == none)
                pick = id;
            if (!now_first ||
                events_[id]->when() == queue_.curCycle()) {
                pick = id;
                break;
            }
        }
        if (pick == none)
            return none;
        std::vector<std::size_t> same;
        for (std::size_t id = 0; id < n; ++id)
            if (events_[id]->scheduled() &&
                events_[id]->when() == events_[pick]->when())
                same.push_back(id);
        std::sort(same.begin(), same.end(),
                  [this](std::size_t a, std::size_t b) {
                      const Event::Priority pa = events_[a]->priority();
                      const Event::Priority pb = events_[b]->priority();
                      return pa != pb ? pa < pb : seq_[a] < seq_[b];
                  });
        switch (rng_.below(3)) {
          case 0:
            return same.front();
          case 1:
            return same[same.size() / 2];
          default:
            return same.back();
        }
    }

    void
    dropStale()
    {
        while (!ref_.empty() && seq_[ref_.top().id] != ref_.top().seq)
            ref_.pop();
    }

    /** The reference's earliest live cycle, or invalidCycle. */
    Cycle
    refHead()
    {
        dropStale();
        return ref_.empty() ? invalidCycle : ref_.top().when;
    }

    void
    runUntil(Cycle limit)
    {
        queue_.run(limit);
        if (failed_)
            return;
        // Everything due by the limit ran; the clock stops on the limit
        // while work remains, else on the last dispatch.
        const Cycle head = refHead();
        EXPECT_TRUE(head == invalidCycle || head > limit);
        if (limit != invalidCycle && live_ > 0 && clock_ < limit)
            clock_ = limit;
    }

    void
    runOneCycle()
    {
        // A call may land on a cycle held only by a stale record (the
        // queue cannot tell until it looks), so step until a cycle
        // dispatches something or nothing live remains.
        dispatchedThisStep_ = 0;
        while (dispatchedThisStep_ == 0 && !queue_.empty() && !failed_)
            queue_.runOneCycle();
        if (failed_ || dispatchedThisStep_ == 0)
            return;
        // The whole cycle ran, including work its handlers added.
        const Cycle head = refHead();
        EXPECT_TRUE(head == invalidCycle || head > clock_);
    }

    /** The hit-streak bypass pattern: skip ahead while quiet. */
    void
    skipQuiet()
    {
        const Cycle target = queue_.curCycle() + rng_.below(64);
        if (!queue_.quietUntil(target))
            return;
        const Cycle head = refHead();
        EXPECT_TRUE(head == invalidCycle || head > target)
            << "quietUntil(" << target << ") held across a live event at "
            << head;
        queue_.advanceTo(target);
        clock_ = target;
    }

    void
    checkNextEventCycle()
    {
        const Cycle next = queue_.nextEventCycle();
        const Cycle head = refHead();
        if (head == invalidCycle)
            return;
        EXPECT_GE(next, queue_.curCycle());
        EXPECT_LE(next, head);
    }

    void
    expectInSync()
    {
        EXPECT_EQ(queue_.size(), live_);
        EXPECT_EQ(queue_.curCycle(), clock_);
        if (queue_.size() != live_ || queue_.curCycle() != clock_)
            failed_ = true;
    }

    EventQueue queue_;
    Random rng_;
    std::vector<std::unique_ptr<ProbeEvent>> events_;

    std::priority_queue<RefRecord, std::vector<RefRecord>, std::greater<>>
        ref_;
    /** Seq of each event's live reference record, or noSeq. */
    std::vector<std::uint64_t> seq_;
    std::size_t live_ = 0;
    std::uint64_t nextSeq_ = 0;
    Cycle clock_ = 0;

    std::uint64_t dispatches_ = 0;
    std::uint64_t dispatchedThisStep_ = 0;
    bool failed_ = false;
};

void
ProbeEvent::process()
{
    oracle_->dispatched(id_);
}

class WheelDifferentialTest : public ::testing::TestWithParam<std::uint64_t>
{};

} // namespace

TEST_P(WheelDifferentialTest, RandomizedOpsMatchReference)
{
    WheelOracle oracle(0x3e11d1ffULL ^ (GetParam() << 32), 48);
    for (int op = 0; op < 40000 && !oracle.failed(); ++op)
        oracle.step();
    oracle.drain();
    EXPECT_FALSE(oracle.failed());
    // Enough traffic that the draws above really exercised the wheel.
    EXPECT_GT(oracle.dispatches(), 10000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WheelDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));
