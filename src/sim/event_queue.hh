/**
 * @file
 * A minimal deterministic discrete-event kernel, cycle granular.
 *
 * Events are intrusive (gem5-style): an Event object owns its scheduling
 * state and is processed at most once per schedule() call. Determinism is
 * guaranteed by a FIFO tiebreak among events scheduled for the same cycle
 * with equal priority.
 *
 * The pending store is a timing wheel: near-future events (within
 * `wheelSize` cycles, which covers everything on the per-access path)
 * sit in per-cycle buckets found through an occupancy bitmap. A bucket
 * is a FIFO linked through the events themselves and kept in
 * (priority, seq) order, so scheduling, descheduling and dispatch
 * never copy a record or allocate, and the whole wheel is a fixed
 * array of head/tail pairs. Far-future events (periodic context
 * switches, storm ops) overflow into a small heap and are linked into
 * the wheel as the clock approaches them. Processing order is exactly
 * (cycle, priority, schedule order), identical to a single global
 * priority queue.
 */

#ifndef NOCSTAR_SIM_EVENT_QUEUE_HH
#define NOCSTAR_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace nocstar
{

class EventQueue;

/**
 * Base class for schedulable work. Derive and implement process(), or use
 * LambdaEvent for one-off callbacks.
 */
class Event
{
  public:
    /** Lower value == processed earlier within the same cycle. */
    using Priority = std::int32_t;

    static constexpr Priority defaultPriority = 0;
    /** Arbitration events run after all same-cycle requests are posted. */
    static constexpr Priority arbitrationPriority = 100;
    /** Stat-dump style events run last in a cycle. */
    static constexpr Priority lastPriority = 1000;

    explicit Event(Priority prio = defaultPriority) : _priority(prio) {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Callback invoked when the event's cycle is reached. */
    virtual void process() = 0;

    /** @return true while the event sits in a queue awaiting process(). */
    bool scheduled() const { return _scheduled; }

    /** @return cycle this event is scheduled for (invalidCycle if none). */
    Cycle when() const { return _when; }

    Priority priority() const { return _priority; }

  private:
    friend class EventQueue;

    Priority _priority;
    bool _scheduled = false;
    /** Linked into a wheel bucket (else pending in the overflow heap). */
    bool _inWheel = false;
    Cycle _when = invalidCycle;
    /** Schedule order: the FIFO tiebreak of the dispatch key. */
    std::uint64_t _seq = 0;
    /** Generation counter so stale overflow-heap records are ignored. */
    std::uint64_t _generation = 0;
    /** Next event in the same wheel bucket. */
    Event *_next = nullptr;
};

/**
 * One-shot simulation callback. The capacity covers the largest
 * callable scheduled on the per-access path: a walk completion
 * carrying the walk result and the organization's WalkDone
 * continuation, which owns the requester's completion callback.
 * (Fabric deliveries do not pass through here: their continuations
 * live in the Interconnect's pooled messages.) Outgrowing it is a
 * compile error, never a heap allocation.
 */
using SimCallback = InlineFunction<void(), 256>;

/** Convenience event wrapping an inline callback. */
class LambdaEvent : public Event
{
  public:
    explicit LambdaEvent(SimCallback fn, Priority prio = defaultPriority)
        : Event(prio), fn_(std::move(fn))
    {}

    void process() override { fn_(); }

  private:
    SimCallback fn_;
};

/**
 * The global clock and pending-event store for one simulation.
 */
class EventQueue
{
  public:
    /** Current simulation cycle. */
    Cycle curCycle() const { return _curCycle; }

    /** Schedule @p ev for absolute cycle @p when (>= curCycle()). */
    void schedule(Event *ev, Cycle when);

    /** Remove @p ev from the queue; no-op fields reset. */
    void deschedule(Event *ev);

    /** Deschedule if needed, then schedule at @p when. */
    void reschedule(Event *ev, Cycle when);

    /** @return true if no events remain. */
    bool empty() const { return _numScheduled == 0; }

    /** Number of scheduled (live) events. */
    std::size_t size() const { return _numScheduled; }

    /**
     * Earliest cycle holding a wheel event or an overflow-heap record,
     * or invalidCycle when none remain. Stale overflow records make the
     * result conservative: it may name a cycle with nothing live to
     * run, but never a cycle later than the first live event.
     */
    Cycle nextEventCycle() const;

    /**
     * @return true when no event is pending anywhere in [curCycle(),
     * @p when] and the overflow heap holds no record (live or stale)
     * at or before @p when. Windows reaching beyond the wheel horizon
     * report false. Nothing in the simulator calls it; it stays
     * because the benchmark's event-queue replay (perfbench) times it.
     */
    bool quietUntil(Cycle when) const;

    /**
     * Jump the clock to @p when at a quiescent point: fast-forward and
     * checkpoint restore, which run with nothing scheduled. Panics if
     * @p when is in the past or any live event is pending. Every
     * overflow-heap record left is then stale, so the jump drops them
     * all; one left behind the new clock would pull the clock back to
     * its cycle when it surfaced.
     */
    void advanceTo(Cycle when);

    /**
     * Run until the queue drains or the cycle limit is passed.
     * @param limit stop before processing events beyond this cycle.
     * @return number of events processed.
     */
    std::uint64_t run(Cycle limit = invalidCycle);

    /** Process events for the current head cycle only. */
    void runOneCycle();

    /**
     * Schedule a one-shot callback; the queue owns the event's
     * lifetime. @p fn is moved (an lvalue: copied) once, straight
     * into a pooled event, and runs there in place. The backing
     * events come from a free-list pool, so a steady-state simulation
     * stops allocating per message: once the pool has grown to the
     * peak number of in-flight callbacks, every subsequent call reuses
     * a recycled event.
     */
    template <typename F>
    void
    scheduleLambda(Cycle when, F &&fn,
                   Event::Priority prio = Event::defaultPriority)
    {
        PooledLambdaEvent *ev = acquireLambdaEvent();
        ev->fn_ = std::forward<F>(fn);
        ev->_priority = prio;
        schedule(ev, when);
    }

    /** Pooled lambda events currently awaiting reuse (test hook). */
    std::size_t freeLambdaEvents() const { return lambdaFree_.size(); }
    /** Pooled lambda events ever allocated by this queue (test hook). */
    std::size_t allocatedLambdaEvents() const { return lambdaAll_.size(); }

  private:
    /** Wheel span in cycles; must be a power of two. */
    static constexpr std::size_t wheelSize = 4096;
    static constexpr std::size_t wheelMask = wheelSize - 1;
    static constexpr std::size_t wheelWords = wheelSize / 64;

    /** An overflow-heap entry; stale once its event's generation moves. */
    struct Record
    {
        Cycle when;
        Event::Priority priority;
        std::uint64_t seq;
        std::uint64_t generation;
        Event *event;

        bool
        operator>(const Record &other) const
        {
            if (when != other.when)
                return when > other.when;
            if (priority != other.priority)
                return priority > other.priority;
            return seq > other.seq;
        }
    };

    /** The events of one in-horizon cycle, in (priority, seq) order. */
    struct Bucket
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    /** Link @p ev (due within the horizon) into its bucket, in order. */
    void link(Event *ev);

    /**
     * Link the live overflow events whose cycle now lies within the
     * wheel horizon [_curCycle, _curCycle + wheelSize) into their
     * buckets, and drop the stale records among them. Must only be
     * called after the clock has advanced (bucket indices alias modulo
     * wheelSize relative to _curCycle).
     */
    void foldOverflow();

    /**
     * Process the events due at @p cycle in (priority, seq) order,
     * including events scheduled for it while processing; stop early
     * if a handler advances the clock (advanceTo() on an otherwise
     * empty queue). @return number processed.
     */
    std::uint64_t processCycle(Cycle cycle);

    /**
     * A recyclable one-shot callback event owned by the queue. On
     * process() it runs the callback in place and only then destroys
     * it and returns itself to the owner's free list -- also when the
     * callback throws, as panic() and fatal() do. A callback that
     * schedules another lambda therefore draws a second event, and a
     * self-rescheduling chain alternates between two.
     */
    class PooledLambdaEvent : public Event
    {
      public:
        explicit PooledLambdaEvent(EventQueue *owner) : owner_(owner) {}

        void
        process() override
        {
            struct Recycle
            {
                PooledLambdaEvent *ev;
                ~Recycle()
                {
                    ev->fn_ = nullptr;
                    ev->owner_->lambdaFree_.push_back(ev);
                }
            } recycle{this};
            fn_();
        }

      private:
        friend class EventQueue;

        EventQueue *owner_;
        SimCallback fn_;
    };

    /** A free pooled event, or a newly allocated one. */
    PooledLambdaEvent *
    acquireLambdaEvent()
    {
        if (lambdaFree_.empty()) {
            lambdaAll_.push_back(new PooledLambdaEvent(this));
            return lambdaAll_.back();
        }
        PooledLambdaEvent *ev = lambdaFree_.back();
        lambdaFree_.pop_back();
        return ev;
    }

    /** Per-cycle buckets for events within the wheel horizon. */
    Bucket wheel_[wheelSize];
    /** One bit per bucket: set while the bucket holds any event. */
    std::uint64_t occupied_[wheelWords] = {};
    /** Events currently linked into the wheel. */
    std::size_t wheelCount_ = 0;
    /** Events beyond the wheel horizon, ordered by (when, prio, seq). */
    std::priority_queue<Record, std::vector<Record>, std::greater<>>
        overflow_;
    Cycle _curCycle = 0;
    std::uint64_t _nextSeq = 0;
    std::size_t _numScheduled = 0;
    /** Recycled lambda events ready for the next scheduleLambda(). */
    std::vector<PooledLambdaEvent *> lambdaFree_;
    /** Every pooled event this queue ever allocated (for teardown). */
    std::vector<PooledLambdaEvent *> lambdaAll_;

  public:
    ~EventQueue();
};

} // namespace nocstar

#endif // NOCSTAR_SIM_EVENT_QUEUE_HH
