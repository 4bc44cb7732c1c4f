/**
 * @file
 * Unit tests for InlineFunction, the fixed-capacity move-only callable
 * used for every continuation on the per-access hot path.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/inline_function.hh"

using namespace nocstar;

namespace
{

/** Counts live instances so tests can observe destruction/relocation. */
struct Tracker
{
    static int live;
    static int moves;

    Tracker() { ++live; }
    Tracker(Tracker &&) noexcept
    {
        ++live;
        ++moves;
    }
    Tracker(const Tracker &) { ++live; }
    ~Tracker() { --live; }

    static void
    reset()
    {
        live = 0;
        moves = 0;
    }
};

int Tracker::live = 0;
int Tracker::moves = 0;

} // namespace

TEST(InlineFunction, DefaultIsEmpty)
{
    InlineFunction<int(int)> fn;
    EXPECT_FALSE(fn);
    EXPECT_TRUE(fn == nullptr);

    InlineFunction<int(int)> null_fn(nullptr);
    EXPECT_FALSE(null_fn);
}

TEST(InlineFunction, InvokingEmptyPanics)
{
    // std::function threw std::bad_function_call here; calling through
    // a null pointer instead would be silent UB. Keep the failure
    // diagnosable.
    InlineFunction<void()> fn;
    EXPECT_THROW(fn(), PanicError);

    const InlineFunction<int(int)> cfn(nullptr);
    EXPECT_THROW(cfn(3), PanicError);

    InlineFunction<int()> moved_from = [] { return 1; };
    InlineFunction<int()> sink = std::move(moved_from);
    EXPECT_THROW(moved_from(), // NOLINT(bugprone-use-after-move)
                 PanicError);
    EXPECT_EQ(sink(), 1);
}

TEST(InlineFunction, InvokesWithArgumentsAndReturn)
{
    InlineFunction<int(int, int)> add = [](int a, int b) {
        return a + b;
    };
    ASSERT_TRUE(add);
    EXPECT_EQ(add(2, 3), 5);
    EXPECT_NE(add, nullptr);
}

TEST(InlineFunction, ConstInvocation)
{
    const InlineFunction<int()> fn = [] { return 17; };
    EXPECT_EQ(fn(), 17);
}

TEST(InlineFunction, CaptureFillsWholeBufferAtTheBoundary)
{
    // A capture block of exactly Capacity bytes must be accepted (one
    // byte more is a static_assert, i.e. a compile error, so the
    // boundary itself is the largest testable case).
    constexpr std::size_t cap = 64;
    struct Exact
    {
        unsigned char bytes[cap];
    };
    static_assert(sizeof(Exact) == cap);

    Exact block;
    for (std::size_t i = 0; i < cap; ++i)
        block.bytes[i] = static_cast<unsigned char>(i * 3 + 1);

    InlineFunction<unsigned(std::size_t), cap> fn =
        [block](std::size_t i) {
            return static_cast<unsigned>(block.bytes[i]);
        };
    EXPECT_EQ(fn.capacity(), cap);
    for (std::size_t i = 0; i < cap; ++i)
        EXPECT_EQ(fn(i), static_cast<unsigned>(i * 3 + 1));
}

TEST(InlineFunction, AcceptsMoveOnlyCallables)
{
    auto value = std::make_unique<int>(99);
    InlineFunction<int()> fn = [v = std::move(value)] { return *v; };
    EXPECT_EQ(fn(), 99);
    // std::function would reject this capture outright (copyable
    // target requirement); here moving is part of the contract.
    InlineFunction<int()> moved = std::move(fn);
    EXPECT_EQ(moved(), 99);
}

TEST(InlineFunction, MoveTransfersAndEmptiesSource)
{
    InlineFunction<int()> a = [] { return 7; };
    InlineFunction<int()> b = std::move(a);

    EXPECT_FALSE(a); // NOLINT(bugprone-use-after-move): documented
    ASSERT_TRUE(b);
    EXPECT_EQ(b(), 7);

    InlineFunction<int()> c;
    c = std::move(b);
    EXPECT_FALSE(b); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(c(), 7);
}

TEST(InlineFunction, MoveRelocatesCaptureExactlyOnce)
{
    Tracker::reset();
    {
        InlineFunction<void()> fn = [t = Tracker{}] { (void)t; };
        EXPECT_EQ(Tracker::live, 1);
        int moves_before = Tracker::moves;

        InlineFunction<void()> other = std::move(fn);
        EXPECT_EQ(Tracker::live, 1);
        EXPECT_EQ(Tracker::moves, moves_before + 1);
    }
    EXPECT_EQ(Tracker::live, 0);
}

TEST(InlineFunction, ResetAndNullAssignmentDestroyCapture)
{
    Tracker::reset();
    InlineFunction<void()> fn = [t = Tracker{}] { (void)t; };
    EXPECT_EQ(Tracker::live, 1);
    fn.reset();
    EXPECT_EQ(Tracker::live, 0);
    EXPECT_FALSE(fn);

    fn = [t = Tracker{}] { (void)t; };
    EXPECT_EQ(Tracker::live, 1);
    fn = nullptr;
    EXPECT_EQ(Tracker::live, 0);
}

TEST(InlineFunction, ReassignmentReplacesCallable)
{
    InlineFunction<int()> fn = [] { return 1; };
    fn = [] { return 2; };
    EXPECT_EQ(fn(), 2);
}

TEST(InlineFunction, SelfRescheduleFromInsideCallback)
{
    // A callback may schedule again through the pool it is running
    // from -- the pattern every step/retry loop relies on. It runs in
    // place, so the new event is a second one; its own event returns
    // to the pool once it has run.
    EventQueue queue;
    std::size_t count = 0;
    struct Chain
    {
        EventQueue *q;
        std::size_t *count;
        void
        operator()() const
        {
            ++*count;
            if (*count < 4)
                q->scheduleLambda(q->curCycle() + 2, Chain{*this});
        }
    };
    queue.scheduleLambda(1, Chain{&queue, &count});
    queue.run();
    EXPECT_EQ(count, 4u);
    // Steady-state: the chain alternated between two pooled events.
    EXPECT_EQ(queue.allocatedLambdaEvents(), queue.freeLambdaEvents());
    EXPECT_LE(queue.allocatedLambdaEvents(), 2u);
}

TEST(InlineFunction, NestedInlineFunctionsMoveThroughLayers)
{
    // Continuations own nested continuations by value, exactly like
    // the fabric -> organization -> system callback chain.
    InlineFunction<int(int)> inner = [](int x) { return x * 2; };
    InlineFunction<int(int), 96> outer =
        [inner = std::move(inner)](int x) mutable {
            return inner(x) + 1;
        };
    InlineFunction<int(int), 160> outermost =
        [outer = std::move(outer)](int x) mutable {
            return outer(x) + 10;
        };
    EXPECT_EQ(outermost(5), 21);
}
