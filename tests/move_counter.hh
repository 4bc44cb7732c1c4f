/**
 * @file
 * MoveCounter: a move-only callable that records how often it was
 * moved, called and destroyed, for tests that pin down how the event
 * queue and the fabric handle continuations.
 */

#ifndef NOCSTAR_TESTS_MOVE_COUNTER_HH
#define NOCSTAR_TESTS_MOVE_COUNTER_HH

namespace nocstar::test
{

/** What happened to one MoveCounter and its moved copies. */
struct MoveLog
{
    int moves = 0;
    int calls = 0;
    /** Destructions of the instance holding the value (not moved-from). */
    int destroyed = 0;
    /** Instances alive, moved-from shells included. */
    int live = 0;
};

/** Move-only callable, invocable with any arguments. */
class MoveCounter
{
  public:
    explicit MoveCounter(MoveLog *log) : log_(log) { ++log_->live; }

    MoveCounter(MoveCounter &&other) noexcept : log_(other.log_)
    {
        other.holder_ = false;
        ++log_->moves;
        ++log_->live;
    }

    MoveCounter(const MoveCounter &) = delete;
    MoveCounter &operator=(const MoveCounter &) = delete;
    MoveCounter &operator=(MoveCounter &&) = delete;

    ~MoveCounter()
    {
        if (holder_)
            ++log_->destroyed;
        --log_->live;
    }

    template <typename... Args>
    void
    operator()(Args &&...)
    {
        ++log_->calls;
    }

  private:
    MoveLog *log_;
    bool holder_ = true;
};

} // namespace nocstar::test

#endif // NOCSTAR_TESTS_MOVE_COUNTER_HH
