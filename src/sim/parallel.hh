/**
 * @file
 * A fixed-size worker pool for running independent simulations in
 * parallel (the paper's evaluation is hundreds of embarrassingly
 * parallel sweeps; cf. Fig 18's 1,320 runs).
 *
 * Safety model: each cpu::System owns its EventQueue, Random streams
 * and stat tree, and no simulator component keeps mutable global
 * state, so simulations on different threads never share data. The
 * pool therefore provides plain task parallelism with no locking
 * inside the simulated world; parallelMap() preserves input order in
 * its result vector, so sweep output is byte-identical regardless of
 * the worker count.
 *
 * Worker-count resolution (highest priority first): an explicit
 * argument, the NOCSTAR_JOBS environment variable, then
 * std::thread::hardware_concurrency().
 */

#ifndef NOCSTAR_SIM_PARALLEL_HH
#define NOCSTAR_SIM_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace nocstar::sim
{

/**
 * Number of workers to use when the caller does not say: NOCSTAR_JOBS
 * if set to a positive integer, otherwise the hardware thread count
 * (at least 1).
 */
unsigned defaultJobs();

/**
 * A fixed-size thread pool. Workers are spawned on construction and
 * joined on destruction; tasks are run in submission order but
 * complete in any order.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means defaultJobs(). */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Enqueue one task. Never blocks. */
    void post(std::function<void()> task);

    /** Block until every posted task has finished. */
    void drain();

    /**
     * Apply @p fn to every element of @p items, returning the results
     * in input order. The result type must be default-constructible
     * and movable. With one worker (or one item) this degenerates to
     * a serial loop on the calling thread, guaranteeing identical
     * behavior to not using the pool at all. The first exception
     * thrown by @p fn (if any) is rethrown on the calling thread once
     * all tasks have settled.
     */
    template <typename In, typename Fn>
    auto
    map(const std::vector<In> &items, Fn fn)
        -> std::vector<std::invoke_result_t<Fn &, const In &>>
    {
        using Out = std::invoke_result_t<Fn &, const In &>;
        std::vector<Out> results(items.size());
        if (size() <= 1 || items.size() <= 1) {
            for (std::size_t i = 0; i < items.size(); ++i)
                results[i] = fn(items[i]);
            return results;
        }

        struct MapState
        {
            std::mutex mutex;
            std::condition_variable done;
            std::size_t remaining;
            std::exception_ptr error;
        };
        auto state = std::make_shared<MapState>();
        state->remaining = items.size();

        for (std::size_t i = 0; i < items.size(); ++i) {
            post([&items, &results, &fn, i, state] {
                try {
                    results[i] = fn(items[i]);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(state->mutex);
                    if (!state->error)
                        state->error = std::current_exception();
                }
                std::lock_guard<std::mutex> lock(state->mutex);
                if (--state->remaining == 0)
                    state->done.notify_all();
            });
        }

        std::unique_lock<std::mutex> lock(state->mutex);
        state->done.wait(lock, [&] { return state->remaining == 0; });
        if (state->error)
            std::rethrow_exception(state->error);
        return results;
    }

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable wake_; ///< workers wait here for tasks
    std::condition_variable idle_; ///< drain() waits here
    std::size_t active_ = 0; ///< tasks currently executing
    bool stopping_ = false;
};

/**
 * One-shot convenience: run @p fn over @p items on @p jobs workers
 * (0 = defaultJobs()), preserving input order in the results.
 */
template <typename In, typename Fn>
auto
parallelMap(const std::vector<In> &items, Fn fn, unsigned jobs = 0)
    -> std::vector<std::invoke_result_t<Fn &, const In &>>
{
    ThreadPool pool(jobs);
    return pool.map(items, std::move(fn));
}

} // namespace nocstar::sim

#endif // NOCSTAR_SIM_PARALLEL_HH
