/**
 * @file
 * Structured simulation-event capture, the simulator's one
 * instrumentation layer: a bounded ring buffer of spans and instants
 * (translation lifecycles, slice lookups and shootdowns, page walks,
 * fabric link holds and faults, message setups) with a Chrome
 * trace-event JSON exporter, so a full translation timeline can be
 * inspected visually in Perfetto / chrome://tracing.
 *
 * Capture is off by default and gated by one cached global bool, so an
 * instrumentation point costs a single predicted branch when disabled.
 * Record names and argument names must be string literals (or
 * otherwise outlive the recorder): records store the pointers, never
 * copies.
 */

#ifndef NOCSTAR_SIM_TRACE_RECORDER_HH
#define NOCSTAR_SIM_TRACE_RECORDER_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace nocstar::sim
{

/** Display lane (Chrome "process") a record belongs to. */
enum class Lane : std::uint8_t
{
    Translation, ///< per-core translation lifecycles
    Slice,       ///< L2 TLB slice / bank array occupancy
    Walker,      ///< per-core page-table walkers
    Link,        ///< fabric link hold spans
    Message,     ///< fabric message setup/traversal and denials
    Counter,     ///< sampled counter tracks (queue depth, misses, ...)
    NumLanes,
};

constexpr unsigned numLanes = static_cast<unsigned>(Lane::NumLanes);

/** Human-readable lane name (Chrome process_name metadata). */
const char *laneName(Lane lane);

/**
 * Bounded in-memory recorder. One global instance is shared by all
 * instrumentation points; when the buffer fills, the oldest records
 * are overwritten and counted as dropped.
 */
class TraceRecorder
{
  public:
    /** Record flavor, mapping 1:1 onto a Chrome "ph" phase. */
    enum class Kind : std::uint8_t
    {
        Span,    ///< "ph":"X" complete event
        Instant, ///< "ph":"i" point event
        Counter, ///< "ph":"C" counter-track sample
    };

    struct Record
    {
        const char *name;     ///< static string: event label
        const char *arg0Name; ///< static string or nullptr
        const char *arg1Name; ///< static string or nullptr
        Cycle start;
        Cycle duration;       ///< 0 for instants and counters
        std::uint64_t arg0;   ///< for counters: the sampled value
        std::uint64_t arg1;
        std::uint32_t track;  ///< Chrome tid within the lane
        Lane lane;
        Kind kind;
    };

    /** The process-wide recorder used by the instrumentation points. */
    static TraceRecorder &global();

    /** Begin capturing, with room for @p capacity records. On the
     * global recorder this also turns recording() on. */
    void start(std::size_t capacity = defaultCapacity);

    /** Stop capturing (records are kept until clear()/start()). On
     * the global recorder this also turns recording() off. */
    void stop();

    bool enabled() const { return enabled_; }

    /** Drop all captured records and the dropped count. */
    void clear();

    /** Records currently held (<= capacity). */
    std::size_t size() const;

    /** Records overwritten because the ring was full. */
    std::uint64_t dropped() const;

    /** Records ever offered while enabled (held + dropped). */
    std::uint64_t recorded() const;

    /** Record a span covering cycles [@p start, @p end]. */
    void span(Lane lane, std::uint32_t track, const char *name,
              Cycle start, Cycle end, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0, const char *arg0_name = nullptr,
              const char *arg1_name = nullptr);

    /** Record a point event at cycle @p at. */
    void instant(Lane lane, std::uint32_t track, const char *name,
                 Cycle at, std::uint64_t arg0 = 0,
                 std::uint64_t arg1 = 0,
                 const char *arg0_name = nullptr,
                 const char *arg1_name = nullptr);

    /**
     * Record a counter-track sample: @p value at cycle @p at. Each
     * distinct (track, name) pair renders as its own stacked counter
     * track in Perfetto ("ph":"C"); @p name must be a string literal.
     */
    void counter(std::uint32_t track, const char *name, Cycle at,
                 std::uint64_t value);

    /** Records in ring order, oldest first (test / analysis hook). */
    std::vector<Record> snapshot() const;

    /**
     * Write everything as a Chrome trace-event JSON document
     * (chrome://tracing, Perfetto "Open trace file"). Cycles are
     * exported as microseconds, so one display "us" is one cycle.
     */
    void exportChromeJson(std::ostream &os) const;

    /** exportChromeJson() to a file; @return false if unwritable. */
    bool exportChromeJson(const std::string &path) const;

    static constexpr std::size_t defaultCapacity = 1u << 20;

  private:
    void push(const Record &rec);

    mutable std::mutex mutex_;
    std::vector<Record> ring_;
    std::size_t capacity_ = 0;
    std::size_t next_ = 0; ///< slot the next record lands in
    bool wrapped_ = false;
    bool enabled_ = false;
    std::uint64_t total_ = 0;
};

namespace detail
{
/** Mirrors TraceRecorder::global().enabled(); one cached bool. */
extern bool recordingActive;
} // namespace detail

/** @return true while the global recorder is capturing. */
inline bool
recording()
{
    return detail::recordingActive;
}

/** Shorthand for TraceRecorder::global(). */
inline TraceRecorder &
recorder()
{
    return TraceRecorder::global();
}

} // namespace nocstar::sim

#endif // NOCSTAR_SIM_TRACE_RECORDER_HH
