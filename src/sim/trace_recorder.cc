/**
 * @file
 * Trace recorder implementation and Chrome trace-event JSON export.
 */

#include "sim/trace_recorder.hh"

#include <fstream>

#include "sim/json.hh"

namespace nocstar::sim
{

namespace detail
{
bool recordingActive = false;
} // namespace detail

const char *
laneName(Lane lane)
{
    switch (lane) {
      case Lane::Translation: return "translations (per core)";
      case Lane::Slice: return "L2 TLB slices";
      case Lane::Walker: return "page walkers";
      case Lane::Link: return "fabric links";
      case Lane::Message: return "fabric messages (per source)";
      case Lane::Counter: return "counters";
      case Lane::NumLanes: break;
    }
    return "?";
}

TraceRecorder &
TraceRecorder::global()
{
    static TraceRecorder instance;
    return instance;
}

void
TraceRecorder::start(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity ? capacity : 1;
    ring_.clear();
    ring_.reserve(capacity_);
    next_ = 0;
    wrapped_ = false;
    total_ = 0;
    enabled_ = true;
    // The instrumentation points record into the global recorder
    // only, so only it opens their gate.
    if (this == &global())
        detail::recordingActive = true;
}

void
TraceRecorder::stop()
{
    std::lock_guard<std::mutex> lock(mutex_);
    enabled_ = false;
    if (this == &global())
        detail::recordingActive = false;
}

void
TraceRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    next_ = 0;
    wrapped_ = false;
    total_ = 0;
}

std::size_t
TraceRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return wrapped_ ? capacity_ : ring_.size();
}

std::uint64_t
TraceRecorder::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return wrapped_ ? total_ - capacity_ : 0;
}

std::uint64_t
TraceRecorder::recorded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
}

void
TraceRecorder::push(const Record &rec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_)
        return;
    ++total_;
    if (ring_.size() < capacity_) {
        ring_.push_back(rec);
        next_ = ring_.size() % capacity_;
        return;
    }
    // Full: overwrite the oldest slot.
    ring_[next_] = rec;
    next_ = (next_ + 1) % capacity_;
    wrapped_ = true;
}

void
TraceRecorder::span(Lane lane, std::uint32_t track, const char *name,
                    Cycle start, Cycle end, std::uint64_t arg0,
                    std::uint64_t arg1, const char *arg0_name,
                    const char *arg1_name)
{
    push(Record{name, arg0_name, arg1_name, start,
                end > start ? end - start : 0, arg0, arg1, track, lane,
                Kind::Span});
}

void
TraceRecorder::instant(Lane lane, std::uint32_t track, const char *name,
                       Cycle at, std::uint64_t arg0, std::uint64_t arg1,
                       const char *arg0_name, const char *arg1_name)
{
    push(Record{name, arg0_name, arg1_name, at, 0, arg0, arg1, track,
                lane, Kind::Instant});
}

void
TraceRecorder::counter(std::uint32_t track, const char *name, Cycle at,
                       std::uint64_t value)
{
    push(Record{name, nullptr, nullptr, at, 0, value, 0, track,
                Lane::Counter, Kind::Counter});
}

std::vector<TraceRecorder::Record>
TraceRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!wrapped_)
        return ring_;
    std::vector<Record> out;
    out.reserve(capacity_);
    for (std::size_t i = 0; i < capacity_; ++i)
        out.push_back(ring_[(next_ + i) % capacity_]);
    return out;
}

namespace
{

void
emitRecord(std::ostream &os, const TraceRecorder::Record &rec)
{
    using Kind = TraceRecorder::Kind;
    if (rec.kind == Kind::Counter) {
        // Counter samples carry exactly one value; Perfetto stacks
        // samples with the same (pid, tid, name) into one track.
        os << "{\"name\":\"" << json::escape(rec.name)
           << "\",\"ph\":\"C\",\"ts\":" << rec.start
           << ",\"pid\":" << static_cast<unsigned>(rec.lane)
           << ",\"tid\":" << rec.track << ",\"args\":{\"value\":"
           << rec.arg0 << "}}";
        return;
    }
    os << "{\"name\":\"" << json::escape(rec.name) << "\",\"ph\":\""
       << (rec.kind == Kind::Instant ? 'i' : 'X')
       << "\",\"ts\":" << rec.start;
    if (rec.kind != Kind::Instant)
        os << ",\"dur\":" << rec.duration;
    else
        os << ",\"s\":\"t\"";
    os << ",\"pid\":" << static_cast<unsigned>(rec.lane)
       << ",\"tid\":" << rec.track;
    if (rec.arg0Name || rec.arg1Name) {
        os << ",\"args\":{";
        bool first = true;
        if (rec.arg0Name) {
            os << "\"" << json::escape(rec.arg0Name)
               << "\":" << rec.arg0;
            first = false;
        }
        if (rec.arg1Name) {
            if (!first)
                os << ",";
            os << "\"" << json::escape(rec.arg1Name)
               << "\":" << rec.arg1;
        }
        os << "}";
    }
    os << "}";
}

} // namespace

void
TraceRecorder::exportChromeJson(std::ostream &os) const
{
    std::vector<Record> records = snapshot();
    std::uint64_t lost = dropped();

    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
          "\"clock\":\"cycles (shown as us)\",\"dropped\":"
       << lost << "},\"traceEvents\":[";
    bool first = true;
    // Name the lanes so Perfetto shows readable process rows.
    for (unsigned lane = 0; lane < numLanes; ++lane) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << lane
           << ",\"tid\":0,\"args\":{\"name\":\""
           << json::escape(laneName(static_cast<Lane>(lane)))
           << "\"}}";
    }
    for (const Record &rec : records) {
        os << ",\n";
        emitRecord(os, rec);
    }
    os << "]}\n";
}

bool
TraceRecorder::exportChromeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    exportChromeJson(out);
    return static_cast<bool>(out);
}

} // namespace nocstar::sim
