/**
 * @file
 * In-memory span tracer for the benchmark binary.
 *
 * Every call the binary makes into a layer of the simulator is wrapped
 * in a Tracer::Scope. A scope always adds its duration to the layer's
 * running total (the untraced numbers need those); when recording is
 * on it also keeps a span (name, start, end, parent, run id) that is
 * written out as Chrome trace-event JSON at exit. Spans nest strictly
 * (one thread, stack discipline), so a span's self time is its
 * duration minus the durations of its direct children.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

struct Span
{
    std::string name;
    double startUs = 0.0; ///< Microseconds since the tracer's epoch.
    double endUs = 0.0;
    int parent = -1;      ///< Index of the enclosing span (-1 = root).
    int run = 0;          ///< Workload pass the span belongs to.
};

class Tracer
{
  public:
    Tracer();

    /** Start recording spans (layer totals are kept either way). */
    void setRecording(bool on) { _recording = on; }

    /** Start a new workload pass: fresh run id, zeroed totals. */
    void beginRun();
    int currentRun() const { return _run; }

    /** Inclusive seconds per span name in the current pass. */
    const std::map<std::string, double> &totals() const
    {
        return _totals;
    }

    const std::vector<Span> &spans() const { return _spans; }

    /**
     * Self seconds per span name over the recorded spans of run
     * @p run: duration minus the part covered by direct children.
     */
    std::map<std::string, double> selfSeconds(int run) const;

    /** Chrome trace-event JSON ("X" complete events). */
    void writeChrome(std::ostream &os) const;

    /** RAII span around one call into a layer. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string name);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Seconds since the scope opened. */
        double seconds() const { return secondsSince(_start); }

      private:
        Tracer &_tracer;
        std::string _name;
        Clock::time_point _start;
        int _index = -1;
    };

  private:
    bool _recording = false;
    Clock::time_point _epoch;
    int _run = 0;
    std::vector<Span> _spans;
    std::vector<int> _open;
    std::map<std::string, double> _totals;

    double usSinceEpoch(Clock::time_point t) const;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
