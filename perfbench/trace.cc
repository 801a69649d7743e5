#include "trace.hh"

#include <iomanip>

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer() : _epoch(Clock::now()) {}

void
Tracer::beginRun()
{
    ++_run;
    _totals.clear();
}

double
Tracer::usSinceEpoch(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - _epoch).count();
}

std::map<std::string, double>
Tracer::selfSeconds(int run) const
{
    std::map<std::string, double> self;
    for (const Span &s : _spans) {
        if (s.run == run)
            self[s.name] += (s.endUs - s.startUs) * 1e-6;
    }
    for (const Span &s : _spans) {
        if (s.run == run && s.parent >= 0) {
            self[_spans[static_cast<std::size_t>(s.parent)].name] -=
                (s.endUs - s.startUs) * 1e-6;
        }
    }
    return self;
}

void
Tracer::writeChrome(std::ostream &os) const
{
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    os << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        os << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
           << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
              "\"tid\": 1, \"ts\": "
           << s.startUs << ", \"dur\": " << (s.endUs - s.startUs)
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"run\": " << s.run << "}}";
    }
    os << "\n]}\n";
}

Tracer::Scope::Scope(Tracer &tracer, std::string name)
    : _tracer(tracer), _name(std::move(name)), _start(Clock::now())
{
    if (!_tracer._recording)
        return;
    _index = static_cast<int>(_tracer._spans.size());
    const int parent = _tracer._open.empty() ? -1 : _tracer._open.back();
    _tracer._spans.push_back(Span{_name, _tracer.usSinceEpoch(_start), 0.0,
                                  parent, _tracer._run});
    _tracer._open.push_back(_index);
}

Tracer::Scope::~Scope()
{
    const Clock::time_point end = Clock::now();
    _tracer._totals[_name] +=
        std::chrono::duration<double>(end - _start).count();
    if (_index < 0)
        return;
    _tracer._spans[static_cast<std::size_t>(_index)].endUs =
        _tracer.usSinceEpoch(end);
    _tracer._open.pop_back();
}

} // namespace perfbench
