#include "gpu/gpu.hh"

#include "sim/logging.hh"

#include <algorithm>
#include <cassert>

namespace proact {

Gpu::Gpu(EventQueue &eq, const GpuSpec &spec, int id)
    : _eq(eq), _spec(spec), _id(id)
{
    _atomicUnit = std::make_unique<Channel>(
        eq, spec.name + ".gpu" + std::to_string(id) + ".atomics",
        spec.atomicsPerSec, spec.atomicLatency);
    _hbm = std::make_unique<Channel>(
        eq, spec.name + ".gpu" + std::to_string(id) + ".hbm",
        spec.memBandwidth, 500 * ticksPerNanosecond);
}

void
Gpu::reserveCompute(double share)
{
    _computeReserved = std::min(0.95, _computeReserved + share);
}

void
Gpu::releaseCompute(double share)
{
    _computeReserved = std::max(0.0, _computeReserved - share);
}

void
Gpu::reserveMemBw(double share)
{
    _memBwReserved = std::min(0.95, _memBwReserved + share);
    _hbm->setRate(_spec.memBandwidth * memBwFactor());
}

void
Gpu::releaseMemBw(double share)
{
    _memBwReserved = std::max(0.0, _memBwReserved - share);
    _hbm->setRate(_spec.memBandwidth * memBwFactor());
}

Tick
Gpu::ctaComputeTicks(const CtaWork &work) const
{
    const double compute_rate = _spec.smFlops() * computeFactor();
    const double compute_sec =
        compute_rate > 0.0 ? work.flops / compute_rate : 0.0;
    const Tick duration = ticksFromSeconds(compute_sec);
    // Even an empty CTA costs scheduling/drain time.
    return std::max<Tick>(duration, 100 * ticksPerNanosecond);
}

void
Gpu::launch(KernelLaunch launch)
{
    if (launch.desc.numCtas <= 0)
        fatalError("Gpu::launch: kernel '", launch.desc.name,
                   "' has no CTAs");
    if (!launch.desc.body)
        fatalError("Gpu::launch: kernel '", launch.desc.name,
                   "' has no body");

    _streamQueue.push_back(std::move(launch));
    if (!_running)
        startNextKernel();
}

void
Gpu::startNextKernel()
{
    assert(!_running);
    if (_streamQueue.empty())
        return;

    _running = std::make_unique<ActiveKernel>();
    _running->launch = std::move(_streamQueue.front());
    _streamQueue.pop_front();

    _eq.scheduleIn(_spec.kernelLaunchLatency, [this] { beginKernel(); });
}

void
Gpu::beginKernel()
{
    _kernelStart = _eq.curTick();
    stats.inc("kernels");
    fillWave();
}

void
Gpu::fillWave()
{
    assert(_running);
    const int max_resident = _spec.maxResidentCtas();
    while (_running->residentCtas < max_resident &&
           _running->nextCta < _running->launch.desc.numCtas) {
        const int cta = _running->nextCta++;
        ++_running->residentCtas;
        startCta(cta);
    }
}

void
Gpu::startCta(int cta)
{
    CtaContext ctx;
    ctx.gpuId = _id;
    ctx.ctaId = cta;
    ctx.numCtas = _running->launch.desc.numCtas;
    ctx.functional = _functional;

    const CtaWork work = _running->launch.desc.body(ctx);

    const Tick compute_done = _eq.curTick() + ctaComputeTicks(work);

    _ctas.inc();
    _flops.inc(work.flops);
    _localBytes.inc(static_cast<double>(work.localBytes));

    // The CTA retires once both its compute stream and its memory
    // traffic (drained by the shared HBM channel) have finished;
    // instrumentation extras (fences wait on the stores) come after.
    Tick done = compute_done;
    if (work.localBytes > 0) {
        const auto occupancy = static_cast<std::uint64_t>(
            static_cast<double>(work.localBytes)
            * (1.0 + _running->launch.hbmTrafficOverhead));
        const Tick mem_done =
            _hbm->submit(occupancy, work.localBytes);
        done = std::max(done, mem_done);
    }
    done += _running->launch.extraCtaTicks;
    _eq.schedule(done, [this, cta] { ctaComputeDone(cta); });
}

void
Gpu::ctaComputeDone(int cta)
{
    assert(_running);
    if (_running->launch.instrumented) {
        // First thread of the CTA decrements the readiness counter;
        // the CTA retires once the atomic round-trip completes, so
        // atomic-unit saturation slows tracking-heavy kernels.
        _trackingAtomics.inc();
        _atomicUnit->submit(1, 1, [this, cta] { ctaFinished(cta); });
    } else {
        ctaFinished(cta);
    }
}

void
Gpu::ctaFinished(int cta)
{
    assert(_running);
    --_running->residentCtas;
    ++_running->completedCtas;

    if (_running->launch.onCtaComplete)
        _running->launch.onCtaComplete(cta);

    if (_running->completedCtas == _running->launch.desc.numCtas) {
        stats.inc("kernel_busy_ticks",
                  static_cast<double>(_eq.curTick() - _kernelStart));
        if (_trace) {
            _trace->record(_kernelStart, _eq.curTick(), "kernel",
                           "gpu" + std::to_string(_id) + "."
                               + _running->launch.desc.name);
        }
        // Finish the kernel before starting the next so the stream
        // stays in order even if onComplete launches more work.
        auto on_complete = std::move(_running->launch.onComplete);
        _running.reset();
        if (on_complete)
            on_complete();
        startNextKernel();
    } else {
        fillWave();
    }
}

} // namespace proact
