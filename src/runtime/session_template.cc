#include "session_template.hh"

#include "obs/trace.hh"
#include "support/logging.hh"

namespace shift
{

SessionTemplate::SessionTemplate(const std::vector<std::string> &sources,
                                 SessionOptions options)
    : options_(std::move(options))
{
    std::shared_ptr<const DecodedProgram> decodedLibc;
    program_ = detail::buildProgram(sources, options_, instrStats_,
                                    speculateStats_, optStats_, decodedLibc);
    proto_ = std::make_unique<Machine>(program_, options_.features,
                                       options_.engine,
                                       std::move(decodedLibc));
    // The prototype's settings determine what capture() puts in the
    // snapshot: with the JIT on, the eagerly-created code cache rides
    // along so the whole fleet shares one set of compiled bodies.
    proto_->setFastPathEnabled(options_.fastPath);
    proto_->setJitEnabled(options_.jit, options_.jitThreshold,
                          options_.jitCacheBytes);
}

SessionTemplate::SessionTemplate(const std::string &source,
                                 SessionOptions options)
    : SessionTemplate(std::vector<std::string>{source}, std::move(options))
{
}

Os &
SessionTemplate::os()
{
    if (frozen()) {
        SHIFT_FATAL("SessionTemplate is frozen: provisioning the "
                    "prototype OS after the first instantiate() would "
                    "make clones diverge");
    }
    return protoOs_;
}

void
SessionTemplate::freeze()
{
    std::lock_guard<std::mutex> lock(freezeMutex_);
    if (frozen_.load(std::memory_order_relaxed))
        return;
    obs::ScopedPhase span(obs::Phase::Freeze);
    snapshot_ = proto_->capture();
    // The prototype machine exists only to be snapshotted; dropping it
    // leaves the snapshot holding the only extra reference to every
    // page, so a clone's first write to any page still COWs correctly.
    proto_.reset();
    frozen_.store(true, std::memory_order_release);
}

std::unique_ptr<SessionClone>
SessionTemplate::instantiate()
{
    freeze();
    int id = nextCloneId_.fetch_add(1, std::memory_order_relaxed);
    // No make_unique: the constructor is private to enforce that only
    // templates fork clones.
    return std::unique_ptr<SessionClone>(new SessionClone(*this, id));
}

size_t
SessionTemplate::snapshotPages() const
{
    return snapshot_ ? snapshot_->mem.pageCount() : 0;
}

SessionClone::SessionClone(const SessionTemplate &tmpl, int cloneId)
    : tmpl_(&tmpl), cloneId_(cloneId), os_(tmpl.protoOs_)
{
    SHIFT_ASSERT(tmpl.snapshot_, "template not frozen");
    obs::ScopedPhase span(obs::Phase::Clone);
    machine_ = std::make_unique<Machine>(tmpl.program_, *tmpl.snapshot_,
                                         tmpl.options_.features,
                                         tmpl.options_.engine);
    if (tmpl.options_.async.enabled) {
        // One tier per clone: each clone's shadow is private, and the
        // clones' dift.* stats merge in the fleet report.
        asyncTier_ = std::make_unique<dift::AsyncTaintTier>(
            machine_->memory(), tmpl.options_.policy.granularity);
        machine_->setAsyncTier(asyncTier_.get());
    }
    machine_->setFastPathEnabled(tmpl.options_.fastPath);
    // The snapshot already carries the template's shared code cache
    // when the JIT is on; this validates/adopts it (and is the off
    // switch when it is not).
    machine_->setJitEnabled(tmpl.options_.jit, tmpl.options_.jitThreshold,
                            tmpl.options_.jitCacheBytes);
    if (tmpl.options_.profile) {
        // Private table per clone: run() folds it into the clone's
        // RunResult stats, so the fleet report's prof.* rows are the
        // ordinary associative StatSet merge across clones.
        profiler_ = std::make_unique<obs::Profiler>();
        machine_->setProfiler(profiler_.get());
    }
    if (obs::Recorder *rec = obs::Recorder::active()) {
        std::vector<std::string> names;
        names.reserve(tmpl.program_.functionCount());
        for (size_t f = 0; f < tmpl.program_.functionCount(); ++f)
            names.push_back(tmpl.program_.function(f).name);
        rec->setFunctionNames(std::move(names));
        machine_->setObserver(rec->acquireBuffer(cloneId));
    }
    policy_ = std::make_unique<PolicyEngine>(tmpl.options_.policy);
    bool tracking = tmpl.options_.mode != TrackingMode::None;
    if (tracking) {
        taint_ = std::make_unique<TaintMap>(
            machine_->memory(), tmpl.options_.policy.granularity);
        if (asyncTier_) {
            taint_->setMirror([tier = asyncTier_.get()](
                                  uint64_t tagAddr, unsigned bitIdx,
                                  bool value) {
                tier->mirrorTagWrite(tagAddr, bitIdx, value);
            });
        }
    }
    detail::wireRuntime(*machine_, os_, tracking ? taint_.get() : nullptr,
                        tracking ? policy_.get() : nullptr,
                        tmpl.options_.mode, runtimeCtx_);
}

RunResult
SessionClone::run()
{
    if (ran_) {
        SHIFT_FATAL("SessionClone::run() called twice: clone %d has been "
                    "consumed (instantiate() a new one)",
                    cloneId_);
    }
    ran_ = true;
    setLogCloneTag(cloneId_);
    RunResult result = [&] {
        obs::ScopedPhase span(obs::Phase::Run);
        return machine_->run(tmpl_->options_.maxSteps);
    }();
    setLogCloneTag(-1);
    return result;
}

} // namespace shift
