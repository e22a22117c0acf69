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
    detail::wireMachine(*machine_, tmpl.options_, os_, cloneId, wiring_);
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
