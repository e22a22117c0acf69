/**
 * @file
 * SessionTemplate: the compile-once / clone-many half of the runtime.
 *
 * A Session fuses compile, instrument, machine construction and run
 * into one single-use object; a fleet serving N requests through it
 * pays the compiler and the decoder N times. SessionTemplate splits
 * that pipeline: it compiles and instruments the program once, builds
 * a prototype machine, and freezes a MachineSnapshot of the pre-run
 * state (COW-shared pages, registers and NaT bits, the shared decode
 * result). instantiate() then forks an isolated, runnable
 * SessionClone in time linear in the pages the prototype touched —
 * clones share all unmodified pages, copy only the shared ones they
 * dirty and first-touch untouched reservations privately, so they are
 * safe to run concurrently on separate threads (see docs/FLEET.md).
 *
 *   SessionTemplate tmpl({appSource}, options);
 *   tmpl.os().addFile("/www/index.html", "hello");   // provision, then
 *   auto a = tmpl.instantiate();                     // freeze + fork
 *   auto b = tmpl.instantiate();
 *   RunResult ra = a->run(), rb = b->run();          // independent
 *
 * Determinism contract: a clone's run is bit-identical (cycles,
 * verdicts, response bytes) to a fresh single-use Session built from
 * the same sources and options, and clones never observe each other.
 */

#ifndef SHIFT_RUNTIME_SESSION_TEMPLATE_HH
#define SHIFT_RUNTIME_SESSION_TEMPLATE_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runtime/session.hh"

namespace shift
{

class SessionTemplate;

/**
 * One runnable instance forked from a SessionTemplate: its own OS
 * (copied from the template's provisioned prototype), its own machine
 * restored from the frozen snapshot, and its own taint map and policy
 * engine. Single-use, like Session. Clones hold a reference to their
 * template, which must outlive them.
 */
class SessionClone
{
  public:
    // The machine holds pointers into this object: pinned, like Session.
    SessionClone(const SessionClone &) = delete;
    SessionClone &operator=(const SessionClone &) = delete;

    /**
     * Execute to completion; may only be called once (FatalError on a
     * second call). While running, warn()/inform() output from this
     * thread is tagged "[clone N]".
     */
    RunResult run();

    int cloneId() const { return cloneId_; }
    Machine &machine() { return *machine_; }
    Os &os() { return os_; }
    PolicyEngine &policy() { return *policy_; }

  private:
    friend class SessionTemplate;
    SessionClone(const SessionTemplate &tmpl, int cloneId);

    const SessionTemplate *tmpl_;
    int cloneId_;
    Os os_;
    std::unique_ptr<Machine> machine_;
    /** Per-clone attribution table (null unless options.profile);
     * folds into the clone's RunResult stats, so fleet aggregation is
     * the ordinary associative StatSet merge. */
    std::unique_ptr<obs::Profiler> profiler_;
    /** Per-clone async taint tier (null unless options.async). */
    std::unique_ptr<dift::AsyncTaintTier> asyncTier_;
    std::unique_ptr<TaintMap> taint_;
    std::unique_ptr<PolicyEngine> policy_;
    RuntimeContext runtimeCtx_;
    bool ran_ = false;
};

/** Compile-once factory for SessionClones. */
class SessionTemplate
{
  public:
    SessionTemplate(const std::vector<std::string> &sources,
                    SessionOptions options);

    /** Convenience: single source module. */
    SessionTemplate(const std::string &source, SessionOptions options);

    // Clones point back into this object (program, snapshot pages).
    SessionTemplate(const SessionTemplate &) = delete;
    SessionTemplate &operator=(const SessionTemplate &) = delete;

    /**
     * The prototype OS: provision files / queue connections here
     * BEFORE the first instantiate(); every clone starts from a copy.
     * Provisioning after freeze() is a FatalError — clones forked
     * earlier could otherwise diverge from later ones.
     */
    Os &os();

    /**
     * Capture the snapshot and lock provisioning. Idempotent and
     * thread-safe; called implicitly by the first instantiate().
     */
    void freeze();

    /** Fork a runnable clone (freezes on first use). Thread-safe. */
    std::unique_ptr<SessionClone> instantiate();

    const Program &program() const { return program_; }
    const InstrumentStats &instrStats() const { return instrStats_; }
    const OptStats &optStats() const { return optStats_; }
    const minic::SpeculateStats &speculateStats() const
    {
        return speculateStats_;
    }
    const SessionOptions &options() const { return options_; }
    bool frozen() const { return frozen_.load(std::memory_order_acquire); }

    /**
     * Materialized pages in the frozen snapshot (0 before freeze):
     * the pages layout and provisioning actually touched. Reserved
     * but untouched pages (the stack, zero-initialized globals) are
     * not counted; clones first-touch those privately.
     */
    size_t snapshotPages() const;

  private:
    friend class SessionClone;

    SessionOptions options_;
    Program program_;
    InstrumentStats instrStats_;
    minic::SpeculateStats speculateStats_;
    OptStats optStats_;

    /** Provisioned prototype OS, copied into each clone. */
    Os protoOs_;
    /** Prototype machine; consumed by freeze() to take the snapshot. */
    std::unique_ptr<Machine> proto_;

    std::mutex freezeMutex_;
    std::atomic<bool> frozen_{false};
    std::optional<MachineSnapshot> snapshot_;
    std::atomic<int> nextCloneId_{0};
};

} // namespace shift

#endif // SHIFT_RUNTIME_SESSION_TEMPLATE_HH
