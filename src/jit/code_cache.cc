/**
 * @file
 * The executable code cache: work counting, promotion, and the
 * lifecycle of compiled buffers (see docs/JIT.md).
 *
 * One policy: a function compiles whole, on the executing thread, at
 * its first lookup after the interpreter has spent (threshold - 1) x
 * its size in dispatches on it; the release store that publishes the
 * body is the only install step, so a concurrent lookup sees either
 * nothing or the finished body. Eviction is flush-when-full against
 * the code-byte budget.
 */

#include "jit/jit.hh"

#include <algorithm>
#include <chrono>

#include "obs/perfmap.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

#if SHIFT_JIT_BACKEND
#include <sys/mman.h>
#endif

namespace shift::jit
{

bool
available()
{
    return SHIFT_JIT_BACKEND != 0;
}

const CompiledFunction CodeCache::kUncompilable;

namespace
{

/** Monotonic nanoseconds for the compile-pipeline latency samples. */
uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch())
                        .count());
}

} // namespace

CompiledFunction::~CompiledFunction()
{
#if SHIFT_JIT_BACKEND
    if (buf && ownsBuf)
        munmap(buf, size);
#endif
}

CodeCache::CodeCache(std::shared_ptr<const DecodedProgram> program,
                     CompileEnv env, uint32_t threshold,
                     size_t maxBytes)
    : program_(std::move(program)),
      env_(env),
      threshold_(threshold ? threshold : kDefaultThreshold),
      maxBytes_(maxBytes ? maxBytes : kDefaultMaxBytes),
      work_(program_->functions.size()),
      fns_(program_->functions.size())
{
    SHIFT_ASSERT(program_, "code cache needs a program");
    cost_.reserve(program_->functions.size());
    for (const DecodedFunction &df : program_->functions)
        cost_.push_back(uint64_t(threshold_ - 1) *
                        (df.code.size() + df.fast.size()));
}

/**
 * Flush-when-full: unpublish everything and restart work, so only
 * what is still hot comes back. Concurrent executors keep running the
 * old buffers safely — owned_ retains them until the cache dies — and
 * their next lookup falls back to interpreting until the function
 * re-publishes. The uncompilable sentinel survives the flush (it
 * holds no bytes and a retry would fail the same way). A single
 * function larger than the whole budget still publishes: the bound
 * can't be met, not honored by thrashing.
 */
void
CodeCache::flushIfNeededLocked(size_t incoming, Credit *credit)
{
    size_t live = liveBytes_;
    if (live == 0 || live + incoming <= maxBytes_)
        return;
    for (auto &slot : fns_) {
        const CompiledFunction *cur =
            slot.load(std::memory_order_acquire);
        if (cur && cur != &kUncompilable)
            slot.store(nullptr, std::memory_order_release);
    }
    for (auto &w : work_)
        w.store(0, std::memory_order_relaxed);
    liveBytes_ = 0;
    credit->evictions += 1;
    obs::note(obs::Ev::JitEvict, 0, -1, 0, live, 0);
}

/**
 * Seal-side observability, under compileMutex_ after a successful
 * publish: latency samples, the JitCompile flight-recorder event, and
 * perf-map / jitdump symbols so host `perf report` attributes samples
 * inside this function by guest `<function>@<pc>`
 * (docs/OBSERVABILITY.md).
 */
void
CodeCache::noteSealedLocked(int func, const CompiledFunction *f,
                            uint64_t compileNs, uint64_t sealNs)
{
    compileNanos_.record(compileNs);
    sealNanos_.record(sealNs);
    obs::note(obs::Ev::JitCompile, 0, func, 0, f->size, compileNs);
    if (!obs::PerfJitSink::active() || f->size == 0)
        return;
    const std::string &fn = program_->functions[size_t(func)].src->name;
    // Both streams share one buffer; per-block extents come from the
    // entry-offset tables (sorted offsets, each block runs to the next
    // entry or the buffer end).
    struct Block
    {
        int32_t off;
        uint32_t pc;
        bool fast;
    };
    std::vector<Block> blocks;
    for (size_t i = 0; i < f->slowEntry.size(); ++i)
        if (f->slowEntry[i] >= 0)
            blocks.push_back({f->slowEntry[i], uint32_t(i), false});
    for (size_t i = 0; i < f->fastEntry.size(); ++i)
        if (f->fastEntry[i] >= 0)
            blocks.push_back({f->fastEntry[i], uint32_t(i), true});
    if (blocks.empty()) {
        obs::PerfJitSink::add(fn + "@0", f->buf, f->size);
        return;
    }
    std::sort(blocks.begin(), blocks.end(),
              [](const Block &a, const Block &b) { return a.off < b.off; });
    // The entry thunk (and any shared prologue) before the first
    // block entry gets its own symbol.
    if (blocks.front().off > 0)
        obs::PerfJitSink::add(fn + "@thunk", f->buf,
                              size_t(blocks.front().off));
    for (size_t i = 0; i < blocks.size(); ++i) {
        size_t end = i + 1 < blocks.size() ? size_t(blocks[i + 1].off)
                                           : f->size;
        if (end <= size_t(blocks[i].off))
            continue;
        std::string sym = fn + "@" + std::to_string(blocks[i].pc);
        if (blocks[i].fast)
            sym += ".fast";
        obs::PerfJitSink::add(
            sym,
            static_cast<const uint8_t *>(f->buf) + blocks[i].off,
            end - size_t(blocks[i].off));
    }
}

void
CodeCache::drainStatsInto(StatSet &stats)
{
    std::lock_guard<std::mutex> lock(compileMutex_);
    if (compileNanos_.count()) {
        stats.mergeHistogram("jit.compile.nanos", compileNanos_);
        compileNanos_ = Histogram();
    }
    if (sealNanos_.count()) {
        stats.mergeHistogram("jit.seal.nanos", sealNanos_);
        sealNanos_ = Histogram();
    }
}

const CompiledFunction *
CodeCache::publishFunctionLocked(
    int func, std::unique_ptr<CompiledFunction> compiled,
    Credit *credit)
{
    if (!compiled) {
        fns_[size_t(func)].store(&kUncompilable,
                                 std::memory_order_release);
        return nullptr;
    }
    flushIfNeededLocked(compiled->size, credit);
    const CompiledFunction *f = compiled.get();
    owned_.push_back(std::move(compiled));
    liveBytes_ += f->size;
    credit->blocks += f->blocks;
    credit->codeBytes += f->size;
    fns_[size_t(func)].store(f, std::memory_order_release);
    return f;
}

const CompiledFunction *
CodeCache::compile(int func, Credit *credit)
{
    std::lock_guard<std::mutex> lock(compileMutex_);
    // A flush while this caller waited for the lock restarts work, so
    // another caller may have claimed again and published first.
    if (const CompiledFunction *raced =
            fns_[size_t(func)].load(std::memory_order_acquire))
        return raced;
    uint64_t t0 = nowNs();
    std::unique_ptr<CompiledFunction> compiled =
        compileFunction(program_->functions[func], env_, &arena_);
    uint64_t t1 = nowNs();
    const CompiledFunction *pub =
        publishFunctionLocked(func, std::move(compiled), credit);
    uint64_t t2 = nowNs();
    credit->compileNanos += t2 - t0;
    if (!pub)
        return &kUncompilable;
    noteSealedLocked(func, pub, t1 - t0, t2 - t1);
    return pub;
}

CodeCache::Entry
CodeCache::entryAt(int func, bool inFast, uint64_t pc, Credit *credit)
{
    const CompiledFunction *f =
        fns_[size_t(func)].load(std::memory_order_acquire);
    if (!f) {
        // Exactly one caller swaps a paid-up counter to kClaimed and
        // compiles; racers keep interpreting until the body is
        // published.
        std::atomic<uint64_t> &work = work_[size_t(func)];
        uint64_t w = work.load(std::memory_order_relaxed);
        if (w < cost_[size_t(func)] || w >= kClaimed ||
            !work.compare_exchange_strong(w, kClaimed,
                                          std::memory_order_relaxed))
            return {};
        f = compile(func, credit);
    }
    if (f == &kUncompilable)
        return {};
    return {f, f->entryFor(inFast, pc)};
}

CodeCache::Entry
CodeCache::peekAt(int func, bool inFast, uint64_t pc) const
{
    const CompiledFunction *jf =
        fns_[size_t(func)].load(std::memory_order_acquire);
    if (!jf || jf == &kUncompilable)
        return {};
    return {jf, jf->entryFor(inFast, pc)};
}

} // namespace shift::jit
