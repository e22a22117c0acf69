/**
 * @file
 * Host-profiler symbolization for JIT code: perf map / jitdump sink.
 *
 * Compiled superblocks are anonymous executable pages to the host's
 * `perf` — every sample inside them collapses into one "[unknown]"
 * blob. This sink publishes each sealed unit's symbols so host
 * profiles attribute by guest function and superblock pc:
 *
 *  - Default format: the classic `/tmp/perf-<pid>.map` text file
 *    ("<hex addr> <hex size> <name>" per line), which `perf report`
 *    picks up automatically for anonymous mappings. Works with a
 *    plain `perf record` — no post-processing.
 *  - When the sink path ends in `.dump`: the binary jitdump format
 *    (one JIT_CODE_LOAD record per symbol, code bytes included),
 *    for `perf inject --jit` pipelines that want per-symbol disasm.
 *    The file's first page is mmap'd PROT_READ|PROT_EXEC so perf's
 *    mmap-event stream records where the dump lives — the handshake
 *    `perf inject` keys on.
 *
 * Symbols are named `<function>@<pc>` for instrumented-stream blocks
 * and `<function>@<pc>.fast` for fast-stream twins (the tier-tag
 * taxonomy of docs/OBSERVABILITY.md).
 *
 * Lifecycle mirrors the flight recorder: a process-global sink,
 * enabled by the tools' --jitdump flag before sessions are built,
 * written under a mutex (sessions on different threads seal their
 * own caches concurrently), torn down at exit or explicitly. When disabled, the publication paths pay one branch on
 * a relaxed atomic.
 */

#ifndef SHIFT_OBS_PERFMAP_HH
#define SHIFT_OBS_PERFMAP_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace shift::obs
{

/** Global JIT symbol sink. All methods are thread-safe. */
class PerfJitSink
{
  public:
    /**
     * Open the sink. Empty path = `/tmp/perf-<pid>.map`; a path
     * ending in `.dump` selects the binary jitdump format. Replaces
     * any active sink. Returns false (with a warning) when the file
     * cannot be created.
     */
    static bool enable(const std::string &path = "");

    /** Close the sink (flushes and unmaps). Idempotent. */
    static void disable();

    /** True when a sink is open. */
    static bool
    active()
    {
        return active_.load(std::memory_order_acquire);
    }

    /** The resolved sink path ("" when inactive). */
    static std::string path();

    /**
     * Publish one symbol covering [code, code+size). No-op when
     * inactive (the caller usually guards on active() to skip name
     * construction).
     */
    static void add(const std::string &symbol, const void *code,
                    size_t size);

  private:
    static std::atomic<bool> active_;
};

} // namespace shift::obs

#endif // SHIFT_OBS_PERFMAP_HH
