/**
 * @file
 * A small simulated operating system: files, sockets and standard
 * output, with an explicit I/O cost model.
 *
 * Program-visible I/O goes through runtime built-ins which call into
 * this class; the host (tests, benchmarks) provisions files and queues
 * network connections before a run and collects responses afterwards.
 *
 * Every input path reports the bytes it delivered through an input
 * hook together with its channel name ("file", "network", "stdin").
 * The SHIFT runtime installs a hook that taints those bytes according
 * to the [sources] section of the policy configuration — the paper's
 * taint sources (section 3.3.1).
 *
 * The I/O cost model (cycles charged per call and per byte) is what
 * reproduces the Apache result: server time is dominated by I/O, so
 * instrumented user-mode compute barely moves the bottom line
 * (figure 6), with the smallest files showing the largest relative
 * overhead.
 */

#ifndef SHIFT_SIM_OS_HH
#define SHIFT_SIM_OS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace shift
{

class Machine;

/** Called whenever OS input lands in program memory. */
using InputHook = std::function<void(Machine &, uint64_t addr,
                                     uint64_t len,
                                     const std::string &channel)>;

/** The simulated OS. */
class Os
{
  public:
    /** Cycle costs per operation. */
    struct Costs
    {
        uint64_t open = 5000;
        uint64_t close = 400;
        uint64_t ioBase = 1500;     ///< per read/write/recv/send call
        uint64_t ioPerByteNum = 1;  ///< per-byte cost = len * num / den
        uint64_t ioPerByteDen = 2;
        uint64_t accept = 2500;
    };

    Os() = default;

    // ----- host-side provisioning ---------------------------------------

    /** Create or replace a simulated file. */
    void addFile(const std::string &path, std::vector<uint8_t> bytes);

    /** Convenience: file from a string. */
    void addFile(const std::string &path, const std::string &text);

    /** True when the file exists. */
    bool hasFile(const std::string &path) const;

    /** Read back a file (e.g. one created by the program). */
    const std::vector<uint8_t> &fileBytes(const std::string &path) const;

    /** Queue an inbound network connection carrying `request`. */
    void queueConnection(std::string request);

    /** Responses written by the program, one per accepted connection. */
    const std::vector<std::string> &responses() const { return responses_; }

    /** Move the responses out, leaving none. */
    std::vector<std::string>
    takeResponses()
    {
        return std::exchange(responses_, {});
    }

    /** Everything written to fd 1. */
    const std::string &stdoutText() const { return stdout_; }

    /** Install the taint-source hook. */
    void setInputHook(InputHook hook) { inputHook_ = std::move(hook); }

    Costs &costs() { return costs_; }

    // ----- program-side operations (called from built-ins) --------------

    /** Flags for openFd. */
    static constexpr int64_t kReadOnly = 0;
    static constexpr int64_t kWriteCreate = 1;

    /** Open a file; returns an fd or -1. */
    int64_t openFd(Machine &m, const std::string &path, int64_t flags);

    /**
     * The most bytes one write or send moves, as Linux caps one write
     * at MAX_RW_COUNT: a longer request gets a short count, so no
     * host buffer is sized from a guest length. __taint and __untaint
     * cover at most this many bytes too. httpd sends at most 8 KiB per
     * call.
     */
    static constexpr uint64_t kMaxTransfer = uint64_t(1) << 20;

    /** Read from an fd into simulated memory; returns bytes or -1. */
    int64_t readFd(Machine &m, int64_t fd, uint64_t buf, uint64_t len);

    /** Write at most kMaxTransfer bytes from simulated memory to an
     * fd; returns bytes or -1. */
    int64_t writeFd(Machine &m, int64_t fd, uint64_t buf, uint64_t len);

    /** Close an fd; returns 0 or -1. */
    int64_t closeFd(Machine &m, int64_t fd);

    /** Accept a queued connection; returns an fd or -1 when none. */
    int64_t acceptFd(Machine &m);

    /** Size of a file, or -1. */
    int64_t fileSize(const std::string &path) const;

  private:
    enum class FdKind { File, Socket, Stdout };

    struct FdEntry
    {
        FdKind kind = FdKind::File;
        std::string path;    ///< for files
        size_t connIndex = 0;///< for sockets
        uint64_t offset = 0;
        bool writable = false;
        bool open = false;
    };

    struct Connection
    {
        std::string request;
        uint64_t consumed = 0;
        size_t responseIndex = 0;
    };

    void chargeIo(Machine &m, uint64_t base, uint64_t bytes);
    FdEntry *lookup(int64_t fd);
    static bool mem_write_failed(Machine &m, uint64_t buf,
                                 const uint8_t *src, uint64_t n);

    Costs costs_;
    std::map<std::string, std::vector<uint8_t>> files_;
    std::deque<Connection> pending_;
    std::vector<Connection> active_;
    std::vector<std::string> responses_;
    std::string stdout_;
    std::vector<FdEntry> fds_;
    InputHook inputHook_;
};

} // namespace shift

#endif // SHIFT_SIM_OS_HH
