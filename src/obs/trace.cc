#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "support/logging.hh"

namespace shift::obs
{

// ----- taxonomy names ---------------------------------------------------

const char *
evName(Ev kind)
{
    switch (kind) {
      case Ev::PhaseBegin: return "phase.begin";
      case Ev::PhaseEnd: return "phase.end";
      case Ev::FastEnter: return "fast.enter";
      case Ev::FastDeopt: return "fast.deopt";
      case Ev::FastColdBail: return "fast.coldbail";
      case Ev::CowCopy: return "cow.copy";
      case Ev::JobFork: return "job.fork";
      case Ev::JobRunBegin: return "job.run.begin";
      case Ev::JobRunEnd: return "job.run.end";
      case Ev::JobMerge: return "job.merge";
      case Ev::PolicyCheck: return "policy.check";
      case Ev::PolicyAlert: return "policy.alert";
      case Ev::PolicyKill: return "policy.kill";
      case Ev::TaintSource: return "taint.source";
      case Ev::TaintStore: return "taint.store";
      case Ev::JitCompile: return "jit.compile";
      case Ev::JitEvict: return "jit.evict";
      case Ev::kCount: break;
    }
    return "unknown";
}

bool
evTaintRelevant(Ev kind)
{
    switch (kind) {
      case Ev::TaintSource:
      case Ev::TaintStore:
      case Ev::PolicyCheck:
      case Ev::PolicyAlert:
      case Ev::PolicyKill:
        return true;
      default:
        return false;
    }
}

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Compile: return "compile";
      case Phase::Speculate: return "speculate";
      case Phase::Instrument: return "instrument";
      case Phase::Optimize: return "optimize";
      case Phase::Decode: return "decode";
      case Phase::Freeze: return "freeze";
      case Phase::Clone: return "clone";
      case Phase::Run: return "run";
      case Phase::kCount: break;
    }
    return "unknown";
}

// The spellings live beside the stat schema, which builds the
// fastpath.deoptcause.<cause> counter names from them.
static_assert(stat::kDeoptCauses == static_cast<size_t>(DeoptCause::kCount));

const char *
deoptCauseName(DeoptCause cause)
{
    size_t i = static_cast<size_t>(cause);
    return i < stat::kDeoptCauses ? stat::kDeoptCauseNames[i] : "unknown";
}

uint16_t
packPolicyId(const std::string &id)
{
    if (id.empty())
        return 0;
    uint16_t hi = static_cast<unsigned char>(id[0]);
    uint16_t lo = id.size() > 1 ? static_cast<unsigned char>(id[1]) : 0;
    return static_cast<uint16_t>(hi << 8 | lo);
}

std::string
unpackPolicyId(uint16_t aux)
{
    if (aux == 0)
        return "?";
    std::string out;
    out.push_back(static_cast<char>(aux >> 8));
    if (aux & 0xff)
        out.push_back(static_cast<char>(aux & 0xff));
    return out;
}

uint16_t
packChannel(const std::string &channel)
{
    if (channel == "file")
        return 1;
    if (channel == "network")
        return 2;
    if (channel == "stdin")
        return 3;
    return 0;
}

const char *
channelName(uint16_t aux)
{
    switch (aux) {
      case 1: return "file";
      case 2: return "network";
      case 3: return "stdin";
      default: return "other";
    }
}

// ----- TraceBuffer ------------------------------------------------------

namespace
{

uint64_t
roundUpPow2(uint64_t v)
{
    uint64_t p = 64;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

TraceBuffer::TraceBuffer(uint32_t capacity, int cloneId)
    : ring_(roundUpPow2(capacity)), mask_(ring_.size() - 1),
      cloneId_(cloneId), t0_(std::chrono::steady_clock::now())
{
}

void
TraceBuffer::emitCold(Ev kind, uint16_t aux, int32_t func, uint64_t pc,
                      uint64_t a, uint64_t b)
{
    emit(kind, aux, func, pc, a, b);
}

uint64_t
TraceBuffer::nowNanos() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
}

void
TraceBuffer::forEach(const std::function<void(const TraceEvent &)> &fn) const
{
    uint64_t cap = mask_ + 1;
    uint64_t first = head_ > cap ? head_ - cap : 0;
    for (uint64_t i = first; i < head_; ++i)
        fn(ring_[i & mask_]);
}

std::vector<TraceEvent>
TraceBuffer::taintChain(size_t maxEvents) const
{
    std::vector<TraceEvent> chain;
    forEach([&](const TraceEvent &e) {
        if (evTaintRelevant(static_cast<Ev>(e.kind)))
            chain.push_back(e);
    });
    if (chain.size() > maxEvents) {
        // Keep the last-N window, but never evict the most recent
        // TaintSource: a chain that names the propagating stores and
        // the failing check without the syscall that let the bytes in
        // answers the wrong question.
        std::vector<TraceEvent> kept(
            chain.end() - static_cast<ptrdiff_t>(maxEvents),
            chain.end());
        if (kept.front().kind != static_cast<uint16_t>(Ev::TaintSource)) {
            for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
                if (it->kind == static_cast<uint16_t>(Ev::TaintSource)) {
                    if (it->ts < kept.front().ts)
                        kept.insert(kept.begin(), *it);
                    break;
                }
            }
        }
        chain = std::move(kept);
    }
    return chain;
}

// ----- Recorder ---------------------------------------------------------

std::atomic<Recorder *> Recorder::activePtr_{nullptr};

namespace
{

/**
 * Epoch guard for the per-thread buffer cache: bumping it on every
 * enable()/disable() invalidates cached TraceBuffer pointers even if
 * a new recorder lands at the same address.
 */
std::atomic<uint64_t> recorderEpoch{0};

Recorder *&
ownedRecorder()
{
    static Recorder *owned = nullptr;
    return owned;
}

std::mutex &
lifecycleMutex()
{
    static std::mutex m;
    return m;
}

} // namespace

Recorder::Recorder(const RecorderOptions &options)
    : options_(options), t0_(std::chrono::steady_clock::now())
{
}

Recorder *
Recorder::enable(const RecorderOptions &options)
{
    std::lock_guard<std::mutex> lock(lifecycleMutex());
    activePtr_.store(nullptr, std::memory_order_release);
    delete ownedRecorder();
    ownedRecorder() = new Recorder(options);
    recorderEpoch.fetch_add(1, std::memory_order_acq_rel);
    activePtr_.store(ownedRecorder(), std::memory_order_release);
    return ownedRecorder();
}

void
Recorder::disable()
{
    std::lock_guard<std::mutex> lock(lifecycleMutex());
    activePtr_.store(nullptr, std::memory_order_release);
    recorderEpoch.fetch_add(1, std::memory_order_acq_rel);
    delete ownedRecorder();
    ownedRecorder() = nullptr;
}

TraceBuffer *
Recorder::acquireBuffer(int cloneId)
{
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(
        std::make_unique<TraceBuffer>(options_.ringEvents, cloneId));
    buffers_.back()->t0_ = t0_;
    return buffers_.back().get();
}

TraceBuffer *
Recorder::threadBuffer()
{
    thread_local uint64_t cachedEpoch = ~uint64_t(0);
    thread_local TraceBuffer *cached = nullptr;
    uint64_t epoch = recorderEpoch.load(std::memory_order_acquire);
    if (cachedEpoch != epoch || cached == nullptr) {
        cached = acquireBuffer(logCloneTag());
        cachedEpoch = epoch;
    }
    return cached;
}

void
Recorder::setFunctionNames(std::vector<std::string> names)
{
    std::lock_guard<std::mutex> lock(mutex_);
    functionNames_ = std::move(names);
}

std::string
Recorder::functionName(int32_t func) const
{
    if (func < 0)
        return "";
    std::lock_guard<std::mutex> lock(mutex_);
    if (static_cast<size_t>(func) < functionNames_.size())
        return functionNames_[static_cast<size_t>(func)];
    return "f" + std::to_string(func);
}

void
Recorder::statInto(StatSet &stats) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats.setGauge(stat::ObsBuffers, buffers_.size());
    uint64_t events = 0;
    uint64_t dropped = 0;
    for (const auto &b : buffers_) {
        events += b->emitted();
        dropped += b->dropped();
    }
    stats.add(stat::ObsEvents, events);
    stats.add(stat::ObsDropped, dropped);
}

// ----- Chrome trace_event JSON drain ------------------------------------

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

struct DrainedEvent
{
    TraceEvent e;
    int tid;
    size_t seq;
};

using FuncNameFn = std::function<std::string(int32_t)>;

/** One-line human summary of an event (provenance + reports). */
std::string
summarize(const TraceEvent &e, const FuncNameFn &funcName)
{
    Ev kind = static_cast<Ev>(e.kind);
    std::ostringstream ss;
    ss << evName(kind);
    std::string fn = funcName(e.func);
    if (!fn.empty())
        ss << " " << fn << "@" << e.pc;
    switch (kind) {
      case Ev::FastDeopt:
        ss << " cause=" << deoptCauseName(static_cast<DeoptCause>(e.aux));
        break;
      case Ev::CowCopy:
        ss << " addr=0x" << std::hex << e.a << std::dec;
        break;
      case Ev::JobFork:
      case Ev::JobRunBegin:
      case Ev::JobMerge:
        ss << " job=" << e.a;
        break;
      case Ev::JobRunEnd:
        ss << " job=" << e.a << " cycles=" << e.b;
        break;
      case Ev::PolicyCheck:
        ss << " policy=" << unpackPolicyId(e.aux) << " addr=0x" << std::hex
           << e.a << std::dec;
        break;
      case Ev::PolicyAlert:
      case Ev::PolicyKill:
        ss << " policy=" << unpackPolicyId(e.aux);
        break;
      case Ev::TaintSource:
        ss << " channel=" << channelName(e.aux) << " addr=0x" << std::hex
           << e.a << std::dec << " len=" << e.b;
        break;
      case Ev::TaintStore:
        ss << " addr=0x" << std::hex << e.a << std::dec;
        break;
      case Ev::JitCompile:
        ss << " bytes=" << e.a << " compileNs=" << e.b;
        break;
      case Ev::JitEvict:
        ss << " flushedBytes=" << e.a << " liveAfter=" << e.b;
        break;
      default:
        break;
    }
    return ss.str();
}

} // namespace

/** How many chain events a policy-kill verdict carries. */
static constexpr size_t kProvenanceDepth = 16;

void
Recorder::writeChromeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);

    // Flatten all rings, remembering which buffer (= trace thread)
    // each event came from.
    std::vector<DrainedEvent> all;
    // Per-buffer retained events in order, for provenance scans.
    std::vector<std::vector<TraceEvent>> perBuffer(buffers_.size());
    for (size_t bi = 0; bi < buffers_.size(); ++bi) {
        buffers_[bi]->forEach([&](const TraceEvent &e) {
            perBuffer[bi].push_back(e);
        });
        for (const TraceEvent &e : perBuffer[bi])
            all.push_back({e, static_cast<int>(bi) + 1, all.size()});
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const DrainedEvent &x, const DrainedEvent &y) {
                         if (x.e.ts != y.e.ts)
                             return x.e.ts < y.e.ts;
                         return x.seq < y.seq;
                     });

    auto funcName = [&](int32_t func) -> std::string {
        if (func < 0)
            return "";
        if (static_cast<size_t>(func) < functionNames_.size())
            return functionNames_[static_cast<size_t>(func)];
        return "f" + std::to_string(func);
    };

    os << "{\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };

    // Thread-name metadata so Perfetto labels each ring.
    sep();
    os << R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"shift"}})";
    for (size_t bi = 0; bi < buffers_.size(); ++bi) {
        int clone = buffers_[bi]->cloneId();
        std::string label = clone >= 0 ? "clone " + std::to_string(clone)
                                       : "host-" + std::to_string(bi);
        sep();
        os << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << bi + 1
           << R"(,"args":{"name":")" << jsonEscape(label) << R"("}})";
    }

    for (const DrainedEvent &de : all) {
        const TraceEvent &e = de.e;
        Ev kind = static_cast<Ev>(e.kind);
        double ts = double(e.ts) / 1000.0; // Chrome wants microseconds
        sep();
        if (kind == Ev::PhaseBegin || kind == Ev::PhaseEnd) {
            os << "{\"name\":\""
               << phaseName(static_cast<Phase>(e.aux)) << "\",\"cat\":"
               << "\"phase\",\"ph\":\""
               << (kind == Ev::PhaseBegin ? 'B' : 'E')
               << "\",\"ts\":" << ts << ",\"pid\":1,\"tid\":" << de.tid
               << "}";
            continue;
        }
        os << "{\"name\":\"" << evName(kind) << "\",\"cat\":\"shift\","
           << "\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts
           << ",\"pid\":1,\"tid\":" << de.tid << ",\"args\":{";
        os << "\"detail\":\"" << jsonEscape(summarize(e, funcName))
           << "\"";
        std::string fn = funcName(e.func);
        if (!fn.empty())
            os << ",\"func\":\"" << jsonEscape(fn) << "\",\"pc\":" << e.pc;
        if (kind == Ev::PolicyKill) {
            // Reconstruct the provenance chain from this event's own
            // ring: the taint-relevant events that led to the kill.
            os << ",\"provenance\":[";
            const auto &ring = perBuffer[static_cast<size_t>(de.tid) - 1];
            std::vector<std::string> chain;
            for (const TraceEvent &p : ring) {
                if (p.ts >= e.ts &&
                    static_cast<Ev>(p.kind) == Ev::PolicyKill)
                    break;
                if (evTaintRelevant(static_cast<Ev>(p.kind)))
                    chain.push_back(summarize(p, funcName));
            }
            if (chain.size() > kProvenanceDepth)
                chain.erase(chain.begin(),
                            chain.end() -
                                static_cast<ptrdiff_t>(kProvenanceDepth));
            for (size_t i = 0; i < chain.size(); ++i)
                os << (i ? "," : "") << "\"" << jsonEscape(chain[i])
                   << "\"";
            os << "]";
        }
        os << "}}";
    }

    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool
Recorder::writeChromeJsonFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        SHIFT_WARN("cannot write trace file '%s'", path.c_str());
        return false;
    }
    writeChromeJson(out);
    return out.good();
}

std::string
Recorder::renderChain(const std::vector<TraceEvent> &chain) const
{
    auto funcName = [this](int32_t func) { return functionName(func); };
    std::ostringstream ss;
    for (size_t i = 0; i < chain.size(); ++i)
        ss << "  #" << i << " +" << double(chain[i].ts) / 1000.0 << "us "
           << summarize(chain[i], funcName) << "\n";
    return ss.str();
}

} // namespace shift::obs
