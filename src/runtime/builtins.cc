#include "builtins.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "support/logging.hh"

namespace shift
{

namespace
{

/** Read a NUL-terminated string argument from simulated memory. */
std::string
readString(Machine &m, uint64_t addr)
{
    std::string out;
    if (m.memory().readCString(addr, out) != MemFault::None)
        SHIFT_FATAL("built-in: bad string pointer 0x%llx",
                    static_cast<unsigned long long>(addr));
    return out;
}

/** Per-byte taint of a string (empty when tracking is off). */
std::vector<bool>
taintOf(const RuntimeContext &ctx, uint64_t addr, const std::string &s)
{
    if (!ctx.tracking())
        return {};
    return ctx.taint->taintOf(addr, s.size());
}

/**
 * Policy-gated check on pointer arguments crossing the OS boundary:
 * a tainted (NaT) pointer handed to a "system call" raises the
 * SyscallArg NaT-consumption fault — the L3 family. Returns true when
 * the call must be aborted.
 */
bool
syscallArgFault(Machine &m, const RuntimeContext &ctx, int argIndex,
                const char *what)
{
    if (!ctx.tracking() || !ctx.policy->config().checkSyscallArgs)
        return false;
    if (!m.argNat(argIndex))
        return false;
    m.natConsumptionFault(FaultContext::SyscallArg,
                          std::string("tainted pointer passed to ") +
                              what);
    return true;
}

/** Run a policy check; kill or log per configuration. */
bool
applyAlert(Machine &m, const RuntimeContext &ctx,
           std::optional<SecurityAlert> alert)
{
    if (!alert)
        return false;
    m.raiseAlert(std::move(*alert), ctx.policy->config().alertKills);
    return true;
}

/**
 * Flight-recorder instant for a policy check crossing the OS
 * boundary. `id` names the check family run at this call site (the
 * alert itself carries the precise policy that fired).
 */
void
notePolicyCheck(Machine &m, const char *id, uint64_t addr)
{
    if (obs::TraceBuffer *b = m.observer())
        b->emit(obs::Ev::PolicyCheck, obs::packPolicyId(id),
                m.currentFunction(), m.currentPc(), addr);
}

/**
 * sprintf implementation with taint propagation. Returns the formatted
 * string and, when tracking, its per-byte taint.
 */
struct Formatted
{
    std::string text;
    std::vector<bool> taint;
};

Formatted
formatString(Machine &m, const RuntimeContext &ctx, uint64_t fmtAddr,
             int firstArg)
{
    Formatted out;
    std::string fmt = readString(m, fmtAddr);
    std::vector<bool> fmtTaint = taintOf(ctx, fmtAddr, fmt);
    bool tracking = ctx.tracking();
    int argIdx = firstArg;

    auto push = [&](char c, bool tainted) {
        out.text.push_back(c);
        out.taint.push_back(tainted);
    };

    for (size_t i = 0; i < fmt.size(); ++i) {
        bool ft = tracking && i < fmtTaint.size() && fmtTaint[i];
        if (fmt[i] != '%' || i + 1 >= fmt.size()) {
            push(fmt[i], ft);
            continue;
        }
        char spec = fmt[++i];
        if (spec == '%') {
            push('%', ft);
            continue;
        }
        uint64_t value = m.arg(argIdx);
        bool regTaint = tracking && m.argNat(argIdx);
        ++argIdx;
        switch (spec) {
          case 's': {
            std::string s = readString(m, value);
            std::vector<bool> st = taintOf(ctx, value, s);
            for (size_t j = 0; j < s.size(); ++j)
                push(s[j], (j < st.size() && st[j]) || regTaint);
            break;
          }
          case 'd': {
            std::string digits =
                std::to_string(static_cast<int64_t>(value));
            for (char c : digits)
                push(c, regTaint);
            break;
          }
          case 'x': {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%llx",
                          static_cast<unsigned long long>(value));
            for (const char *p = buf; *p; ++p)
                push(*p, regTaint);
            break;
          }
          case 'c':
            push(static_cast<char>(value), regTaint);
            break;
          default:
            SHIFT_FATAL("sprintf: unsupported conversion %%%c", spec);
        }
    }
    return out;
}

/** Write a formatted result into simulated memory + bitmap. */
void
storeFormatted(Machine &m, const RuntimeContext &ctx, uint64_t dst,
               const Formatted &f)
{
    MemFault fault = m.memory().writeBytes(dst, f.text.data(),
                                           f.text.size());
    SHIFT_ASSERT(fault == MemFault::None);
    fault = m.memory().write(dst + f.text.size(), 1, 0);
    SHIFT_ASSERT(fault == MemFault::None);
    if (ctx.tracking()) {
        // Summary: transfer per-byte taint to the destination. Clear
        // the whole range first, then set tainted bytes, so at word
        // granularity a unit's tag is the OR of its bytes. Tainted
        // bytes cluster (echoed request fields), so set them run by
        // run rather than one call per byte.
        ctx.taint->clear(dst, f.text.size() + 1);
        for (size_t i = 0; i < f.text.size();) {
            if (!f.taint[i]) {
                ++i;
                continue;
            }
            size_t j = i + 1;
            while (j < f.text.size() && f.taint[j])
                ++j;
            ctx.taint->taint(dst + i, j - i);
            i = j;
        }
    }
    m.addOsCycles(20 + 4 * f.text.size());
}

} // namespace

void
registerRuntimeBuiltins(Machine &machine, RuntimeContext &ctx)
{
    Os *os = ctx.os;
    SHIFT_ASSERT(os != nullptr);
    RuntimeContext *c = &ctx;

    machine.registerBuiltin("exit", [](Machine &m) {
        m.requestExit(static_cast<int64_t>(m.arg(0)));
    });

    machine.registerBuiltin("print", [os](Machine &m) {
        std::string s = readString(m, m.arg(0));
        os->writeFd(m, 1, m.arg(0), s.size());
        m.setRetval(s.size());
    });

    machine.registerBuiltin("print_num", [os](Machine &m) {
        std::string s = std::to_string(static_cast<int64_t>(m.arg(0)));
        // Stage through OS scratch space so writeFd sees sim memory.
        uint64_t scratch = regionBase(kOsRegion) + 0x1000;
        m.memory().writeBytes(scratch, s.data(), s.size());
        os->writeFd(m, 1, scratch, s.size());
        m.setRetval(s.size());
    });

    machine.registerBuiltin("open", [os, c](Machine &m) {
        if (syscallArgFault(m, *c, 0, "open"))
            return;
        uint64_t pathAddr = m.arg(0);
        std::string path = readString(m, pathAddr);
        if (c->tracking()) {
            notePolicyCheck(m, "H2", pathAddr);
            auto alert = c->policy->checkFileOpen(
                path, taintOf(*c, pathAddr, path));
            if (applyAlert(m, *c, std::move(alert))) {
                m.setRetval(static_cast<uint64_t>(-1));
                return;
            }
        }
        m.setRetval(static_cast<uint64_t>(
            os->openFd(m, path, static_cast<int64_t>(m.arg(1)))));
    });

    machine.registerBuiltin("read", [os, c](Machine &m) {
        if (syscallArgFault(m, *c, 1, "read"))
            return;
        m.setRetval(static_cast<uint64_t>(
            os->readFd(m, static_cast<int64_t>(m.arg(0)), m.arg(1),
                       m.arg(2))));
    });

    machine.registerBuiltin("write", [os, c](Machine &m) {
        if (syscallArgFault(m, *c, 1, "write"))
            return;
        m.setRetval(static_cast<uint64_t>(
            os->writeFd(m, static_cast<int64_t>(m.arg(0)), m.arg(1),
                        m.arg(2))));
    });

    machine.registerBuiltin("close", [os](Machine &m) {
        m.setRetval(static_cast<uint64_t>(
            os->closeFd(m, static_cast<int64_t>(m.arg(0)))));
    });

    machine.registerBuiltin("accept", [os](Machine &m) {
        m.setRetval(static_cast<uint64_t>(os->acceptFd(m)));
    });

    machine.registerBuiltin("recv", [os](Machine &m) {
        m.setRetval(static_cast<uint64_t>(
            os->readFd(m, static_cast<int64_t>(m.arg(0)), m.arg(1),
                       m.arg(2))));
    });

    // send(): the outbound-HTML boundary; H5 (cross-site scripting)
    // is checked on data leaving for the network.
    machine.registerBuiltin("send", [os, c](Machine &m) {
        uint64_t buf = m.arg(1);
        uint64_t len = std::min(m.arg(2), Os::kMaxTransfer);
        if (c->tracking()) {
            std::string data(len, '\0');
            if (m.memory().readBytes(buf, data.data(), len) ==
                MemFault::None) {
                notePolicyCheck(m, "H5", buf);
                // Map-querying overload: probe taint only at
                // `<script` matches instead of materializing a
                // per-byte vector for the whole response.
                auto alert =
                    c->policy->checkHtml(data, *c->taint, buf);
                if (applyAlert(m, *c, std::move(alert))) {
                    m.setRetval(static_cast<uint64_t>(-1));
                    return;
                }
            }
        }
        m.setRetval(static_cast<uint64_t>(
            os->writeFd(m, static_cast<int64_t>(m.arg(0)), buf, len)));
    });

    machine.registerBuiltin("file_size", [os](Machine &m) {
        std::string path = readString(m, m.arg(0));
        m.setRetval(static_cast<uint64_t>(os->fileSize(path)));
    });

    machine.registerBuiltin("malloc", [](Machine &m) {
        m.setRetval(m.sbrk(m.arg(0)));
    });

    machine.registerBuiltin("free", [](Machine &m) {
        // Bump allocator: free is a no-op.
        m.setRetval(0);
    });

    machine.registerBuiltin("sprintf", [c](Machine &m) {
        Formatted f = formatString(m, *c, m.arg(1), 2);
        storeFormatted(m, *c, m.arg(0), f);
        m.setRetval(f.text.size());
    });

    machine.registerBuiltin("sql_exec", [c](Machine &m) {
        uint64_t queryAddr = m.arg(0);
        std::string query = readString(m, queryAddr);
        if (c->tracking()) {
            notePolicyCheck(m, "H3", queryAddr);
            auto alert = c->policy->checkSql(
                query, taintOf(*c, queryAddr, query));
            if (applyAlert(m, *c, std::move(alert))) {
                m.setRetval(static_cast<uint64_t>(-1));
                return;
            }
        }
        m.addOsCycles(4000 + 2 * query.size());
        m.setRetval(0);
    });

    machine.registerBuiltin("system", [c](Machine &m) {
        uint64_t cmdAddr = m.arg(0);
        std::string cmd = readString(m, cmdAddr);
        if (c->tracking()) {
            notePolicyCheck(m, "H4", cmdAddr);
            auto alert = c->policy->checkSystem(
                cmd, taintOf(*c, cmdAddr, cmd));
            if (applyAlert(m, *c, std::move(alert))) {
                m.setRetval(static_cast<uint64_t>(-1));
                return;
            }
        }
        m.addOsCycles(50000);
        m.setRetval(0);
    });

    machine.registerBuiltin("html_write", [os, c](Machine &m) {
        uint64_t addr = m.arg(0);
        std::string html = readString(m, addr);
        if (c->tracking()) {
            notePolicyCheck(m, "H5", addr);
            // The map-querying overload probes taint only at
            // `<script` match positions — no per-byte taint vector
            // for the whole response body.
            auto alert = c->policy->checkHtml(html, *c->taint, addr);
            if (applyAlert(m, *c, std::move(alert))) {
                m.setRetval(static_cast<uint64_t>(-1));
                return;
            }
        }
        os->writeFd(m, 1, addr, html.size());
        m.setRetval(html.size());
    });

    // ----- test / example helpers ---------------------------------------

    machine.registerBuiltin("__taint", [c](Machine &m) {
        if (c->taint)
            c->taint->taint(m.arg(0), std::min(m.arg(1), Os::kMaxTransfer));
        m.setRetval(0);
    });

    machine.registerBuiltin("__untaint", [c](Machine &m) {
        if (c->taint)
            c->taint->clear(m.arg(0), std::min(m.arg(1), Os::kMaxTransfer));
        m.setRetval(0);
    });

    machine.registerBuiltin("__mem_tainted", [c](Machine &m) {
        m.setRetval(c->taint && c->taint->isTainted(m.arg(0)) ? 1 : 0);
    });

    machine.registerBuiltin("__arg_tainted", [](Machine &m) {
        // SHIFT keeps register taint in the NaT bit; the software
        // baseline keeps it in the r31 bitmap (bit per register).
        bool baselineBit = (m.gprVal(reg::natSrc) >> reg::arg0) & 1;
        m.setRetval(m.argNat(0) || baselineBit ? 1 : 0);
    });
}

} // namespace shift
