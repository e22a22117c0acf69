/**
 * @file
 * The predecoded execution engine's one-time decode/link pass.
 *
 * The legacy stepper pays per-dynamic-instruction costs that are all
 * statically resolvable: Label pseudo-ops burn a full step() iteration,
 * Br/Chk targets are looked up through a label-position table, BrCall
 * callees are resolved by a linear string scan over the function list
 * (falling back to a string-keyed builtin map), and the load-use stall
 * check walks the instruction's operand fields. decodeProgram() runs
 * once in the Machine constructor and compiles each Function into a
 * dense DecodedFunction stream with all of that folded into per-
 * instruction static metadata:
 *
 *  - Label markers are stripped; every surviving instruction remembers
 *    its original index (`origIndex`) so faults, alerts and
 *    Machine::currentPc() still report architectural (original)
 *    program counters, bit-identical to the legacy stepper.
 *  - Br/Chk label ids are rewritten to dense instruction indices.
 *  - BrCall callees become either a user-function index or a builtin
 *    slot id; the Machine binds slot ids to registered builtin
 *    functions, so no string is hashed on any dynamic call.
 *  - The set of GRs each instruction reads is precomputed as a 64-bit
 *    mask, making the load-use stall check one shift and AND.
 *  - The instrumenter's fixed taint idioms (the figure-4 tag-address
 *    fold, the 4/9-instruction bitmap checks, the spill/reload NaT
 *    purge and the bitmap RMW update) are recognized on the dense
 *    stream and fused into single macro micro-ops (Opcode::Fused*).
 *    A fused handler replays its constituents' exact architectural
 *    semantics — register writes, cycle/stat charges, stalls, cache
 *    accesses and fault points — while paying the fetch/dispatch
 *    front end once, so simulated counts stay bit-identical to the
 *    legacy stepper and only host time drops. A group is only fused
 *    when no branch targets its interior and its constituents are
 *    contiguous in the original stream (so a fault inside the group
 *    can name constituent k's architectural pc). Per-instruction
 *    trace hooks need the unfused stream; Machine::setTraceHook
 *    re-decodes with `fuse` off.
 *
 * A branch to an unresolved label, or a fused or fast-path micro-op
 * in the architectural program, is a malformed program; the pass
 * rejects it here, at construction time, with a BadProgram fault that
 * names the offending function (see docs/EXECUTION-ENGINE.md).
 *
 * A decoded program can link a unit decoded once before it: the MiniC
 * libc, decoded once per configuration (trackedStdlib()), is linked by
 * pointer into every Session's decode, which decodes only the
 * program's own functions (decodeFunctions).
 */

#ifndef SHIFT_SIM_DECODED_HH
#define SHIFT_SIM_DECODED_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "isa/program.hh"
#include "sim/faults.hh"

namespace shift
{

/** Which stepper the Machine runs. */
enum class ExecEngine : uint8_t
{
    Predecoded, ///< dense label-free stream with link-time resolution
    Legacy,     ///< per-step label/string resolution (reference engine)
};

/**
 * One instruction of the dense stream: a compact micro-op holding only
 * the fields the interpreter reads dynamically, plus linked metadata.
 *
 * This is deliberately NOT the architectural Instr. Instr is 80 bytes
 * (it carries a std::string callee for the assembler's benefit), so an
 * embedded copy put under one micro-op per cache line in front of the
 * fetch path. The micro-op packs into 48 bytes; anything cold — the
 * callee name, provenance enums, disassembly — is recovered through
 * `origIndex` into DecodedFunction::src->code, which slow paths
 * (faults, trace hooks) are free to touch.
 *
 * BrCall's two possible callees share one field: `callee` >= 0 is a
 * user-function index; `callee` < 0 names builtin slot -1 - callee
 * (the decode pass guarantees one of the two for every BrCall).
 */
struct DecodedInstr
{
    uint64_t useMask = 0;  ///< GRs read (bit r); 0 for chk.s, which
                           ///< the load-use stall check exempts
    int64_t imm = 0;       ///< immediate / syscall number / Tbit index
    int32_t target = -1;   ///< dense branch target for Br/Chk
    int32_t callee = -1;   ///< BrCall: function index or ~slot (above)
    int32_t origIndex = 0; ///< index within Function::code
    uint16_t r1 = 0;       ///< destination GR
    uint16_t r2 = 0;       ///< source GR 1
    uint16_t r3 = 0;       ///< source GR 2 (when !useImm)
    Opcode op = Opcode::Nop;
    uint8_t qp = 0;          ///< qualifying predicate
    uint8_t p1 = 0;          ///< predicate destination 1
    uint8_t p2 = 0;          ///< predicate destination 2
    uint8_t br = 0;          ///< branch register operand
    CmpRel rel = CmpRel::Eq; ///< relation for Cmp/CmpNat
    uint8_t size = 8;        ///< access size for Ld/St/Sxt/Zxt
    uint8_t pos = 0;         ///< Extr bit position / Shladd shift
    uint8_t len = 0;         ///< Extr bit length
    uint8_t statIdx = 0;     ///< flat (provenance, class) stat index;
                             ///< statIdx % kNumOrigClass recovers the
                             ///< OrigClass (e.g. the Ld fault context)
    bool useImm = false;     ///< source 2 is `imm`
    bool spec = false;       ///< speculative load (ld.s)
    bool fill = false;       ///< ld8.fill
    bool spill = false;      ///< st8.spill

    bool operator==(const DecodedInstr &) const = default;
};

/** A read-only run of micro-ops, viewing a DecodedProgram's storage. */
using DecodedStream = std::span<const DecodedInstr>;

/**
 * One function compiled to a label-free stream. The streams are views:
 * a DecodedProgram owns the streams of its own functions and shares
 * those of the unit it links (DecodedProgram::linked), so
 * `functions[f].code` reads the same either way.
 */
struct DecodedFunction
{
    const Function *src = nullptr;
    DecodedStream code;
    uint32_t origCount = 0; ///< src->code.size(), for end-of-function pcs

    /**
     * The taint-clean fast tier (see docs/FAST-PATH.md): a second,
     * parallel stream in which every superblock of `code` has a twin
     * whose bitmap checks/updates and NaT purges are replaced by
     * Fp* summary probes. Fast-stream Br/Chk targets are retargeted
     * onto the fast stream itself (block-to-block chaining); a failed
     * probe deopts to `code` at the elided group's own index. Empty
     * when the function has nothing to elide (running its fast twin
     * would be pure dispatch overhead) or when fusion is off.
     */
    DecodedStream fast;
    /**
     * Slow index -> fast index of that superblock's entry, -1 for
     * non-leaders. Sized code.size() exactly when `fast` is nonempty.
     * Every Br/Chk target and index 0 are leaders, so any slow-stream
     * control transfer can promote into the fast tier here.
     */
    std::span<const int32_t> fastEntry;
};

/** Where one fast-tier superblock lives, for per-block counters. */
struct FastBlockInfo
{
    int32_t function = 0; ///< index into DecodedProgram::functions
    int32_t slowPc = 0;   ///< dense slow-stream index of the block head

    bool operator==(const FastBlockInfo &) const = default;
};

/** A whole predecoded program. */
struct DecodedProgram
{
    /** The streams of one function this program decoded itself. */
    struct Streams
    {
        std::vector<DecodedInstr> code;
        std::vector<DecodedInstr> fast;
        std::vector<int32_t> fastEntry;
    };

    DecodedProgram() = default;
    // Movable, not copyable: `functions` views the buffers of `owned`,
    // which a move keeps and a copy would leave behind.
    DecodedProgram(DecodedProgram &&) = default;
    DecodedProgram &operator=(DecodedProgram &&) = default;

    std::vector<DecodedFunction> functions;
    /** Slot id -> callee name for BrCalls that are not user functions. */
    std::vector<std::string> builtinNames;
    /**
     * Every fast-tier superblock across all functions, indexed by the
     * global block id carried in Fp* micro-ops (`callee` field). The
     * Machine sizes its per-block hit/deopt counters from this.
     */
    std::vector<FastBlockInfo> fastBlocks;

    /**
     * The unit linked in front of this program's own functions, or
     * null. Its functions are this program's first ones: their
     * `functions` and `fastBlocks` entries copy the unit's, and their
     * streams are the unit's own, so every program that links one unit
     * runs the same DecodedInstrs.
     */
    std::shared_ptr<const DecodedProgram> linked;
    /** Storage for the streams of the functions after `linked`'s. */
    std::vector<Streams> owned;
};

/**
 * Decode and link `program`. Returns false when the program is
 * malformed (a Br/Chk naming a label no Label pseudo-op defines, or
 * an opcode at or above kFirstFusedOpcode), with `error` filled in as
 * a BadProgram fault whose detail names the function and the label or
 * micro-op. `fuse` additionally collapses the instrumenter's
 * taint idioms into Fused* macro micro-ops (see the file comment);
 * pass false to keep a one-to-one stream, e.g. for per-instruction
 * trace hooks.
 */
bool decodeProgram(const Program &program, DecodedProgram &out,
                   Fault &error, bool fuse = true);

/**
 * decodeProgram, with `linked` (if not null) linked in front instead of
 * decoded again. `linked` must be a fused decode of functions equal to
 * the program's first linked->functions.size() (in a Session, the
 * Program::linked prefix itself), calling only each other: a link unit
 * that numbers its fast blocks from 0 and has no builtin slots, as the
 * MiniC libc does. The functions after it number their fast blocks and
 * builtin slots after the unit's, so the result equals decoding the
 * program whole, field for field.
 */
bool decodeFunctions(const Program &program,
                     std::shared_ptr<const DecodedProgram> linked,
                     DecodedProgram &out, Fault &error, bool fuse = true);

/** True when any function's stream contains a fused macro micro-op. */
bool hasFusedOps(const DecodedProgram &program);

/**
 * A fast-tier superblock's entry micro-op: a standalone FpEnter, or a
 * block-leading probe carrying the merged entry flag (p2 bit 2, see
 * buildFastStream). Every promotion into a fast superblock tests its
 * head here, so a cold (demoted) block is rejected where it is entered.
 */
inline bool
isSuperblockEntry(const DecodedInstr &head)
{
    return head.op == Opcode::FpEnter ||
           ((head.op == Opcode::FpChkProbe ||
             head.op == Opcode::FpStProbe ||
             head.op == Opcode::FpClrProbe) &&
            (head.p2 & 4));
}

} // namespace shift

#endif // SHIFT_SIM_DECODED_HH
