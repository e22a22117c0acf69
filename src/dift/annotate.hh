/**
 * @file
 * Async-tier program annotation.
 *
 * Under the decoupled taint tier the engine runs the *original*
 * program — no inline instrumentation at all — and the tier replays
 * propagation beside it. The replay must still apply exactly the
 * instrumenter's semantics (which accesses
 * are bitmap-checked, which are relaxed, which compares carry the
 * taint-alert policy, which ALU results are purified), so this pass
 * precomputes those static decisions and stashes them in the unused
 * `p1` field of each load/store/ALU instruction — the predecoder
 * copies `p1` verbatim into the micro-op, where the async engine
 * forwards it as replay flags for free.
 *
 * The only instructions it *inserts* are the compare-taint-alert
 * markers: an unpredicated `mov br7 = r` before each scoped compare
 * operand, mirroring the instrumenter's predicated trap (the engine
 * replays a branch check, which raises the same L3 verdict the
 * synchronous trap would). br7 is otherwise unused by codegen
 * (indirect calls go through br6).
 */

#ifndef SHIFT_DIFT_ANNOTATE_HH
#define SHIFT_DIFT_ANNOTATE_HH

#include <cstdint>
#include <set>
#include <string>

#include "isa/program.hh"

namespace shift::dift
{

// Instr::p1 flag bits on annotated loads/stores/ALU ops. They mirror
// the replay flag bits (event.hh) the engine derives from them.
constexpr uint8_t kAnnChecked = 1;   ///< Ld/St: bitmap-checked/tracked
constexpr uint8_t kAnnRelaxed = 2;   ///< Ld/St: address-taint relaxation
constexpr uint8_t kAnnZeroIdiom = 4; ///< ALU: xor r,r / sub r,r purify

/**
 * The instrumenter scoping knobs the replay must agree with. A
 * plain-field copy of the relevant InstrumentOptions (core/ sits
 * above this library, so the runtime copies the fields across).
 */
struct AnnotateOptions
{
    bool instrumentLoads = true;
    bool instrumentStores = true;
    bool instrumentCompares = true;
    bool relaxLoadAddress = false;
    std::set<std::string> relaxLoadFunctions;
    std::set<std::string> relaxStoreFunctions;
    bool cmpTaintAlert = false;
    std::set<std::string> cmpTaintAlertFunctions;
};

struct AnnotateStats
{
    uint64_t checkedLoads = 0;
    uint64_t relaxedLoads = 0;
    uint64_t trackedStores = 0;
    uint64_t relaxedStores = 0;
    uint64_t zeroIdioms = 0;
    uint64_t cmpMarkers = 0;
};

/** Annotate `program` in place for the async tier. */
AnnotateStats annotateForAsync(Program &program,
                               const AnnotateOptions &options);

} // namespace shift::dift

#endif // SHIFT_DIFT_ANNOTATE_HH
