/**
 * @file
 * The asynchronous taint tier's per-event flag bits.
 *
 * The engine passes these to the tier's replay entry points
 * (dift/tier.hh) alongside the register numbers, access size and
 * original-stream pc the predecode pass already resolved statically.
 */

#ifndef SHIFT_DIFT_EVENT_HH
#define SHIFT_DIFT_EVENT_HH

#include <cstdint>

namespace shift::dift
{

// Load:
constexpr uint8_t kEvChecked = 1; ///< bitmap-checked (instrumented) access
constexpr uint8_t kEvRelaxed = 2; ///< pointer-taint relaxation applies
constexpr uint8_t kEvFill = 4;    ///< ld8.fill (NaT sidecar traffic)
// Store reuses kEvChecked ("tracked": the bitmap RMW applies) and
// kEvRelaxed (store-address relaxation), plus:
constexpr uint8_t kEvSpill = 4; ///< st8.spill (NaT sidecar traffic)

} // namespace shift::dift

#endif // SHIFT_DIFT_EVENT_HH
