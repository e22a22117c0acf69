/**
 * @file
 * Shared helpers for the benchmark harnesses.
 *
 * Each bench binary reproduces one table or figure of the paper: it
 * runs the relevant simulations once and prints the paper-style table
 * (simulated-cycle ratios — the substrate is a simulator, so relative
 * numbers are the result).
 */

#ifndef SHIFT_BENCH_BENCH_UTIL_HH
#define SHIFT_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <vector>

namespace shift::benchutil
{

/** Geometric mean of a vector of ratios. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

/** Print a horizontal rule sized to a header line. */
inline void
rule(size_t width)
{
    for (size_t i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

} // namespace shift::benchutil

#endif // SHIFT_BENCH_BENCH_UTIL_HH
