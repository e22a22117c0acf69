/**
 * @file
 * SPEC-kernel correctness: every kernel computes the same checksum
 * under every tracking configuration (original, SHIFT byte/word with
 * safe and unsafe input, enhanced hardware, software baseline) with no
 * faults and no alerts — the figure-7 measurements are only meaningful
 * if the instrumented programs still compute the right answers.
 */

#include <gtest/gtest.h>

#include "workloads/spec.hh"

namespace shift
{
namespace
{

using workloads::SpecKernel;
using workloads::specKernels;
using workloads::SpecRun;
using workloads::runSpecKernel;

class SpecKernelTest
    : public ::testing::TestWithParam<const SpecKernel *>
{
};

std::vector<const SpecKernel *>
allKernels()
{
    std::vector<const SpecKernel *> out;
    for (const SpecKernel &k : specKernels())
        out.push_back(&k);
    return out;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, SpecKernelTest,
                         ::testing::ValuesIn(allKernels()),
                         [](const auto &info) {
                             return info.param->shortName;
                         });

void
expectClean(const SpecRun &run, const std::string &what)
{
    EXPECT_TRUE(run.result.exited)
        << what << ": fault=" << faultKindName(run.result.fault.kind)
        << " fn=" << run.result.fault.function << " pc="
        << run.result.fault.pc << " (" << run.result.fault.detail << ")"
        << (run.result.alerts.empty()
                ? ""
                : " alert=" + run.result.alerts.back().policy + ": " +
                      run.result.alerts.back().message);
    EXPECT_TRUE(run.result.alerts.empty())
        << what << ": " << run.result.alerts.back().policy << ": "
        << run.result.alerts.back().message;
    EXPECT_NE(run.result.exitCode, 255) << what << ": input missing";
    EXPECT_NE(run.result.exitCode, 254) << what << ": self-check failed";
    EXPECT_NE(run.result.exitCode, 253) << what << ": self-check failed";
}

TEST_P(SpecKernelTest, AllConfigurationsAgree)
{
    const SpecKernel &kernel = *GetParam();

    SessionOptions original;
    original.mode = TrackingMode::None;
    SpecRun base = runSpecKernel(kernel, original);
    expectClean(base, kernel.name + "/original");

    struct Variant
    {
        const char *name;
        SessionOptions options;
    };
    std::vector<Variant> variants;
    for (Granularity g : {Granularity::Byte, Granularity::Word}) {
        for (bool unsafe : {true, false}) {
            SessionOptions options;
            options.policy.granularity = g;
            options.policy.taintFile = unsafe;
            variants.push_back({"shift", options});
        }
    }
    {
        SessionOptions options;
        options.features.natSetClear = true;
        options.features.natAwareCompare = true;
        variants.push_back({"shift-enhanced", options});
    }
    {
        SessionOptions options;
        options.mode = TrackingMode::SoftwareDift;
        variants.push_back({"baseline", options});
    }

    for (const Variant &variant : variants) {
        SpecRun run = runSpecKernel(kernel, variant.options);
        expectClean(run, kernel.name + "/" + variant.name);
        EXPECT_EQ(run.result.exitCode, base.result.exitCode)
            << kernel.name << "/" << variant.name;
        // Tracked runs execute strictly more instructions.
        EXPECT_GT(run.result.instructions, base.result.instructions)
            << kernel.name << "/" << variant.name;
    }
}

TEST_P(SpecKernelTest, InstrumentationExpandsCode)
{
    const SpecKernel &kernel = *GetParam();
    SpecRun run = runSpecKernel(kernel, {});
    EXPECT_GT(run.instrStats.newSize, run.instrStats.originalSize);
    EXPECT_GT(run.instrStats.loads, 0u);
    EXPECT_GT(run.instrStats.stores, 0u);
    EXPECT_GT(run.instrStats.compares, 0u);
}

TEST(SpecSuite, HasEightKernels)
{
    EXPECT_EQ(specKernels().size(), 8u);
}

TEST(SpecSuite, RunsAreDeterministic)
{
    // EXPERIMENTS.md promises bit-identical reruns: inputs come from
    // fixed seeds and the simulator has no hidden entropy.
    const workloads::SpecKernel &kernel = workloads::specKernel("mcf");
    SpecRun a = runSpecKernel(kernel, {});
    SpecRun b = runSpecKernel(kernel, {});
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(a.result.exitCode, b.result.exitCode);
}

TEST(SpecSuite, ProvenanceCyclesSumToCpuCycles)
{
    // The figure 8/9 accounting must partition, not sample: the
    // per-provenance buckets have to add up to the CPU total.
    const workloads::SpecKernel &kernel =
        workloads::specKernel("parser");
    SpecRun run = runSpecKernel(kernel, {});
    const StatSet &st = run.result.stats;
    uint64_t sum = 0;
    for (const char *prov : {"original", "natgen", "tagaddr", "tagmem",
                             "tagreg", "relax", "check", "baseline"}) {
        sum += st.get(std::string("engine.cycles.") + prov);
    }
    EXPECT_EQ(sum, st.get("engine.cycles.cpu"));
    EXPECT_EQ(st.get("engine.cycles.cpu") + st.get("engine.cycles.os"),
              st.get("engine.cycles.total"));
}

} // namespace
} // namespace shift
