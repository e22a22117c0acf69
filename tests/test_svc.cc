/**
 * @file
 * Fleet-service unit tests: the bounded MPMC queue, machine snapshot
 * capture/restore, the SessionTemplate compile-once / clone-many
 * factory, the Session run-once guard, and per-clone log tagging.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/session_template.hh"
#include "session_helpers.hh"
#include "support/logging.hh"
#include "svc/fleet.hh"
#include "svc/mpmc_queue.hh"
#include "workloads/httpd.hh"

namespace shift
{
namespace
{

using svc::MpmcQueue;
using testutil::shiftOptions;

// ----- MpmcQueue --------------------------------------------------------

TEST(MpmcQueue, FifoThroughOneThread)
{
    MpmcQueue<int> q(8);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.push(3));
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.pop(), std::optional<int>(1));
    EXPECT_EQ(q.pop(), std::optional<int>(2));
    EXPECT_EQ(q.pop(), std::optional<int>(3));
}

TEST(MpmcQueue, CloseDrainsThenEndsStream)
{
    MpmcQueue<int> q(8);
    q.push(10);
    q.push(20);
    q.close();
    EXPECT_FALSE(q.push(30)); // rejected after close
    EXPECT_EQ(q.pop(), std::optional<int>(10));
    EXPECT_EQ(q.pop(), std::optional<int>(20));
    EXPECT_EQ(q.pop(), std::nullopt); // end of stream, no block
}

TEST(MpmcQueue, BoundedPushBlocksUntilPopped)
{
    MpmcQueue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        q.push(2); // must block: queue is full
        pushed.store(true);
    });
    // Give the producer a chance to (wrongly) complete.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());
    EXPECT_EQ(q.pop(), std::optional<int>(1));
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(q.pop(), std::optional<int>(2));
}

TEST(MpmcQueue, ManyProducersManyConsumers)
{
    constexpr int kPerProducer = 200;
    constexpr int kProducers = 3;
    constexpr int kConsumers = 3;
    MpmcQueue<int> q(4);
    std::atomic<long> sum{0};
    std::atomic<int> count{0};

    std::vector<std::thread> threads;
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            while (std::optional<int> v = q.pop()) {
                sum.fetch_add(*v);
                count.fetch_add(1);
            }
        });
    }
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i)
                q.push(p * kPerProducer + i);
        });
    }
    for (std::thread &t : producers)
        t.join();
    q.close();
    for (std::thread &t : threads)
        t.join();

    int n = kProducers * kPerProducer;
    EXPECT_EQ(count.load(), n);
    EXPECT_EQ(sum.load(), static_cast<long>(n) * (n - 1) / 2);
}

// ----- Session run-once guard -------------------------------------------

TEST(Session, SecondRunIsFatal)
{
    Session session("int main() { return 7; }", shiftOptions());
    RunResult r = session.run();
    EXPECT_EQ(r.exitCode, 7);
    EXPECT_THROW(session.run(), FatalError);
}

// ----- SessionTemplate / SessionClone -----------------------------------

const char *const kCounterSource =
    "int counter;"
    "int main() {"
    "  counter = counter + 1;"
    "  print_num(counter);"
    "  return counter;"
    "}";

TEST(SessionTemplate, ClonesMatchFreshSessionBitForBit)
{
    const char *src =
        "char buf[64];"
        "int main() {"
        "  __taint(buf, 64);"
        "  int i = 0; int acc = 0;"
        "  while (i < 1000) { acc = acc + i * 3; i = i + 1; }"
        "  print_num(acc);"
        "  return __mem_tainted(buf);"
        "}";

    Session fresh(src, shiftOptions());
    RunResult freshResult = fresh.run();
    std::string freshStdout = fresh.os().stdoutText();

    SessionTemplate tmpl(src, shiftOptions());
    for (int i = 0; i < 3; ++i) {
        auto clone = tmpl.instantiate();
        RunResult r = clone->run();
        EXPECT_EQ(r.exitCode, freshResult.exitCode);
        EXPECT_EQ(r.cycles, freshResult.cycles) << "clone " << i;
        EXPECT_EQ(r.instructions, freshResult.instructions);
        EXPECT_EQ(clone->os().stdoutText(), freshStdout);
    }
}

TEST(SessionTemplate, ClonesAreIsolated)
{
    // Each clone starts from the same snapshot: the global counter is
    // 1 in every clone, not accumulated across clones.
    SessionTemplate tmpl(kCounterSource, shiftOptions());
    for (int i = 0; i < 4; ++i) {
        auto clone = tmpl.instantiate();
        RunResult r = clone->run();
        EXPECT_TRUE(r.exited);
        EXPECT_EQ(r.exitCode, 1) << "clone " << i << " saw a sibling's "
                                 << "write through a shared page";
    }
}

TEST(SessionTemplate, CloneIsSingleUse)
{
    SessionTemplate tmpl(kCounterSource, shiftOptions());
    auto clone = tmpl.instantiate();
    clone->run();
    EXPECT_THROW(clone->run(), FatalError);
}

TEST(SessionTemplate, ProvisioningAfterFreezeIsFatal)
{
    SessionTemplate tmpl(kCounterSource, shiftOptions());
    tmpl.os(); // fine before freeze
    auto clone = tmpl.instantiate();
    EXPECT_TRUE(tmpl.frozen());
    EXPECT_THROW(tmpl.os(), FatalError);
}

TEST(SessionTemplate, SnapshotSharesPagesAndClonesCowLittle)
{
    // The initializer makes layout write the counter's page before
    // freeze, so the snapshot holds it; the run then writes it again.
    // The 64 KiB array and the 4 MiB stack are reserved but untouched
    // at freeze, so they add no snapshot page.
    const char *src =
        "int counter = 41;"
        "char untouched[65536];"
        "int main() {"
        "  counter = counter + 1;"
        "  return counter;"
        "}";
    SessionTemplate tmpl(src, shiftOptions());
    tmpl.freeze();
    EXPECT_EQ(tmpl.snapshotPages(), 1u);
    for (int i = 0; i < 2; ++i) {
        auto clone = tmpl.instantiate();
        const Memory &mem = clone->machine().memory();
        // A fork shares the snapshot's pages and copies none of them.
        EXPECT_EQ(mem.pageCount(), 1u);
        EXPECT_EQ(mem.cowCopies(), 0u);
        RunResult r = clone->run();
        EXPECT_EQ(r.exitCode, 42) << "clone " << i;
        // It copied only the one shared page it wrote: the stack and
        // tag pages it touched were fresh zero pages, not copies.
        EXPECT_EQ(mem.cowCopies(), 1u);
        EXPECT_GT(mem.pageCount(), 1u);
    }
}

TEST(SessionTemplate, ConcurrentClonesComputeIdenticalResults)
{
    SessionTemplate tmpl(kCounterSource, shiftOptions());
    tmpl.freeze();

    constexpr int kThreads = 8;
    std::vector<RunResult> results(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            auto clone = tmpl.instantiate();
            results[i] = clone->run();
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int i = 0; i < kThreads; ++i) {
        EXPECT_TRUE(results[i].exited);
        EXPECT_EQ(results[i].exitCode, 1);
        EXPECT_EQ(results[i].cycles, results[0].cycles);
    }
}

// ----- Fleet ------------------------------------------------------------

TEST(Fleet, StartsNoMoreWorkersThanJobs)
{
    SessionTemplate tmpl(workloads::kHttpdSource,
                         workloads::httpdSessionOptions(
                             TrackingMode::Shift, Granularity::Byte, {},
                             ExecEngine::Predecoded));
    workloads::provisionHttpdOs(tmpl.os(), 512);
    std::vector<svc::FleetJob> jobs = {
        {0, {workloads::kHttpdRequest}},
        {1, {workloads::kHttpdRequest, workloads::kHttpdAttackRequest}},
    };
    auto serve = [&](unsigned workers) {
        svc::FleetOptions options;
        options.workers = workers;
        return svc::Fleet(tmpl, options).serve(jobs);
    };
    svc::FleetReport two = serve(2);
    svc::FleetReport eight = serve(8);
    EXPECT_EQ(eight.stats.gauge("fleet.workers"), 2u);
    EXPECT_EQ(two.stats.gauge("fleet.workers"), 2u);
    ASSERT_EQ(eight.jobResults.size(), jobs.size());
    ASSERT_EQ(two.jobResults.size(), jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
        const svc::FleetJobResult &a = two.jobResults[j];
        const svc::FleetJobResult &b = eight.jobResults[j];
        EXPECT_EQ(b.id, a.id);
        EXPECT_EQ(b.result.exitCode, a.result.exitCode) << "job " << j;
        EXPECT_EQ(b.result.killedByPolicy, a.result.killedByPolicy);
        EXPECT_EQ(b.result.cycles, a.result.cycles) << "job " << j;
        EXPECT_EQ(b.result.instructions, a.result.instructions);
        EXPECT_EQ(b.responses, a.responses) << "job " << j;
    }
    EXPECT_EQ(eight.detections, 1u);
    EXPECT_EQ(eight.totalSimCycles, two.totalSimCycles);
}

// ----- log tagging ------------------------------------------------------

TEST(Logging, CloneTagPrefixesOutput)
{
    setVerbose(true);
    setLogCloneTag(5);
    testing::internal::CaptureStderr();
    SHIFT_WARN("from a worker");
    std::string tagged = testing::internal::GetCapturedStderr();
    setLogCloneTag(-1);
    testing::internal::CaptureStderr();
    SHIFT_WARN("from the main thread");
    std::string untagged = testing::internal::GetCapturedStderr();
    setVerbose(false);

    EXPECT_EQ(tagged, "warn: [clone 5] from a worker\n");
    EXPECT_EQ(untagged, "warn: from the main thread\n");
}

} // namespace
} // namespace shift
