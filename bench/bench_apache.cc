/**
 * @file
 * Figure 6: web-server (Apache) overhead under SHIFT.
 *
 * Latency and throughput relative to the uninstrumented server for
 * requested file sizes of 4/8/16/512 KB, at byte and word tracking
 * granularity. Paper reference: ~1% geometric-mean overhead, largest
 * (4.2%) for 4 KB files because I/O is a smaller share there.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/httpd.hh"

namespace
{

using namespace shift;
using namespace shift::workloads;
using benchutil::geomean;

constexpr int kRequests = 25;

HttpdRun
serve(TrackingMode mode, Granularity g, uint64_t size)
{
    HttpdConfig config;
    config.mode = mode;
    config.granularity = g;
    config.fileSize = size;
    config.requests = kRequests;
    HttpdRun run = runHttpd(config);
    if (!run.responsesOk) {
        std::fprintf(stderr, "httpd run failed (size %llu)\n",
                     static_cast<unsigned long long>(size));
        std::exit(1);
    }
    return run;
}

void
printFigure6()
{
    std::printf("\n=== Figure 6: Apache-like server, relative "
                "performance vs uninstrumented ===\n");
    std::printf("%-9s %14s %14s %17s %17s\n", "filesize",
                "latency(byte)", "latency(word)", "throughput(byte)",
                "throughput(word)");
    benchutil::rule(76);

    std::vector<double> latB, latW, thrB, thrW;
    for (uint64_t kb : {4, 8, 16, 512}) {
        uint64_t size = kb * 1024;
        HttpdRun base = serve(TrackingMode::None, Granularity::Byte,
                              size);
        HttpdRun byteRun = serve(TrackingMode::Shift, Granularity::Byte,
                                 size);
        HttpdRun wordRun = serve(TrackingMode::Shift, Granularity::Word,
                                 size);

        // Relative latency: instrumented / base (>= 1). Relative
        // throughput: instrumented / base (<= 1).
        double lb = byteRun.latencyCycles / base.latencyCycles;
        double lw = wordRun.latencyCycles / base.latencyCycles;
        double tb = byteRun.throughput / base.throughput;
        double tw = wordRun.throughput / base.throughput;
        latB.push_back(lb);
        latW.push_back(lw);
        thrB.push_back(tb);
        thrW.push_back(tw);

        std::printf("%6lluKB %13.4f %14.4f %17.4f %17.4f\n",
                    static_cast<unsigned long long>(kb), lb, lw, tb, tw);
    }
    benchutil::rule(76);
    double meanOverhead =
        (geomean(latB) + geomean(latW)) / 2.0 - 1.0;
    std::printf("geometric mean overhead (latency, byte+word): "
                "%.2f%%\n", meanOverhead * 100.0);
    std::printf("paper: ~1%% average; 4KB worst at ~4.2%%\n\n");
}

} // namespace

int
main()
{
    printFigure6();
    return 0;
}
