#include "httpd.hh"

#include "support/logging.hh"

namespace shift::workloads
{

const char *const kHttpdSource = R"MC(
char req[2048];
char rawpath[512];
char path[512];
char header[512];
char mime[64];
char chunk[8192];
char logbuf[65536];
int logpos;

// Percent-decode the request path (the per-character user-mode work a
// real server does on every request).
void url_decode(char *dst, char *src) {
    long i = 0;
    long o = 0;
    while (src[i]) {
        if (src[i] == '%' && src[i + 1] && src[i + 2]) {
            int hi = src[i + 1];
            int lo = src[i + 2];
            if (hi >= 'a') hi = hi - 'a' + 10;
            else if (hi >= 'A') hi = hi - 'A' + 10;
            else hi = hi - '0';
            if (lo >= 'a') lo = lo - 'a' + 10;
            else if (lo >= 'A') lo = lo - 'A' + 10;
            else lo = lo - '0';
            dst[o] = (char)(hi * 16 + lo);
            i += 3;
        } else {
            dst[o] = src[i];
            i++;
        }
        o++;
    }
    dst[o] = 0;
}

void mime_type(char *name) {
    char *dot = strchr(name, '.');
    strcpy(mime, "application/octet-stream");
    if (dot) {
        if (strcmp(dot, ".html") == 0) strcpy(mime, "text/html");
        else if (strcmp(dot, ".txt") == 0) strcpy(mime, "text/plain");
        else if (strcmp(dot, ".bin") == 0) return;
        else if (strcmp(dot, ".css") == 0) strcpy(mime, "text/css");
        else if (strcmp(dot, ".png") == 0) strcpy(mime, "image/png");
    }
}

void log_request(char *p, int size) {
    char line[256];
    int n = sprintf(line, "GET %s 200 %d\n", p, size);
    if (logpos + n >= 65000) logpos = 0;
    strcpy(logbuf + logpos, line);
    logpos += n;
}

int handle(int conn) {
    int n = recv(conn, req, 2047);
    if (n <= 0) return 0;
    req[n] = 0;
    if (strncmp(req, "GET ", 4) != 0) return 0;
    long i = 4;
    long o = 0;
    while (req[i] && req[i] != ' ' && o < 500) {
        rawpath[o] = req[i];
        i++; o++;
    }
    rawpath[o] = 0;
    url_decode(path, rawpath);
    mime_type(path);

    char full[512];
    strcpy(full, "/www");
    strcat(full, path);
    int fd = open(full, 0);
    if (fd < 0) {
        strcpy(header, "HTTP/1.0 404 Not Found\r\n\r\n");
        send(conn, header, strlen(header));
        return 0;
    }
    long size = file_size(full);
    sprintf(header,
            "HTTP/1.0 200 OK\r\nContent-Type: %s\r\n"
            "Content-Length: %d\r\nServer: shift-httpd/1.0\r\n\r\n",
            mime, (int)size);
    send(conn, header, strlen(header));
    long sent = 0;
    while (sent < size) {
        int m = read(fd, chunk, 8192);
        if (m <= 0) break;
        send(conn, chunk, m);
        sent += m;
    }
    close(fd);
    log_request(path, (int)size);
    return 1;
}

int main() {
    int served = 0;
    int conn = accept();
    while (conn >= 0) {
        served += handle(conn);
        close(conn);
        conn = accept();
    }
    return served & 127;
}
)MC";

const char *const kHttpdRequest =
    "GET /data.bin HTTP/1.0\r\nHost: bench.example\r\n"
    "User-Agent: ab/2.3\r\nAccept: */*\r\n\r\n";

const char *const kHttpdAttackRequest =
    "GET /../../etc/shadow HTTP/1.0\r\n\r\n";

SessionOptions
httpdSessionOptions(TrackingMode mode, Granularity granularity,
                    CpuFeatures features, ExecEngine engine)
{
    SessionOptions options;
    options.mode = mode;
    options.features = features;
    options.engine = engine;
    options.policy.granularity = granularity;
    options.policy.taintNetwork = true;
    options.policy.taintFile = false; // served content is trusted
    options.policy.h2 = true;         // typical server policy set
    options.policy.h5 = true;
    options.policy.docRoot = "/www";
    options.maxSteps = 20'000'000'000ULL;
    return options;
}

std::string
httpdFileBody(uint64_t fileSize)
{
    std::string body(fileSize, '\0');
    for (uint64_t i = 0; i < fileSize; ++i)
        body[i] = static_cast<char>('A' + (i * 31 + i / 97) % 26);
    return body;
}

void
provisionHttpdOs(Os &os, uint64_t fileSize)
{
    // Server-realistic I/O cost model: syscall-and-copy dominated
    // (real Apache request handling is mostly kernel time).
    Os::Costs &costs = os.costs();
    costs.accept = 45000;
    costs.open = 40000;
    costs.close = 3000;
    costs.ioBase = 18000;
    costs.ioPerByteNum = 1;
    costs.ioPerByteDen = 2;

    os.addFile("/www/data.bin", httpdFileBody(fileSize));
    // The traversal target, so attack requests exercise H2 (a tainted
    // path escaping the doc root) rather than a plain 404.
    os.addFile("/etc/shadow", "root:secret");
}

namespace
{

/** Whether each of the first `count` responses carries the file. */
bool
servedFile(const std::vector<std::string> &responses, size_t count,
           const std::string &body)
{
    if (responses.size() < count)
        return false;
    for (size_t i = 0; i < count; ++i) {
        const std::string &resp = responses[i];
        if (resp.find("200 OK") == std::string::npos ||
            resp.size() <= body.size() ||
            resp.compare(resp.size() - body.size(), body.size(), body))
            return false;
    }
    return true;
}

} // namespace

HttpdRun
runHttpd(const HttpdConfig &config)
{
    Session session(kHttpdSource, config.options);
    provisionHttpdOs(session.os(), config.fileSize);
    for (int i = 0; i < config.requests; ++i)
        session.os().queueConnection(kHttpdRequest);

    HttpdRun run;
    run.result = session.run();
    run.requestsServed = session.os().responses().size();
    run.totalCycles = run.result.cycles;
    run.latencyCycles = static_cast<double>(run.totalCycles) /
                        static_cast<double>(config.requests);
    run.throughput = 1e9 / run.latencyCycles;
    auto requests = static_cast<size_t>(config.requests);
    run.responsesOk = run.result.exited &&
                      run.requestsServed == requests &&
                      servedFile(session.os().responses(), requests,
                                 httpdFileBody(config.fileSize));
    return run;
}

std::unique_ptr<SessionTemplate>
makeHttpdTemplate(const HttpdFleetConfig &config)
{
    auto tmpl = std::make_unique<SessionTemplate>(
        std::string(kHttpdSource), config.options);
    provisionHttpdOs(tmpl->os(), config.fileSize);
    return tmpl;
}

std::vector<svc::FleetJob>
httpdFleetJobs(const HttpdFleetConfig &config)
{
    std::vector<svc::FleetJob> jobs;
    jobs.reserve(static_cast<size_t>(config.jobs));
    for (int j = 0; j < config.jobs; ++j) {
        svc::FleetJob job;
        job.id = j;
        for (int r = 0; r < config.requestsPerJob; ++r)
            job.requests.push_back(kHttpdRequest);
        // Attacks ride last so the clone serves its benign requests
        // before the policy kill terminates it.
        if (j >= config.jobs - config.attackJobs)
            job.requests.push_back(kHttpdAttackRequest);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

HttpdFleetRun
runHttpdFleet(const HttpdFleetConfig &config)
{
    HttpdFleetRun run;
    std::unique_ptr<SessionTemplate> tmpl = makeHttpdTemplate(config);
    tmpl->freeze();

    svc::FleetOptions fleetOptions;
    fleetOptions.workers = config.workers;
    svc::Fleet fleet(*tmpl, fleetOptions);
    run.report = fleet.serve(httpdFleetJobs(config));

    // Validate benign payloads end-to-end, exactly as runHttpd does.
    std::string body = httpdFileBody(config.fileSize);
    run.responsesOk = true;
    for (const svc::FleetJobResult &jr : run.report.jobResults) {
        bool attackJob = jr.id >= config.jobs - config.attackJobs;
        if ((!attackJob && !jr.result.ok()) ||
            !servedFile(jr.responses,
                        static_cast<size_t>(config.requestsPerJob), body)) {
            run.responsesOk = false;
            break;
        }
    }
    return run;
}

} // namespace shift::workloads
