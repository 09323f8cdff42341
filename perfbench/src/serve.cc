/**
 * @file
 * The `serve` workload: open-loop HTTP traffic against an in-process
 * lfm-serve daemon.
 *
 * The target is serve::HttpServer + DetectionService with the daemon
 * defaults (fork sandbox per trace, a journal state dir) except that
 * journal appends are not fsync'd (see Daemon). Load
 * comes from one client process forked before the daemon starts, with
 * at most nproc connections. The client sends on a fixed schedule and
 * times every request from when it was due, not from when a free
 * connection got to it, so a stall shows up in the latency of every
 * request queued behind it; a due request is never dropped, only sent
 * late.
 *
 * The schedule has a low-rate phase, a high-rate phase, and a ladder
 * of rising rates that stops at the first rate missing the p99 limit.
 * The mix: /detect uploads in four formats (LFMT image, v1 text, raw
 * pthread log, small LFMC corpus), a fixed share of byte-identical
 * re-uploads spread over four tenants, and journaled campaign sessions
 * (create, traces, finish, findings). Every findings body is checked
 * against detect::reportsJson computed in-process.
 *
 * The daemon, its sandbox children and the client share one core (see
 * pinToOneCpu()): spread over the machine's cores, every request
 * waited on wake-ups across virtual CPUs, whose cost swung with the
 * load on the host.
 */

#include "workloads.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bugs/registry.hh"
#include "detect/batch.hh"
#include "inputs.hh"
#include "serve/http.hh"
#include "serve/service.hh"
#include "support/journal.hh"
#include "support/random.hh"
#include "trace/binary.hh"
#include "trace/corpus.hh"
#include "trace/replay.hh"
#include "trace/serialize.hh"

namespace perfbench
{

namespace
{

using namespace lfm;

// ------------------------------------------------------------------
// Workload parameters
// ------------------------------------------------------------------

/** Client connections (clamped to nproc). */
constexpr unsigned kConnections = 4;
/** The ladder's latency limit: p95 from the due time. (A p99 with ten
 * samples beyond it needs 1000 requests per rate, more than the run's
 * time allows at these rates; the low and high phases report p99.) */
constexpr double kLimitQuantile = 0.95;
constexpr double kLimitMs = 50.0;
/** Low and high rates, each run for a share of --seconds. */
constexpr double kLoRate = 100.0;
constexpr double kLoShare = 0.45;
constexpr double kHiRate = 300.0;
constexpr double kHiShare = 0.10;
/** The max_rps ladder climbs from the low rate: kLoRate * kStep^k for
 * k >= 1, each rate held for kRungSeconds or kRungRequests requests,
 * whichever is longer, while the planned rungs fit in the rest of
 * --seconds. The high phase runs after the ladder, so its backlog,
 * when the daemon cannot keep up with it, delays no rung. */
constexpr double kStep = 1.5;
constexpr double kLadderShare = 0.10;
constexpr double kRungSeconds = 1.0;
constexpr double kRungRequests = 200;
/** Saturation: kSatPerSecond requests per second of --seconds,
 * offered far faster than the daemon can take them, so every
 * connection is always busy; the completion rate is the daemon's
 * capacity. It moves with the mean cost of a request, where the
 * ladder's limit moves with its rarest stalls. At about 300 requests/s
 * the phase fills a third of --seconds: long enough to average over
 * the host's swings in speed, which last seconds. */
constexpr double kSatRate = 5000.0;
constexpr double kSatPerSecond = 100.0;
constexpr int kTenants = 4;
constexpr double kRepeatShare = 0.25;
constexpr double kSessionShare = 0.02;
/** Format mix of /detect uploads: lfmt, text, raw, lfmc. */
constexpr double kFormatShare[] = {0.35, 0.25, 0.25, 0.15};
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kWarmupRequests = 32;
constexpr double kWarmupRate = 300.0;
constexpr int kRequestTimeoutSec = 30;

enum Format
{
    Lfmt,
    Text,
    Raw,
    Lfmc,
};

/** One scheduled operation. */
struct Item
{
    bool session = false;
    int format = Lfmt;
    /** Body identity within its format; sessions use body and body+1
     * of the LFMT pool. */
    std::uint64_t body = 0;
    int tenant = 0;
    bool repeat = false;
};

struct Phase
{
    std::string name;
    double rate = 0.0;
    std::size_t first = 0;
    std::size_t count = 0;
    bool rung = false;  ///< on the max_rps ladder (lo and the rungs)
};

/** The whole schedule, a pure function of the seed and the run
 * length. The run stops climbing the ladder at the first failing
 * rung. */
struct Plan
{
    std::vector<Phase> phases;
    std::vector<Item> items;
};

Plan
makePlan(std::uint64_t seed, double seconds)
{
    Plan plan;
    support::Rng rng(mix(seed ^ 0x5e77e));
    std::uint64_t fresh[4] = {0, 0, 0, 0};
    auto addPhase = [&](std::string name, double rate, std::size_t count,
                        bool rung) {
        Phase p{std::move(name), rate, plan.items.size(), count, rung};
        for (std::size_t i = 0; i < count; ++i) {
            Item it;
            it.tenant = static_cast<int>(rng.below(kTenants));
            const std::size_t n = plan.items.size();
            if (rng.chance(kSessionShare)) {
                it.session = true;
                it.format = Lfmt;
                it.body = fresh[Lfmt];
                fresh[Lfmt] += 2;
            } else if (n >= 16 && rng.chance(kRepeatShare)) {
                // A byte-identical re-upload of a recent /detect body.
                const Item *src = nullptr;
                while (src == nullptr || src->session)
                    src = &plan.items[n - 1 - rng.below(std::min<std::size_t>(n, 256))];
                it.format = src->format;
                it.body = src->body;
                it.repeat = true;
            } else {
                const double u = rng.uniform();
                double acc = 0.0;
                it.format = Lfmc;
                for (int f = Lfmt; f <= Lfmc; ++f) {
                    acc += kFormatShare[f];
                    if (u < acc) {
                        it.format = f;
                        break;
                    }
                }
                it.body = fresh[it.format]++;
            }
            plan.items.push_back(it);
        }
        plan.phases.push_back(std::move(p));
    };
    addPhase("lo", kLoRate,
             static_cast<std::size_t>(kLoRate * kLoShare * seconds), true);
    double left = seconds * kLadderShare;
    for (int k = 1; left > 0.0; ++k) {
        const double rate = kLoRate * std::pow(kStep, k);
        const double count = std::max(rate * kRungSeconds, kRungRequests);
        left -= count / rate;
        addPhase("rung" + std::to_string(k), rate,
                 static_cast<std::size_t>(count), true);
    }
    addPhase("hi", kHiRate,
             static_cast<std::size_t>(kHiRate * kHiShare * seconds), false);
    addPhase("sat", kSatRate,
             static_cast<std::size_t>(kSatPerSecond * seconds), false);
    return plan;
}

// ------------------------------------------------------------------
// Upload bodies
// ------------------------------------------------------------------

/** Small base traces the LFMT, text and LFMC bodies are cut from. */
std::vector<trace::Trace>
baseTraces(std::uint64_t seed)
{
    std::vector<trace::Trace> bases;
    std::uint64_t n = 0;
    for (const bugs::BugKernel *k : bugs::allKernels())
        for (const bugs::Variant v :
             {bugs::Variant::Buggy, bugs::Variant::Fixed})
            bases.push_back(kernelTrace(*k, v, mix(seed ^ ++n)));
    for (int i = 0; i < 16; ++i)
        bases.push_back(randprogTrace(i % 2 == 1, 10, mix(seed ^ ++n)));
    return bases;
}

/** A distinct trace per body id: a base trace whose first thread
 * carries the id in its name. */
trace::Trace
bodyTrace(const std::vector<trace::Trace> &bases, std::uint64_t seed,
          std::uint64_t id)
{
    trace::Trace t = bases[mix(seed ^ (id * 2 + 1)) % bases.size()];
    t.registerThread(0, "main#" + std::to_string(id));
    return t;
}

/** The bytes of one upload. */
std::string
body(const std::vector<trace::Trace> &bases, std::uint64_t seed,
     int format, std::uint64_t id)
{
    switch (format) {
    case Lfmt:
        return trace::encodeTrace(bodyTrace(bases, seed, id));
    case Text:
        return trace::traceToString(
            bodyTrace(bases, seed, (1ull << 40) + id));
    case Raw:
        return rawLog(2 + static_cast<int>(id % 3), 16,
                      mix(seed ^ ((2ull << 40) + id)));
    default: {
        std::vector<trace::Trace> corpus;
        for (std::uint64_t j = 0; j < 3; ++j)
            corpus.push_back(
                bodyTrace(bases, seed, (3ull << 40) + id * 3 + j));
        return trace::encodeCorpus(corpus);
    }
    }
}

/** The traces the daemon will see in an upload, decoded the way its
 * format sniffing does; empty when the body does not decode. */
std::vector<trace::Trace>
decodeUpload(const std::string &bytes, int format)
{
    std::vector<trace::Trace> out;
    if (format == Lfmt) {
        if (auto t = trace::decodeTrace(bytes.data(), bytes.size()))
            out.push_back(std::move(*t));
    } else if (format == Text) {
        if (auto t = trace::traceFromString(bytes))
            out.push_back(std::move(*t));
    } else if (format == Raw) {
        auto imported = trace::replay::importLogText(bytes, "<upload>");
        if (imported.ok && imported.stats.quarantined == 0 &&
            imported.stats.stalled == 0)
            out.push_back(std::move(imported.trace));
    } else {
        std::vector<std::uint8_t> aligned(bytes.begin(), bytes.end());
        auto reader =
            trace::CorpusReader::fromBuffer(aligned.data(), aligned.size());
        for (std::size_t i = 0; reader && i < reader->traceCount(); ++i)
            if (auto t = reader->decodeAt(i))
                out.push_back(std::move(*t));
    }
    return out;
}

/** Digest of the findings document the daemon must return. */
std::uint64_t
referenceDigest(const detect::Pipeline &pipeline,
                const std::vector<trace::Trace> &traces)
{
    const auto reports = detect::BatchRunner(1).run(pipeline, traces);
    return fnv1a(detect::reportsJson(traces, reports).str() + "\n");
}

// ------------------------------------------------------------------
// Client process
// ------------------------------------------------------------------

/** One request's client-side record (a POD: it crosses a pipe).
 * Times are steady-clock ns, comparable across the two processes. */
struct Record
{
    std::uint64_t item = 0;
    std::int64_t dueNs = 0;
    std::int64_t sendNs = 0;
    std::int64_t connectNs = 0;
    std::int64_t ttfbNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t digest = 0;
    std::uint64_t bytes = 0;  ///< response body bytes
    std::int32_t status = 0;
    std::uint32_t traced = 0;
};

/** What the parent asks the client to do. */
struct Command
{
    std::int32_t phase = -1;  ///< -1: quit; -2: warm-up
    std::uint32_t port = 0;
    std::uint32_t traced = 0;
    std::uint32_t rep = 0;
};

bool
writeAll(int fd, const void *data, std::size_t size)
{
    const char *p = static_cast<const char *>(data);
    while (size > 0) {
        const ssize_t n = ::write(fd, p, size);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
readAll(int fd, void *data, std::size_t size)
{
    char *p = static_cast<char *>(data);
    while (size > 0) {
        const ssize_t n = ::read(fd, p, size);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

/** One blocking HTTP/1.1 exchange on a fresh connection, timed. */
struct Exchange
{
    int status = 0;
    std::string body;
    std::int64_t connectNs = 0;
    std::int64_t ttfbNs = 0;
    std::int64_t endNs = 0;
};

/** Decode a chunked body (trailers ignored); false when malformed. */
bool
dechunk(const std::string &raw, std::string &out)
{
    std::size_t pos = 0;
    while (true) {
        const std::size_t eol = raw.find("\r\n", pos);
        if (eol == std::string::npos)
            return false;
        const std::size_t size =
            std::strtoull(raw.substr(pos, eol - pos).c_str(), nullptr, 16);
        pos = eol + 2;
        if (size == 0)
            return true;
        if (pos + size > raw.size())
            return false;
        out.append(raw, pos, size);
        pos += size + 2;
    }
}

Exchange
exchange(std::uint16_t port, const std::string &method,
         const std::string &target, const std::string &body,
         const std::vector<std::pair<std::string, std::string>> &headers)
{
    Exchange ex;
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return ex;
    timeval tv{kRequestTimeoutSec, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        return ex;
    }
    ex.connectNs = nowNs();
    std::string req = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    for (const auto &[k, v] : headers)
        req += k + ": " + v + "\r\n";
    req += "Content-Length: " + std::to_string(body.size()) +
           "\r\nConnection: close\r\n\r\n";
    req += body;
    std::string raw;
    if (writeAll(fd, req.data(), req.size())) {
        char buf[16384];
        while (true) {
            const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            if (raw.empty())
                ex.ttfbNs = nowNs();
            raw.append(buf, static_cast<std::size_t>(n));
        }
    }
    ex.endNs = nowNs();
    ::close(fd);

    const std::size_t headEnd = raw.find("\r\n\r\n");
    if (raw.rfind("HTTP/1.1 ", 0) != 0 || headEnd == std::string::npos)
        return ex;
    const std::string head = raw.substr(0, headEnd);
    std::string lower = head;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    std::string payload = raw.substr(headEnd + 4);
    if (lower.find("transfer-encoding: chunked") != std::string::npos) {
        if (!dechunk(payload, ex.body))
            return ex;
    } else {
        ex.body = std::move(payload);
    }
    ex.status = std::atoi(raw.c_str() + 9);
    return ex;
}

/**
 * The load generator. Runs in its own process; `connections` threads
 * take scheduled items in order, sleep until each is due, and send it
 * on a fresh connection. A thread that is already late sends at once.
 */
class Client
{
  public:
    Client(std::uint64_t seed, const Plan &plan, unsigned connections)
        : seed_(seed), plan_(plan), connections_(connections),
          bases_(baseTraces(seed))
    {
    }

    std::vector<Record>
    runPhase(const Command &cmd)
    {
        std::vector<std::uint64_t> items;
        double rate = 0.0;
        if (cmd.phase == -2) {
            for (std::size_t i = 0; i < kWarmupRequests; ++i)
                items.push_back(i);
            rate = kWarmupRate;
        } else {
            const Phase &p = plan_.phases[static_cast<std::size_t>(cmd.phase)];
            for (std::size_t i = 0; i < p.count; ++i)
                items.push_back(p.first + i);
            rate = p.rate;
        }
        // Bodies are built before the clock starts.
        std::vector<std::string> bodies(items.size());
        for (std::size_t i = 0; i < items.size(); ++i) {
            const Item &it = plan_.items[items[i]];
            if (!it.session)
                bodies[i] = body(bases_, seed_, it.format, it.body);
        }
        std::vector<Record> records(items.size());
        std::atomic<std::size_t> next{0};
        const std::int64_t t0 = nowNs() + 20'000'000;
        auto worker = [&] {
            while (true) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= items.size())
                    return;
                Record &r = records[i];
                r.item = items[i];
                r.dueNs = t0 + static_cast<std::int64_t>(
                                   static_cast<double>(i) * 1e9 / rate);
                const std::int64_t wait = r.dueNs - nowNs();
                if (wait > 0)
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(wait));
                r.traced = cmd.traced != 0 && i % 2 == 1 ? 1 : 0;
                send(r, plan_.items[items[i]], bodies[i], cmd);
            }
        };
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < connections_; ++c)
            threads.emplace_back(worker);
        for (auto &t : threads)
            t.join();
        return records;
    }

  private:
    void
    send(Record &r, const Item &it, const std::string &bytes,
         const Command &cmd)
    {
        const std::string id =
            std::to_string(cmd.rep) + "-" + std::to_string(r.item);
        std::vector<std::pair<std::string, std::string>> headers = {
            {"X-LFM-Tenant", "tenant-" + std::to_string(it.tenant)},
            {"X-Bench-Request", id},
            {"X-Bench-Trace", r.traced != 0 ? "1" : "0"}};
        r.sendNs = nowNs();
        if (!it.session) {
            const Exchange ex =
                exchange(static_cast<std::uint16_t>(cmd.port), "POST",
                         "/detect", bytes, headers);
            r.connectNs = ex.connectNs;
            r.ttfbNs = ex.ttfbNs;
            r.endNs = ex.endNs;
            r.status = ex.status;
            r.digest = fnv1a(ex.body);
            r.bytes = ex.body.size();
            return;
        }
        // A journaled campaign session: create, two trace uploads,
        // finish, then read the findings back.
        const std::string base = "/campaigns/s" + id;
        const std::uint16_t port = static_cast<std::uint16_t>(cmd.port);
        Exchange ex = exchange(port, "POST", base, "", headers);
        r.connectNs = ex.connectNs;
        r.ttfbNs = ex.ttfbNs;
        int status = ex.status;
        for (std::uint64_t j = 0; j < 2 && status == 200; ++j)
            status = exchange(port, "POST", base + "/traces",
                              body(bases_, seed_, Lfmt, it.body + j),
                              headers)
                         .status;
        if (status == 200)
            status = exchange(port, "POST", base + "/finish", "", headers)
                         .status;
        if (status == 200) {
            ex = exchange(port, "GET", base + "/findings", "", headers);
            status = ex.status;
            r.digest = fnv1a(ex.body);
            r.bytes = ex.body.size();
        }
        r.status = status;
        r.endNs = nowNs();
    }

    std::uint64_t seed_;
    const Plan &plan_;
    unsigned connections_;
    std::vector<trace::Trace> bases_;
};

/** The forked client process and the two pipes to it. */
class ClientProcess
{
  public:
    ClientProcess(std::uint64_t seed, const Plan &plan, unsigned connections)
    {
        int toChild[2];
        int fromChild[2];
        if (::pipe2(toChild, O_CLOEXEC) != 0)
            return;
        if (::pipe2(fromChild, O_CLOEXEC) != 0) {
            ::close(toChild[0]);
            ::close(toChild[1]);
            return;
        }
        pid_ = ::fork();
        if (pid_ == 0) {
            ::close(toChild[1]);
            ::close(fromChild[0]);
            serveCommands(toChild[0], fromChild[1], seed, plan,
                          connections);
            ::_exit(0);
        }
        ::close(toChild[0]);
        ::close(fromChild[1]);
        if (pid_ < 0) {
            ::close(toChild[1]);
            ::close(fromChild[0]);
            return;
        }
        cmdFd_ = toChild[1];
        resultFd_ = fromChild[0];
    }

    ~ClientProcess()
    {
        if (pid_ <= 0)
            return;
        Command quit;
        writeAll(cmdFd_, &quit, sizeof quit);
        ::close(cmdFd_);
        ::close(resultFd_);
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
    }

    ClientProcess(const ClientProcess &) = delete;
    ClientProcess &operator=(const ClientProcess &) = delete;

    bool ok() const { return pid_ > 0; }

    /** Run one phase; nullopt when the client died. */
    std::optional<std::vector<Record>>
    run(const Command &cmd)
    {
        if (!writeAll(cmdFd_, &cmd, sizeof cmd))
            return std::nullopt;
        std::uint64_t n = 0;
        if (!readAll(resultFd_, &n, sizeof n))
            return std::nullopt;
        std::vector<Record> records(n);
        if (n > 0 && !readAll(resultFd_, records.data(), n * sizeof(Record)))
            return std::nullopt;
        return records;
    }

  private:
    static void
    serveCommands(int cmdFd, int resultFd, std::uint64_t seed,
                  const Plan &plan, unsigned connections)
    {
        Client client(seed, plan, connections);
        Command cmd;
        while (readAll(cmdFd, &cmd, sizeof cmd) && cmd.phase != -1) {
            const auto records = client.runPhase(cmd);
            const std::uint64_t n = records.size();
            if (!writeAll(resultFd, &n, sizeof n) ||
                !writeAll(resultFd, records.data(), n * sizeof(Record)))
                return;
        }
    }

    pid_t pid_ = -1;
    int cmdFd_ = -1;
    int resultFd_ = -1;
};

// ------------------------------------------------------------------
// The daemon under test
// ------------------------------------------------------------------

/** Server-side span of one traced request. */
struct Handled
{
    std::string id;
    double ms = 0.0;
};

/** DetectionService + HttpServer as lfm_served --no-fsync runs them,
 * except that the metrics registry lfm_served turns on stays off (see
 * perfbench/README.md), behind a handler wrapper owned by the
 * benchmark that times handle(). */
class Daemon
{
  public:
    explicit Daemon(const std::string &stateDir)
    {
        serve::ServiceOptions options;
        options.stateDir = stateDir;
        options.sandbox.policy = support::SandboxPolicy::Fork;
        // lfm_served --no-fsync: the journal is still written, and
        // survives a killed daemon, but is not flushed to the disk.
        // With a flush per record the workload timed the host disk,
        // whose flush latency moved the capacity between 106 and 468
        // requests/s from one run to the next.
        options.journalFsync = false;
        service_ = std::make_unique<serve::DetectionService>(pipeline_,
                                                             options);
        service_->recover();
        serve::HttpHandler inner = service_->handler();
        server_ = std::make_unique<serve::HttpServer>(
            [this, inner](const serve::HttpRequest &req,
                          serve::ResponseWriter &w) {
                const std::string *flag = req.header("x-bench-trace");
                if (flag == nullptr || *flag != "1")
                    return inner(req, w);
                const std::string *id = req.header("x-bench-request");
                Tracer::setThread(true);
                Tracer::setGroup(fnv1a(id != nullptr ? *id : ""));
                const std::int64_t t0 = nowNs();
                {
                    Span span("serve.handle");
                    inner(req, w);
                }
                const double ms = msBetween(t0, nowNs());
                Tracer::setThread(false);
                std::lock_guard lock(m_);
                handled_.push_back({id != nullptr ? *id : "", ms});
            });
    }

    ~Daemon()
    {
        if (server_)
            server_->drain();
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool start() { return server_->start(); }
    std::uint16_t port() const { return server_->port(); }

    std::vector<Handled>
    handled()
    {
        std::lock_guard lock(m_);
        return handled_;
    }

  private:
    detect::Pipeline pipeline_;
    std::mutex m_;
    std::vector<Handled> handled_;
    std::unique_ptr<serve::DetectionService> service_;
    // Last: its connection threads use everything above.
    std::unique_ptr<serve::HttpServer> server_;
};

/** A count from the /healthz document, -1 when absent. */
double
healthCount(const std::string &doc, const std::string &key)
{
    const std::size_t at = doc.find("\"" + key + "\"");
    if (at == std::string::npos)
        return -1.0;
    const std::size_t colon = doc.find(':', at);
    return colon == std::string::npos
               ? -1.0
               : std::strtod(doc.c_str() + colon + 1, nullptr);
}

/** Latency samples of one phase, split by what they measure. */
struct PhaseStats
{
    std::vector<double> fromDue;     ///< /detect, due -> last byte
    std::vector<double> fromSend;    ///< /detect, send -> last byte
    std::vector<double> tracedSend;  ///< fromSend of traced requests
    std::vector<double> plainSend;   ///< fromSend of untraced requests
    std::vector<double> sessions;    ///< due -> findings received
    std::vector<double> lag;         ///< send - due
    double lastLagMs = 0.0;
    std::int64_t firstSendNs = 0;
    std::int64_t lastEndNs = 0;

    /** Requests completed per second of the phase's busy span. */
    double
    completionRate() const
    {
        const double n = static_cast<double>(lag.size());
        return lastEndNs > firstSendNs
                   ? n * 1e9 / static_cast<double>(lastEndNs - firstSendNs)
                   : 0.0;
    }
};

} // namespace

Result
runServe(const RunConfig &cfg)
{
    Result res;
    const Plan plan = makePlan(cfg.seed, cfg.reduced ? 2.0 : cfg.seconds);
    const unsigned connections = std::min(kConnections, hostThreads());
    res.check(pinToOneCpu(), "serve: cannot pin to one CPU");
    // Forked before any daemon thread exists.
    ClientProcess client(cfg.seed, plan, connections);
    res.check(client.ok(), "serve: cannot fork the client process");
    if (!client.ok())
        return res;

    // Set-up: build the base traces, start the daemon on a fresh
    // state dir, warm up; repeated, keeping the last daemon.
    std::vector<double> setups;
    std::unique_ptr<Daemon> daemon;
    std::vector<trace::Trace> bases;
    const std::string stateDir = cfg.workDir + "/serve-state";
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
        daemon.reset();
        removeTree(stateDir);
        const std::int64_t t0 = nowNs();
        bases = baseTraces(cfg.seed);
        makeDirs(stateDir);
        daemon = std::make_unique<Daemon>(stateDir);
        res.check(daemon->start(), "serve: daemon did not start");
        Command warm;
        warm.phase = -2;
        warm.port = daemon->port();
        warm.rep = static_cast<std::uint32_t>(rep);
        const auto records = client.run(warm);
        setups.push_back(msBetween(t0, nowNs()) / 1000.0);
        bool ok = records.has_value();
        for (const Record &r : records.value_or(std::vector<Record>{}))
            ok = ok && r.status == 200;
        res.check(ok, "serve: warm-up requests failed");
    }

    // Phases: lo, the ladder until a rung misses the limit, hi, sat.
    // The reference for every body: what detect::reportsJson makes of
    // the traces the daemon will decode from it.
    struct Expected
    {
        std::uint64_t digest = 0;
        std::uint64_t traces = 0;
        std::uint64_t events = 0;
        std::uint64_t bytes = 0;
    };
    const detect::Pipeline pipeline;
    std::map<std::pair<int, std::uint64_t>, Expected> expected;
    auto expect = [&](const Item &it) -> const Expected & {
        const auto key = std::make_pair(it.session ? -1 : it.format, it.body);
        auto found = expected.find(key);
        if (found != expected.end())
            return found->second;
        Expected e;
        std::vector<trace::Trace> traces;
        for (std::uint64_t j = 0; j < (it.session ? 2 : 1); ++j) {
            const int format = it.session ? Lfmt : it.format;
            const std::string bytes = body(bases, cfg.seed, format, it.body + j);
            e.bytes += bytes.size();
            for (auto &t : decodeUpload(bytes, format))
                traces.push_back(std::move(t));
        }
        e.traces = traces.size();
        for (const auto &t : traces)
            e.events += t.size();
        e.digest = traces.empty() ? 0 : referenceDigest(pipeline, traces);
        return expected.emplace(key, e).first->second;
    };

    // Every reference up front, before the first timed phase: done
    // between phases, that work grew this process's heap, which every
    // sandbox fork copies, while the run went on.
    for (const Item &it : plan.items)
        expect(it);

    std::map<std::string, PhaseStats> stats;
    std::vector<Record> loRecords;  ///< /detect records of the lo phase
    std::vector<double> rungRate;
    std::vector<double> rungLimitQ;
    std::map<int, std::vector<double>> byFormat;
    std::size_t sent = 0;
    std::size_t repeats = 0;
    std::size_t detects = 0;
    std::uint64_t uploadedTraces = 0;
    std::uint64_t uploadedEvents = 0;
    std::uint64_t responseBytes = 0;
    std::vector<double> uploadBytes;
    bool climbing = true;
    for (std::size_t ph = 0; ph < plan.phases.size(); ++ph) {
        const Phase &phase = plan.phases[ph];
        if (phase.rung && !climbing)
            continue;
        Command cmd;
        cmd.phase = static_cast<std::int32_t>(ph);
        cmd.port = daemon->port();
        cmd.traced = cfg.trace ? 1 : 0;
        cmd.rep = static_cast<std::uint32_t>(kSetupReps);
        const auto records = client.run(cmd);
        res.check(records.has_value(), "serve: client process died");
        if (!records)
            break;
        PhaseStats ps;
        for (const Record &r : *records) {
            const Item &it = plan.items[r.item];
            const Expected &e = expect(it);
            const bool ok = r.status == 200 && r.digest == e.digest;
            uploadedTraces += e.traces;
            uploadedEvents += e.events;
            responseBytes += r.bytes;
            uploadBytes.push_back(static_cast<double>(e.bytes));
            res.check(ok, "serve: item " + std::to_string(r.item) +
                              (it.session ? " (session)" : " (/detect)") +
                              " status " + std::to_string(r.status) +
                              (r.status == 200 ? ", findings differ" : ""));
            // A failed request misses any latency limit.
            const double fromDue =
                ok ? msBetween(r.dueNs, r.endNs) : 1e9;
            ps.lag.push_back(msBetween(r.dueNs, r.sendNs));
            ps.firstSendNs = ps.firstSendNs == 0
                                 ? r.sendNs
                                 : std::min(ps.firstSendNs, r.sendNs);
            ps.lastEndNs = std::max(ps.lastEndNs, r.endNs);
            if (r.item + 1 == phase.first + phase.count)
                ps.lastLagMs = msBetween(r.dueNs, r.sendNs);
            ++sent;
            if (it.session) {
                ps.sessions.push_back(fromDue);
                continue;
            }
            ++detects;
            repeats += it.repeat ? 1 : 0;
            ps.fromDue.push_back(fromDue);
            const double fromSend = msBetween(r.sendNs, r.endNs);
            ps.fromSend.push_back(fromSend);
            (r.traced != 0 ? ps.tracedSend : ps.plainSend)
                .push_back(fromSend);
            if (phase.name == "lo" || phase.name == "hi")
                byFormat[it.format].push_back(fromSend);
            if (phase.name == "lo")
                loRecords.push_back(r);
        }
        const double limitQ =
            percentile(ps.fromDue, std::min(kLimitQuantile,
                                            tailQuantile(ps.fromDue.size(),
                                                         kLimitQuantile)));
        const bool pass = limitQ <= kLimitMs && ps.lastLagMs <= kLimitMs;
        res.notes["phase." + phase.name] =
            std::to_string(phase.rate) + " rps, n " +
            std::to_string(records->size()) + ", p50 " +
            std::to_string(median(ps.fromDue)) + " ms, p95 " +
            std::to_string(limitQ) + " ms, p99 " +
            std::to_string(percentile(ps.fromDue, 0.99)) +
            " ms, end lag " + std::to_string(ps.lastLagMs) + " ms";
        if (ph == 0) {
            // The low phase always runs in full: its reference
            // documents are a pure function of the seed.
            std::uint64_t digest = fnv1a("");
            for (const Record &r : *records)
                digest = fnv1a(hex64(expect(plan.items[r.item]).digest),
                               digest);
            res.exact["lo.requests"] = std::to_string(records->size());
            res.exact["lo.findings_digest"] = hex64(digest);
        }
        stats[phase.name] = std::move(ps);
        if (phase.rung) {
            rungRate.push_back(phase.rate);
            rungLimitQ.push_back(limitQ);
            climbing = pass;
        }
    }

    // max_rps: the highest passing rate, refined by linear
    // interpolation of the limit percentile toward the first failing
    // rate so the figure is not quantised to the ladder.
    double maxRps = 0.0;
    for (std::size_t k = 0; k < rungRate.size(); ++k) {
        if (rungLimitQ[k] > kLimitMs) {
            if (k > 0 && rungLimitQ[k] > rungLimitQ[k - 1])
                maxRps = rungRate[k - 1] +
                         (rungRate[k] - rungRate[k - 1]) *
                             (kLimitMs - rungLimitQ[k - 1]) /
                             (rungLimitQ[k] - rungLimitQ[k - 1]);
            break;
        }
        maxRps = rungRate[k];
    }
    res.notes["max_rps"] = std::to_string(maxRps);
    res.notes["requests"] = std::to_string(sent);
    res.notes["input.repeat_share"] = std::to_string(
        detects == 0 ? 0.0 : static_cast<double>(repeats) / detects);
    res.notes["input.session_share"] = std::to_string(
        sent == 0 ? 0.0 : static_cast<double>(sent - detects) / sent);
    res.notes["input.upload_bytes_p50_p90_max"] = distribution(uploadBytes);
    res.notes["input.uploaded_traces"] = std::to_string(uploadedTraces);
    res.notes["input.uploaded_events"] = std::to_string(uploadedEvents);
    {
        // Format shares of the /detect uploads of the lo and hi phases.
        double total = 0.0;
        for (const auto &[format, samples] : byFormat)
            total += static_cast<double>(samples.size());
        for (const auto &[format, samples] : byFormat)
            res.notes[std::string("input.share_") + kFormats[format]] =
                std::to_string(static_cast<double>(samples.size()) / total);
    }

    const serve::ClientResponse health =
        serve::httpRequest(daemon->port(), "GET", "/healthz");
    const std::vector<Handled> handled = daemon->handled();
    const std::string journal = stateDir + "/serve.journal";
    const auto recovered = support::recoverJournal(journal);
    const double journalBytes = static_cast<double>(dirBytes(stateDir));
    daemon.reset();

    const PhaseStats &lo = stats["lo"];
    const PhaseStats &hi = stats["hi"];
    const double capacity = stats["sat"].completionRate();
    res.notes["capacity_rps"] = std::to_string(capacity);
    if (!cfg.trace) {
        res.set("setup_s", median(setups), "s");
        res.set("peak_rss_mb", peakRssMb(), "MiB");
        res.set("throughput_per_s", capacity, "1/s");
        res.set("p50_ms", median(lo.fromDue), "ms");
        // p90, not p99: at the low rate one stall of the host delays
        // the dozen requests queued behind it, which moved p99 two-fold
        // and p95 by a third between runs; serve.p99_ms_lo reports p99
        // per layer.
        const double q = tailQuantile(lo.fromDue.size(), 0.90);
        res.set("tail_ms", percentile(lo.fromDue, q), "ms");
        res.notes["tail_quantile"] = std::to_string(q);
        return res;
    }

    // The request path is broken down on the lo phase, where no
    // queue hides it.
    LayerMetrics layers;
    std::map<std::string, double> handleById;
    for (const Handled &h : handled)
        handleById[h.id] = h.ms;
    std::vector<double> handleMs;
    std::vector<double> httpMs;
    std::vector<double> connectMs;
    std::vector<double> ttfbMs;
    for (const Record &r : loRecords) {
        connectMs.push_back(msBetween(r.sendNs, r.connectNs));
        ttfbMs.push_back(msBetween(r.sendNs, r.ttfbNs));
        // The request id the client sent: "<rep>-<item>".
        auto it = handleById.find(std::to_string(kSetupReps) + "-" +
                                  std::to_string(r.item));
        if (r.traced == 0 || it == handleById.end())
            continue;
        handleMs.push_back(it->second);
        httpMs.push_back(msBetween(r.sendNs, r.endNs) - it->second);
    }
    layers.serveHandleP50 = median(handleMs);
    layers.serveHandleP99 =
        percentile(handleMs, tailQuantile(handleMs.size(), 0.99));
    layers.serveHttpP50 = median(httpMs);
    layers.serveConnectP50 = median(connectMs);
    layers.serveTtfbP50 = median(ttfbMs);
    for (const auto &[format, samples] : byFormat)
        layers.serveFormatP50[kFormats[format]] = median(samples);
    layers.serveAdmitted = healthCount(health.body, "admitted");
    layers.serveRejected = healthCount(health.body, "rejected");
    std::vector<double> lags = lo.lag;
    lags.insert(lags.end(), hi.lag.begin(), hi.lag.end());
    layers.serveGenLagP99 = percentile(lags, tailQuantile(lags.size(), 0.99));
    layers.serveRepeatShare =
        detects == 0 ? 0.0
                     : static_cast<double>(repeats) /
                           static_cast<double>(detects);
    layers.serveP50Lo = median(lo.fromDue);
    layers.serveP99Lo =
        percentile(lo.fromDue, tailQuantile(lo.fromDue.size(), 0.99));
    layers.serveP50Hi = median(hi.fromDue);
    layers.serveMaxRps = maxRps;
    layers.serveP99Hi =
        percentile(hi.fromDue, tailQuantile(hi.fromDue.size(), 0.99));
    layers.serveSessionP50 = median(lo.sessions);
    layers.journalRecords = static_cast<double>(recovered.records.size());
    layers.traceTraces = static_cast<double>(uploadedTraces);
    layers.traceEvents = static_cast<double>(uploadedEvents);
    layers.reportDocBytes = static_cast<double>(responseBytes);
    layers.journalBytes = journalBytes;
    layers.overheadP50Pct =
        overheadPct(median(lo.plainSend), median(lo.tracedSend));
    layers.emit(res);
    return res;
}

} // namespace perfbench
