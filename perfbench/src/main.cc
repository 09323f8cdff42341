/**
 * @file
 * lfm_perfbench: the end-to-end benchmark's workload runner.
 *
 *     lfm_perfbench --workload hunt|scan|serve --seed N --seconds S
 *                   --trace 0|1 [--reduced]
 *
 * Runs one workload, checks its outputs, and prints one JSON object
 * as the last line of stdout: {"correct", "attempted", "failed",
 * "metrics"}. Untraced runs report the end-to-end metrics, traced
 * runs the per-layer metrics. Notes, failed checks and the exact
 * seed-determined counts ("exact: {...}") go to stderr; a traced run
 * also writes its spans to .bench_work/spans-<workload>.json. Exit
 * status is 0 when every check passed, 1 when any failed, 2 on bad
 * usage.
 *
 * perfbench/run.py builds this binary and is the command to use.
 */

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string>

#include <sys/resource.h>
#include <unistd.h>

#include "workloads.hh"

namespace perfbench
{

namespace
{

/** Nice value of the benchmark process and everything it starts. */
constexpr int kPriority = -20;

} // namespace

double
overheadPct(double untraced, double traced)
{
    if (untraced <= 0.0 || traced <= 0.0)
        return 0.0;
    return (traced - untraced) / untraced * 100.0;
}

void
LayerMetrics::emit(Result &res) const
{
    res.set("sim.decisions", simDecisions, "count");
    res.set("sim.replay_ms", simReplayMs, "ms");
    res.set("sim.ns_per_decision", simNsPerDecision, "ns");
    res.set("explore.stress_ms", exploreStressMs, "ms");
    res.set("explore.runs", exploreRuns, "count");
    res.set("explore.manifest_ratio", exploreManifestRatio, "ratio");
    res.set("explore.truncated_runs", exploreTruncatedRuns, "count");
    res.set("support.shard_spawns", shardSpawns, "count");
    res.set("support.shard_retries", shardRetries, "count");
    res.set("support.journal_records", journalRecords, "count");
    res.set("support.journal_bytes", journalBytes, "B");
    res.set("support.pool_executed", poolExecuted, "count");
    res.set("support.pool_stolen", poolStolen, "count");
    res.set("support.pool_parks", poolParks, "count");
    res.set("trace.open_ms", traceOpenMs, "ms");
    res.set("trace.view_ms", traceViewMs, "ms");
    res.set("trace.corpus_bytes", traceCorpusBytes, "B");
    res.set("trace.events", traceEvents, "count");
    res.set("trace.traces", traceTraces, "count");
    res.set("detect.context_ms", detectContextMs, "ms");
    for (const auto &name : detectorNames()) {
        auto ms = detectorMs.find(name);
        res.set("detect." + name + "_ms",
                ms == detectorMs.end() ? 0.0 : ms->second, "ms");
        auto n = findings.find(name);
        res.set("detect.findings." + name,
                n == findings.end() ? 0.0 : n->second, "count");
    }
    res.set("detect.batch_ms", detectBatchMs, "ms");
    res.set("detect.clean_share", detectCleanShare, "ratio");
    res.set("report.json_ms", reportJsonMs, "ms");
    res.set("report.sarif_ms", reportSarifMs, "ms");
    res.set("report.doc_bytes", reportDocBytes, "B");
    res.set("serve.handle_ms_p50", serveHandleP50, "ms");
    res.set("serve.handle_ms_p99", serveHandleP99, "ms");
    res.set("serve.http_ms_p50", serveHttpP50, "ms");
    res.set("serve.connect_ms_p50", serveConnectP50, "ms");
    res.set("serve.ttfb_ms_p50", serveTtfbP50, "ms");
    for (const char *format : kFormats) {
        auto it = serveFormatP50.find(format);
        res.set(std::string("serve.") + format + "_ms_p50",
                it == serveFormatP50.end() ? 0.0 : it->second, "ms");
    }
    res.set("serve.admitted", serveAdmitted, "count");
    res.set("serve.rejected", serveRejected, "count");
    res.set("serve.gen_lag_ms_p99", serveGenLagP99, "ms");
    res.set("serve.repeat_share", serveRepeatShare, "ratio");
    res.set("serve.p50_ms_lo", serveP50Lo, "ms");
    res.set("serve.p99_ms_lo", serveP99Lo, "ms");
    res.set("serve.p50_ms_hi", serveP50Hi, "ms");
    res.set("serve.p99_ms_hi", serveP99Hi, "ms");
    res.set("serve.session_ms_p50", serveSessionP50, "ms");
    res.set("serve.max_rps", serveMaxRps, "1/s");
    res.set("overhead.p50_pct", overheadP50Pct, "%");
}

} // namespace perfbench

namespace
{

int
usage()
{
    std::cerr << "usage: lfm_perfbench --workload hunt|scan|serve "
                 "--seed N --seconds S --trace 0|1 [--reduced]\n";
    return 2;
}

/** Shortest decimal that reads back as exactly `v`. */
std::string
number(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

bool
parseU64(const char *text, std::uint64_t &out)
{
    const std::string s = text;
    const auto r = std::from_chars(s.data(), s.data() + s.size(), out);
    return r.ec == std::errc() && r.ptr == s.data() + s.size() &&
           !s.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunConfig cfg;
    cfg.workDir = ".bench_work";
    std::string workload;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        std::uint64_t u = 0;
        if (arg == "--workload" && hasValue) {
            workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            if (!parseU64(argv[++i], cfg.seed))
                return usage();
        } else if (arg == "--seconds" && hasValue) {
            if (!parseU64(argv[++i], u) || u == 0)
                return usage();
            cfg.seconds = static_cast<double>(u);
        } else if (arg == "--trace" && hasValue) {
            if (!parseU64(argv[++i], u) || u > 1)
                return usage();
            cfg.trace = u == 1;
        } else if (arg == "--reduced") {
            cfg.reduced = true;
        } else {
            return usage();
        }
    }

    Result (*run)(const RunConfig &) = nullptr;
    if (workload == "hunt")
        run = runHunt;
    else if (workload == "scan")
        run = runScan;
    else if (workload == "serve")
        run = runServe;
    else
        return usage();

    // Write back whatever earlier work left dirty (a build, the last
    // run's files) now, not inside this run's fsyncs.
    ::sync();
    // Every workload runs on one core (pinToOneCpu()); at the default
    // priority any other busy process on that core took half of it,
    // which doubled serve's latencies and multiplied its set-up time
    // by seventeen. Threads and processes started later inherit this.
    if (::setpriority(PRIO_PROCESS, 0, kPriority) != 0)
        std::cerr << "note: priority = default (cannot raise it)\n";

    const std::string spansPath =
        cfg.workDir + "/spans-" + workload + ".json";
    cfg.workDir += "/" + workload + "-" + std::to_string(::getpid());
    if (!makeDirs(cfg.workDir)) {
        std::cerr << "lfm_perfbench: cannot create " << cfg.workDir
                  << "\n";
        return 2;
    }
    Result res = run(cfg);
    removeTree(cfg.workDir);
    if (cfg.trace && !writeSpans(Tracer::instance().collect(), spansPath))
        std::cerr << "lfm_perfbench: cannot write " << spansPath << "\n";
    if (!cfg.trace && res.attempted > 0)
        res.set("ok_frac",
                1.0 - static_cast<double>(res.failed) /
                          static_cast<double>(res.attempted),
                "ratio");

    for (const auto &[key, value] : res.notes)
        std::cerr << "note: " << key << " = " << value << "\n";
    for (const auto &failure : res.failures)
        std::cerr << "FAILED: " << failure << "\n";
    std::string exact = "{";
    for (const auto &[key, value] : res.exact)
        exact += (exact.size() > 1 ? ", " : "") + quoted(key) + ": " +
                 quoted(value);
    std::cerr << "exact: " << exact << "}\n";

    const bool correct = res.failed == 0 && res.attempted > 0;
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(res.attempted);
    line += ", \"failed\": " + std::to_string(res.failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : res.metrics) {
        line += (first ? "" : ", ") + quoted(name) + ": {\"value\": " +
                number(metric.value) +
                ", \"unit\": " + quoted(metric.unit) + "}";
        first = false;
    }
    line += "}}";
    std::cout << line << std::endl;
    return correct ? 0 : 1;
}
