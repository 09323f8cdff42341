/**
 * @file
 * The `scan` workload: repeated batch analysis of one LFMC corpus on
 * disk.
 *
 * Each pass opens the corpus (mmap), analyzes every trace with
 * detect::BatchRunner over zero-copy views, and emits the findings as
 * reportsJson and reportsSarif. The corpus mixes kernel executions
 * (buggy and fixed), randprog executions with a race-free share,
 * imported raw pthread logs, and long hot/wide synthetic traces; every
 * trace is distinct and the corpus is larger than the host's L2. The
 * path has no `sim`, `explore` or `serve` on it: `trace`, `detect` and
 * `report` do the work.
 */

#include "workloads.hh"

#include "bugs/registry.hh"
#include "detect/batch.hh"
#include "detect/context.hh"
#include "inputs.hh"
#include "support/json.hh"
#include "trace/corpus.hh"
#include "trace/replay.hh"

namespace perfbench
{

namespace
{

using namespace lfm;

/** What each corpus entry is, for the checks and --describe. */
enum class Kind
{
    KernelBuggy,
    KernelFixed,
    Randprog,
    RandprogRaceFree,
    RawLog,
    Hot,
    Wide,
};

struct Corpus
{
    std::vector<trace::Trace> traces;
    std::vector<Kind> kinds;
    std::size_t importQuarantined = 0;
};

struct Sizes
{
    std::size_t kernelSeeds;  ///< per kernel variant
    std::size_t randprog;     ///< per flavour (racy, race-free)
    int randprogOps;
    std::size_t rawLogs;
    int rawOps;
    std::size_t synthetic;    ///< per shape (hot, wide)
    std::size_t syntheticEvents;
};

constexpr Sizes kFull{6, 16, 40, 48, 120, 24, 4096};
constexpr Sizes kReduced{1, 4, 12, 6, 20, 2, 512};
/** Set-up repetitions (about a third of a second each). */
constexpr int kSetupReps = 9;

Corpus
buildCorpus(std::uint64_t seed, const Sizes &sz)
{
    Corpus c;
    auto add = [&c](trace::Trace t, Kind k) {
        c.traces.push_back(std::move(t));
        c.kinds.push_back(k);
    };
    std::uint64_t n = 0;
    for (const bugs::BugKernel *k : bugs::allKernels())
        for (std::size_t i = 0; i < sz.kernelSeeds; ++i) {
            add(kernelTrace(*k, bugs::Variant::Buggy, mix(seed ^ ++n)),
                Kind::KernelBuggy);
            add(kernelTrace(*k, bugs::Variant::Fixed, mix(seed ^ ++n)),
                Kind::KernelFixed);
        }
    for (std::size_t i = 0; i < sz.randprog; ++i) {
        add(randprogTrace(false, sz.randprogOps, mix(seed ^ ++n)),
            Kind::Randprog);
        add(randprogTrace(true, sz.randprogOps, mix(seed ^ ++n)),
            Kind::RandprogRaceFree);
    }
    for (std::size_t i = 0; i < sz.rawLogs; ++i) {
        auto imported = trace::replay::importLogText(
            rawLog(3 + static_cast<int>(i % 4), sz.rawOps,
                   mix(seed ^ ++n)),
            "raw-" + std::to_string(i));
        c.importQuarantined +=
            imported.stats.quarantined + imported.stats.stalled;
        add(std::move(imported.trace), Kind::RawLog);
    }
    for (std::size_t i = 0; i < sz.synthetic; ++i) {
        add(hotTrace(sz.syntheticEvents, mix(seed ^ ++n)), Kind::Hot);
        add(wideTrace(sz.syntheticEvents, mix(seed ^ ++n)), Kind::Wide);
    }
    return c;
}

/** One pass's outputs. */
struct Pass
{
    std::vector<detect::TraceReport> reports;
    std::string json;
    std::string sarif;
    double ms = 0.0;
    bool opened = false;
};

/** Open the corpus at `path`, analyze it and emit both documents;
 * the digest of the two documents, 0 when the corpus does not open. */
std::uint64_t
scanDigest(const std::string &path, const detect::BatchRunner &batch,
           const detect::Pipeline &pipeline)
{
    auto reader = trace::CorpusReader::open(path);
    if (!reader)
        return 0;
    const auto reports = batch.run(pipeline, *reader);
    return fnv1a(detect::reportsSarif(*reader, reports).str(),
                 fnv1a(detect::reportsJson(*reader, reports).str()));
}

/** Digest of the JSON and SARIF findings documents of the reduced
 * corpus of kReferenceSeed. */
constexpr const char *kPinnedDigest = "37e20c7ea2d6dfa6";

/** The pinned reference: the reduced corpus of kReferenceSeed must
 * yield the findings documents whose digest is kPinnedDigest. */
void
verifyPinned(Result &res, const RunConfig &cfg,
             const detect::BatchRunner &batch)
{
    const Corpus corpus = buildCorpus(kReferenceSeed, kReduced);
    trace::CorpusWriter writer;
    for (const auto &t : corpus.traces)
        writer.add(t);
    const std::string path = cfg.workDir + "/reference.lfmc";
    const std::string got =
        writer.writeTo(path)
            ? hex64(scanDigest(path, batch, detect::Pipeline()))
            : "<unwritable>";
    res.exact["reference.digest"] = got;
    res.check(got == kPinnedDigest, "scan.reference.digest: got " + got +
                                        ", pinned " + kPinnedDigest);
}

} // namespace

Result
runScan(const RunConfig &cfg)
{
    Result res;
    const Sizes &sz = cfg.reduced ? kReduced : kFull;
    // One core (see pinToOneCpu()), so one batch worker: more workers
    // would only take turns on it, and each detector span would then
    // also time the other workers' turns.
    res.check(pinToOneCpu(), "scan: cannot pin to one CPU");
    const std::string path = cfg.workDir + "/scan.lfmc";

    // Set-up: generate the corpus and encode it; repeated so the
    // reported median is steady. It is written to disk once, untimed:
    // an fsync'd 10 MB write per repetition would slow the fsyncs of
    // whatever runs next on the same disk.
    // The CPU is timed after each set-up and after each pass.
    CpuCalibration cpu;
    CpuCalibration setupCpu;
    std::vector<double> setups;
    Corpus corpus;
    trace::CorpusWriter writer;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const std::int64_t t0 = nowNs();
        corpus = buildCorpus(cfg.seed, sz);
        writer = trace::CorpusWriter();
        for (const auto &t : corpus.traces)
            writer.add(t);
        setups.push_back(msBetween(t0, nowNs()) / 1000.0);
        setupCpu.sample();
    }
    std::string error;
    res.check(writer.writeTo(path, &error),
              "scan: cannot write corpus: " + error);
    res.check(corpus.importQuarantined == 0,
              "scan: raw-log import quarantined or stalled records");

    std::uint64_t events = 0;
    for (const auto &t : corpus.traces)
        events += t.size();

    const detect::BatchRunner batch(1);
    const detect::Pipeline plain;
    std::atomic<std::uint64_t> batchSpan{0};
    const detect::Pipeline timed(timedDetectors(batchSpan));
    support::WorkStealingPool::Stats pool;

    auto runPass = [&](bool traced, std::uint64_t group) {
        Tracer::setGlobal(traced);
        Tracer::setGroup(group);
        Pass p;
        const std::int64_t t0 = nowNs();
        {
            Span root("scan.pass");
            std::optional<trace::CorpusReader> reader;
            {
                Span span("trace.open");
                reader = trace::CorpusReader::open(path);
            }
            if (reader) {
                p.opened = true;
                {
                    Span span("detect.batch");
                    batchSpan.store(span.id(), std::memory_order_relaxed);
                    p.reports = batch.run(traced ? timed : plain, *reader);
                }
                {
                    Span span("report.json");
                    p.json = detect::reportsJson(*reader, p.reports).str();
                }
                {
                    Span span("report.sarif");
                    p.sarif =
                        detect::reportsSarif(*reader, p.reports).str();
                }
            }
        }
        p.ms = msBetween(t0, nowNs());
        pool = batch.lastPoolStats();
        Tracer::setGlobal(false);
        Tracer::setGroup(0);
        return p;
    };

    // Timed passes. The first pass's documents are the reference every
    // later pass must reproduce byte for byte.
    std::vector<double> untracedMs;
    std::vector<double> tracedMs;
    Pass first;
    std::uint64_t firstDigest = 0;
    std::uint64_t tracedPasses = 0;
    double busyMs = 0.0;
    std::uint64_t passes = 0;
    const std::int64_t start = nowNs();
    while (passes == 0 ||
           (!cfg.reduced &&
            msBetween(start, nowNs()) < cfg.seconds * 1000.0)) {
        const bool traced = cfg.trace && passes % 2 == 1;
        Pass p = runPass(traced, passes + 1);
        (traced ? tracedMs : untracedMs).push_back(p.ms);
        cpu.sample();
        tracedPasses += traced ? 1 : 0;
        busyMs += p.ms;
        const std::uint64_t digest =
            fnv1a(p.sarif, fnv1a(p.json));
        bool analyzed = p.opened &&
                        p.reports.size() == corpus.traces.size();
        for (const auto &r : p.reports)
            analyzed = analyzed &&
                       r.status == detect::TraceStatus::Analyzed;
        res.check(analyzed, "scan: pass " + std::to_string(passes) +
                                " left traces unanalyzed");
        if (passes == 0) {
            firstDigest = digest;
            first = std::move(p);
        } else {
            res.check(digest == firstDigest,
                      "scan: pass " + std::to_string(passes) +
                          " documents differ from the first pass");
        }
        ++passes;
    }

    // Output checks outside the timed region.
    {
        bool raceFreeClean = true;
        for (std::size_t i = 0; i < first.reports.size(); ++i) {
            if (corpus.kinds[i] != Kind::RandprogRaceFree)
                continue;
            for (const auto &f : first.reports[i].findings)
                raceFreeClean = raceFreeClean && f.detector != "hb-race" &&
                                f.detector != "lockset";
        }
        res.check(raceFreeClean,
                  "scan: race-free randprog trace has hb-race/lockset "
                  "findings");

        // The heap path (decodeAt) must give the mmap path's findings.
        auto reader = trace::CorpusReader::open(path);
        std::vector<trace::Trace> decoded;
        bool decodedAll = reader.has_value();
        for (std::size_t i = 0; reader && i < reader->traceCount(); ++i) {
            auto t = reader->decodeAt(i);
            decodedAll = decodedAll && t.has_value();
            if (t)
                decoded.push_back(std::move(*t));
        }
        const auto heapReports = batch.run(plain, decoded);
        res.check(decodedAll &&
                      detect::reportsJson(decoded, heapReports).str() ==
                          first.json,
                  "scan: heap decode and mmap view findings differ");
    }

    // Seed-determined counts of one pass.
    std::map<std::string, std::uint64_t> findings;
    std::uint64_t clean = 0;
    for (const auto &r : first.reports) {
        clean += r.findings.empty() ? 1 : 0;
        for (const auto &f : r.findings)
            ++findings[f.detector];
    }
    for (const auto &name : detectorNames())
        res.exact["detect.findings." + name] =
            std::to_string(findings[name]);
    res.exact["trace.events"] = std::to_string(events);
    res.exact["trace.traces"] = std::to_string(corpus.traces.size());
    res.exact["digest"] = hex64(firstDigest);

    verifyPinned(res, cfg, batch);

    std::uint64_t corpusBytes = 0;
    if (auto reader = trace::CorpusReader::open(path))
        corpusBytes = reader->bytes();
    res.notes["passes"] = std::to_string(passes);
    {
        std::vector<double> sizes;
        std::map<Kind, std::size_t> kinds;
        for (std::size_t i = 0; i < corpus.traces.size(); ++i) {
            sizes.push_back(static_cast<double>(corpus.traces[i].size()));
            ++kinds[corpus.kinds[i]];
        }
        const double n = static_cast<double>(corpus.traces.size());
        res.notes["input.traces"] = std::to_string(corpus.traces.size());
        res.notes["input.events"] = std::to_string(events);
        res.notes["input.events_per_trace_p50_p90_max"] =
            distribution(sizes);
        res.notes["input.corpus_bytes"] = std::to_string(corpusBytes);
        res.notes["input.l2_bytes"] = std::to_string(cacheBytes(2));
        res.notes["input.l3_bytes"] = std::to_string(cacheBytes(3));
        res.notes["input.race_free_share"] =
            std::to_string(kinds[Kind::RandprogRaceFree] / n);
        res.notes["input.raw_log_share"] =
            std::to_string(kinds[Kind::RawLog] / n);
        res.notes["input.kernel_share"] = std::to_string(
            (kinds[Kind::KernelBuggy] + kinds[Kind::KernelFixed]) / n);
        res.notes["input.synthetic_share"] =
            std::to_string((kinds[Kind::Hot] + kinds[Kind::Wide]) / n);
        res.notes["input.repeat_share"] = "0";
    }

    std::vector<double> all = untracedMs;
    all.insert(all.end(), tracedMs.begin(), tracedMs.end());
    if (!cfg.trace) {
        const double tailQ = tailQuantile(all.size(), 0.90);
        setupCpu.setScaled(res, "setup_s", median(setups), "s");
        res.set("peak_rss_mb", peakRssMb(), "MiB");
        cpu.setScaled(res, "throughput_per_s",
                      static_cast<double>(events * passes) /
                          (busyMs / 1000.0),
                      "1/s");
        cpu.setScaled(res, "p50_ms", median(all), "ms");
        cpu.setScaled(res, "tail_ms", percentile(all, tailQ), "ms");
        res.notes["tail_quantile"] = std::to_string(tailQ);
        return res;
    }

    // Decomposition of the work BatchRunner does per trace, timed in
    // a separate pass over the same corpus: the zero-copy view and the
    // AnalysisContext build happen inside the batch call.
    Tracer::setGlobal(true);
    Tracer::setGroup(passes + 1);
    if (auto reader = trace::CorpusReader::open(path)) {
        detect::ContextScratch scratch;
        for (std::size_t i = 0; i < reader->traceCount(); ++i) {
            std::optional<trace::TraceView> view;
            {
                Span span("trace.view");
                view = reader->viewAt(i);
            }
            if (!view)
                continue;
            Span span("detect.context");
            detect::AnalysisContext ctx(detect::TraceSource(*view),
                                        plain.wantsHb(), &scratch);
        }
    }
    Tracer::setGlobal(false);

    const auto spans = Tracer::instance().collect();
    const auto self = selfTimeMs(spans);
    const auto total = totalTimeMs(spans);
    auto perPass = [&](const std::map<std::string, double> &m,
                       const std::string &name, double units) {
        auto it = m.find(name);
        return it == m.end() || units == 0.0 ? 0.0 : it->second / units;
    };
    const double traced = static_cast<double>(tracedPasses);
    LayerMetrics layers;
    layers.poolExecuted = static_cast<double>(pool.executed);
    layers.poolStolen = static_cast<double>(pool.stolen);
    layers.poolParks = static_cast<double>(pool.parks);
    layers.traceOpenMs = perPass(total, "trace.open", traced);
    layers.traceViewMs = perPass(total, "trace.view", 1.0);
    layers.traceCorpusBytes = static_cast<double>(corpusBytes);
    layers.traceEvents = static_cast<double>(events);
    layers.traceTraces = static_cast<double>(corpus.traces.size());
    layers.detectContextMs = perPass(total, "detect.context", 1.0);
    for (const auto &name : detectorNames()) {
        layers.detectorMs[name] = perPass(self, "detect." + name, traced);
        layers.findings[name] = static_cast<double>(findings[name]);
    }
    layers.detectBatchMs = perPass(total, "detect.batch", traced);
    layers.detectCleanShare =
        corpus.traces.empty()
            ? 1.0
            : static_cast<double>(clean) /
                  static_cast<double>(corpus.traces.size());
    layers.reportJsonMs = perPass(total, "report.json", traced);
    layers.reportSarifMs = perPass(total, "report.sarif", traced);
    layers.reportDocBytes =
        static_cast<double>(first.json.size() + first.sarif.size());
    layers.overheadP50Pct = overheadPct(median(untracedMs),
                                        median(tracedMs));
    layers.emit(res);
    return res;
}

} // namespace perfbench
