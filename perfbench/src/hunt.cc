/**
 * @file
 * The `hunt` workload: seeded bug-hunting campaigns, one at a time.
 *
 * A closed loop runs campaigns the way `lfm_campaign` does: a sharded
 * RandomPolicy stress campaign with fsync'd per-shard journals in a
 * fresh state directory, followed by the campaign's findings document
 * (replay of the manifesting seeds, detection, JSON). One round covers
 * every registry kernel in its buggy and its fixed variant, each with
 * a seed range drawn from the workload seed; rounds repeat with fresh
 * seed ranges until the time is up. Nearly all the work sits in
 * `sim`, `explore` and the journal; `detect` only sees the short
 * traces of the manifesting seeds.
 *
 * Campaigns are timed in CPU time, this process and its shard
 * processes together, not wall time: one fsync per seed puts the
 * host's disk on every campaign, and a parallel writer on that disk
 * multiplied the median wall time by 2.6 while the CPU time moved by
 * 9-16%. The wall times are printed as notes.
 */

#include "workloads.hh"

#include <algorithm>
#include <cmath>

#include "bugs/registry.hh"
#include "detect/batch.hh"
#include "detect/context.hh"
#include "detect/pipeline.hh"
#include "explore/campaign_findings.hh"
#include "explore/sharded.hh"
#include "sim/policy.hh"
#include "support/json.hh"

namespace perfbench
{

namespace
{

using namespace lfm;

/** Shard processes per campaign. One: the campaign runs on one core
 * (see pinToOneCpu()), and several shards sharing that core made
 * campaign times swing with how their fsync waits happened to
 * interleave. */
constexpr unsigned kShards = 1;
/** Seeds per campaign (full run / reduced run). */
constexpr std::size_t kRuns = 96;
constexpr std::size_t kReducedRuns = 16;
/** lfm_campaign's default per-execution decision ceiling. */
constexpr std::size_t kMaxDecisions = 4000;
/** Set-up repetitions. One takes tens of ms, most of it the warm-up
 * campaign's fsyncs, so the median needs many to be steady. */
constexpr int kSetupReps = 15;

struct Planned
{
    const bugs::BugKernel *kernel = nullptr;
    bugs::Variant variant = bugs::Variant::Buggy;
    std::uint64_t firstSeed = 0;
    std::size_t runs = 0;
    std::string name;
};

/** One round: every kernel x {buggy, fixed}, seed ranges drawn from
 * (workload seed, round, position). */
std::vector<Planned>
planRound(std::uint64_t seed, std::size_t round, std::size_t runs)
{
    std::vector<Planned> plan;
    std::size_t pos = 0;
    for (const bugs::BugKernel *k : bugs::allKernels()) {
        for (const bugs::Variant v :
             {bugs::Variant::Buggy, bugs::Variant::Fixed}) {
            Planned p;
            p.kernel = k;
            p.variant = v;
            p.runs = runs;
            p.firstSeed =
                mix(seed ^ mix(round * 4096 + pos)) % 1'000'000'000ull;
            p.name = k->info().id + "-" + bugs::variantName(v);
            plan.push_back(std::move(p));
            ++pos;
        }
    }
    return plan;
}

/** The canonical result document of one campaign (the fields
 * `lfm_campaign --results` writes: no timings, no counters). */
std::string
canonicalResult(const Planned &p, const explore::StressResult &r)
{
    support::Json doc;
    doc.set("campaign", p.name)
        .set("first_seed", p.firstSeed)
        .set("runs", static_cast<std::uint64_t>(r.runs))
        .set("manifestations",
             static_cast<std::uint64_t>(r.manifestations))
        .set("avg_decisions", r.avgDecisions)
        .set("truncated_runs",
             static_cast<std::uint64_t>(r.truncatedRuns))
        .set("crashed_runs", static_cast<std::uint64_t>(r.crashedRuns))
        .set("outcome", support::outcomeName(r.outcome));
    support::Json seeds = support::Json::array();
    for (const std::uint64_t s : r.manifestedSeeds)
        seeds.push(s);
    doc.set("manifested_seeds", std::move(seeds));
    return doc.str();
}

/** Everything one campaign produced. */
struct Campaign
{
    explore::StressResult result;
    explore::ShardedStats stats;
    /** The findings document the timed part of the campaign built. */
    std::string findingsDoc;
    /** CPU time of the timed part, this process and the shard
     * processes together, and its wall time. */
    double ms = 0.0;
    double wallMs = 0.0;
    /** The findings document built the other way, outside the timed
     * region; empty unless the campaign was checked. */
    std::string otherDoc;
    /** The per-layer steps of the findings document: replayed traces
     * and their reports. Present on traced and on checked campaigns. */
    bool decomposed = false;
    std::vector<trace::Trace> traces;
    std::vector<detect::TraceReport> reports;
    std::uint64_t replayDecisions = 0;
};

class Hunter
{
  public:
    explicit Hunter(const RunConfig &cfg)
        : cfg_(cfg), timedPipeline_(timedDetectors(batchSpan_))
    {
    }

    /**
     * Run one planned campaign in a fresh state dir. The timed part
     * is what lfm_campaign does: explore::shardedStress, then
     * explore::campaignFindingsJson. A `traced` campaign builds the
     * findings document from the per-layer steps of that function
     * instead, each in its own span. A `checked` campaign also builds
     * the document the other way, outside the timed region; account()
     * holds the two equal.
     */
    Campaign
    run(const Planned &p, std::uint64_t index, bool traced, bool checked)
    {
        const std::string dir =
            cfg_.workDir + "/hunt/c" + std::to_string(index);
        makeDirs(dir);
        explore::ShardedOptions sharded;
        sharded.shards = kShards;
        sharded.stateDir = dir;
        sharded.campaignName = p.name;
        explore::StressOptions opt;
        opt.runs = p.runs;
        opt.firstSeed = p.firstSeed;
        opt.exec.maxDecisions = kMaxDecisions;
        const auto factory = p.kernel->factory(p.variant);
        const auto makePolicy =
            explore::makePolicy<sim::RandomPolicy>();

        Tracer::setGlobal(traced);
        Tracer::setGroup(index + 1);
        Campaign c;
        const std::int64_t t0 = nowNs();
        const std::int64_t cpu0 = processCpuNs();
        {
            Span root("hunt.campaign");
            {
                Span span("explore.stress");
                c.result = explore::shardedStress(
                    factory, makePolicy, opt, sharded,
                    explore::defaultManifest, &c.stats);
            }
            if (traced)
                c.findingsDoc = decompose(c, factory, makePolicy, opt,
                                          timedPipeline_);
            else
                c.findingsDoc = explore::campaignFindingsJson(
                                    factory, makePolicy, opt, c.result)
                                    .str();
        }
        c.ms = msBetween(cpu0, processCpuNs());
        c.wallMs = msBetween(t0, nowNs());
        Tracer::setGlobal(false);
        Tracer::setGroup(0);

        if (checked)
            c.otherDoc = traced
                             ? explore::campaignFindingsJson(
                                   factory, makePolicy, opt, c.result)
                                   .str()
                             : decompose(c, factory, makePolicy, opt,
                                         plainPipeline_);
        if (traced) {
            // detect.context: the AnalysisContext build Pipeline::run
            // does per trace, timed in a separate pass because it
            // happens inside the batch call.
            Tracer::setGlobal(true);
            Tracer::setGroup(index + 1);
            detect::ContextScratch scratch;
            for (const trace::Trace &t : c.traces) {
                Span span("detect.context");
                detect::AnalysisContext ctx(detect::TraceSource(t),
                                            plainPipeline_.wantsHb(),
                                            &scratch);
            }
            Tracer::setGlobal(false);
            Tracer::setGroup(0);
        }
        return c;
    }

    /** Journal records and bytes a campaign left in its state dir.
     * State dirs are removed only when the run ends: deleting files
     * between campaigns would put the file system's discards on the
     * next campaign's fsyncs. */
    std::pair<std::uint64_t, std::uint64_t>
    journalSize(const Planned &p, std::uint64_t index) const
    {
        const std::string dir =
            cfg_.workDir + "/hunt/c" + std::to_string(index);
        const auto recovered = explore::loadShardJournals(dir, p.name);
        return {recovered.all.size(), dirBytes(dir)};
    }

    const support::WorkStealingPool::Stats &poolStats() const
    {
        return poolStats_;
    }

  private:
    /** explore::campaignFindingsJson as one call per layer, each in a
     * span: replay of the manifesting seeds, the batch, the JSON.
     * Keeps the traces and reports in `c`; returns the document. */
    std::string
    decompose(Campaign &c, const sim::ProgramFactory &factory,
              const explore::PolicyFactory &makePolicy,
              const explore::StressOptions &opt,
              const detect::Pipeline &pipeline)
    {
        c.decomposed = true;
        std::shared_ptr<sim::SchedulePolicy> policy = makePolicy();
        for (const std::uint64_t seed : c.result.manifestedSeeds) {
            sim::ExecOptions exec = opt.exec;
            exec.seed = seed;
            exec.collectTrace = true;
            Span span("sim.replay");
            auto execution = sim::runProgram(factory, *policy, exec);
            c.replayDecisions += execution.decisionCount;
            c.traces.push_back(std::move(execution.trace));
        }
        {
            Span span("detect.batch");
            batchSpan_.store(span.id(), std::memory_order_relaxed);
            c.reports = batch_.run(pipeline, c.traces);
            poolStats_ = batch_.lastPoolStats();
        }
        Span span("report.json");
        return detect::reportsJson(c.traces, c.reports).str();
    }

    const RunConfig &cfg_;
    std::atomic<std::uint64_t> batchSpan_{0};
    detect::Pipeline plainPipeline_;
    detect::Pipeline timedPipeline_;
    // campaignFindingsJson's batch: one worker, campaign order.
    detect::BatchRunner batch_{1};
    support::WorkStealingPool::Stats poolStats_;
};

/** Seed-determined tallies over one round. */
struct RoundTally
{
    std::uint64_t bugsFound = 0;
    std::uint64_t runs = 0;
    std::uint64_t manifestations = 0;
    std::uint64_t truncated = 0;
    std::uint64_t decisions = 0;
    std::uint64_t spawns = 0;
    std::uint64_t retries = 0;
    std::uint64_t journalRecords = 0;
    std::uint64_t journalBytes = 0;
    std::uint64_t traces = 0;
    std::uint64_t events = 0;
    std::uint64_t cleanTraces = 0;
    std::uint64_t docBytes = 0;
    std::vector<double> traceEvents;
    std::uint64_t poolExecuted = 0;
    std::uint64_t poolStolen = 0;
    std::uint64_t poolParks = 0;
    std::map<std::string, std::uint64_t> findings;
    std::uint64_t digest = fnv1a("");
};

/** Check one campaign; fold it into the round tally. */
void
account(Result &res, RoundTally &tally, const Planned &p,
        const Campaign &c)
{
    const auto &r = c.result;
    const bool fixed = p.variant == bugs::Variant::Fixed;
    bool ok = r.outcome == support::RunOutcome::Completed &&
              r.runs == p.runs && c.stats.abandonedSeeds == 0 &&
              (!c.decomposed ||
               c.traces.size() == r.manifestedSeeds.size());
    for (const auto &report : c.reports)
        ok = ok && report.status == detect::TraceStatus::Analyzed;
    res.check(ok, p.name + ": campaign did not complete cleanly");
    if (!c.otherDoc.empty())
        res.check(c.otherDoc == c.findingsDoc,
                  p.name + ": per-layer findings document differs from "
                           "explore::campaignFindingsJson");
    if (fixed)
        res.check(r.manifestations == 0,
                  p.name + ": fixed variant manifested");

    if (!fixed && r.manifestations > 0)
        ++tally.bugsFound;
    tally.runs += r.runs;
    tally.manifestations += r.manifestations;
    tally.truncated += r.truncatedRuns;
    tally.decisions += static_cast<std::uint64_t>(
        std::llround(r.avgDecisions * static_cast<double>(r.runs)));
    tally.spawns += c.stats.spawns;
    tally.retries += c.stats.shardRetries;
    tally.traces += c.traces.size();
    for (const auto &t : c.traces) {
        tally.events += t.size();
        tally.traceEvents.push_back(static_cast<double>(t.size()));
    }
    for (const auto &report : c.reports) {
        if (report.findings.empty())
            ++tally.cleanTraces;
        for (const auto &f : report.findings)
            ++tally.findings[f.detector];
    }
    tally.docBytes += c.findingsDoc.size();
    tally.digest = fnv1a(canonicalResult(p, r), tally.digest);
    tally.digest = fnv1a(c.findingsDoc, tally.digest);
}

void
exactCounts(Result &res, const RoundTally &t, const std::string &prefix)
{
    res.exact[prefix + "bugs_found"] = std::to_string(t.bugsFound);
    res.exact[prefix + "sim.decisions"] = std::to_string(t.decisions);
    res.exact[prefix + "explore.runs"] = std::to_string(t.runs);
    res.exact[prefix + "explore.manifestations"] =
        std::to_string(t.manifestations);
    for (const auto &name : detectorNames()) {
        auto it = t.findings.find(name);
        res.exact[prefix + "detect.findings." + name] =
            std::to_string(it == t.findings.end() ? 0 : it->second);
    }
    res.exact[prefix + "digest"] = hex64(t.digest);
}

/** bugs_found of the reference round, and the digest of its canonical
 * result documents (the `lfm_campaign --results` fields) and findings
 * documents. */
constexpr std::uint64_t kPinnedBugsFound = 28;
constexpr const char *kPinnedDigest = "9886bdb2d97839f0";

/** The pinned reference: one reduced round at kReferenceSeed, every
 * campaign checked, must reproduce kPinnedBugsFound and kPinnedDigest. */
void
verifyPinned(Result &res, const RunConfig &cfg)
{
    Hunter hunter(cfg);
    RoundTally tally;
    Result checks;
    const auto plan = planRound(kReferenceSeed, 0, kReducedRuns);
    for (std::size_t i = 0; i < plan.size(); ++i)
        account(checks, tally, plan[i],
                hunter.run(plan[i], 1'000'000 + i, false, true));
    res.check(checks.failed == 0,
              "hunt: reference round failed its campaign checks");
    exactCounts(res, tally, "reference.");
    const std::string bugs = std::to_string(tally.bugsFound);
    res.check(tally.bugsFound == kPinnedBugsFound,
              "hunt.reference.bugs_found: got " + bugs + ", pinned " +
                  std::to_string(kPinnedBugsFound));
    const std::string digest = hex64(tally.digest);
    res.check(digest == kPinnedDigest, "hunt.reference.digest: got " +
                                           digest + ", pinned " +
                                           kPinnedDigest);
}

} // namespace

Result
runHunt(const RunConfig &cfg)
{
    Result res;
    res.check(pinToOneCpu(), "hunt: cannot pin to one CPU");
    const std::size_t runs = cfg.reduced ? kReducedRuns : kRuns;

    // Set-up: load the kernel registry, plan the first round, and
    // warm up the shard fork/journal path with its first campaign.
    // Repeated so the median is steady; the registry is process-wide,
    // so only the first repetition pays for building it.
    // Times are CPU time (see Campaign::ms); the CPU is timed after
    // each set-up and after every eighth campaign.
    CpuCalibration cpu(CpuCalibration::Timing::Cpu);
    CpuCalibration setupCpu(CpuCalibration::Timing::Cpu);
    std::vector<double> setups;
    std::vector<double> setupsWall;
    std::vector<Planned> plan;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const std::int64_t t0 = nowNs();
        const std::int64_t cpu0 = processCpuNs();
        plan = planRound(cfg.seed, 0, runs);
        Hunter warm(cfg);
        warm.run(plan.front(), 900'000 + static_cast<std::uint64_t>(rep),
                 false, false);
        setups.push_back(msBetween(cpu0, processCpuNs()) / 1000.0);
        setupsWall.push_back(msBetween(t0, nowNs()) / 1000.0);
        setupCpu.sample();
    }

    Hunter hunter(cfg);
    RoundTally round0;
    std::vector<double> untracedMs;
    std::vector<double> tracedMs;
    std::uint64_t seeds = 0;
    double busyMs = 0.0;
    std::vector<double> wallMs;
    std::uint64_t replayDecisionsTraced = 0;
    std::uint64_t tracedCampaigns = 0;
    std::uint64_t index = 0;
    const std::int64_t start = nowNs();
    // Whole rounds only, so every run weighs each kernel alike.
    for (std::size_t round = 0;; ++round) {
        if (round > 0) {
            if (cfg.reduced ||
                msBetween(start, nowNs()) >= cfg.seconds * 1000.0)
                break;
            plan = planRound(cfg.seed, round, runs);
        }
        for (std::size_t i = 0; i < plan.size(); ++i, ++index) {
            // Traced runs trace alternate kernels, flipping each
            // round; both variants of a kernel share the flag.
            const bool traced = cfg.trace && (i / 2 + round) % 2 == 0;
            // Round 0, whose seed ranges repeat exactly, is checked
            // against both ways of building the findings document and
            // tallied.
            const Campaign c =
                hunter.run(plan[i], index, traced, round == 0);
            (traced ? tracedMs : untracedMs).push_back(c.ms);
            if (index % 8 == 7)
                cpu.sample();
            seeds += c.result.runs;
            busyMs += c.ms;
            wallMs.push_back(c.wallMs);
            if (traced) {
                ++tracedCampaigns;
                replayDecisionsTraced += c.replayDecisions;
            }
            RoundTally later;
            account(res, round == 0 ? round0 : later, plan[i], c);
            if (round == 0) {
                const auto pool = hunter.poolStats();
                round0.poolExecuted += pool.executed;
                round0.poolStolen += pool.stolen;
                round0.poolParks += pool.parks;
                const auto [records, bytes] =
                    hunter.journalSize(plan[i], index);
                round0.journalRecords += records;
                round0.journalBytes += bytes;
            }
        }
    }
    exactCounts(res, round0, "");
    res.notes["input.kernels"] = std::to_string(bugs::allKernels().size());
    res.notes["input.campaigns_per_round"] =
        std::to_string(bugs::allKernels().size() * 2);
    res.notes["input.seeds_per_campaign"] = std::to_string(runs);
    res.notes["input.shards"] = std::to_string(kShards);
    res.notes["input.manifest_ratio"] = std::to_string(
        static_cast<double>(round0.manifestations) /
        static_cast<double>(std::max<std::uint64_t>(1, round0.runs)));
    res.notes["input.replayed_traces"] = std::to_string(round0.traces);
    res.notes["input.replayed_events_p50_p90_max"] =
        distribution(round0.traceEvents);

    verifyPinned(res, cfg);

    std::vector<double> all = untracedMs;
    all.insert(all.end(), tracedMs.begin(), tracedMs.end());
    const double tailQ = tailQuantile(all.size(), 0.90);
    if (!cfg.trace) {
        setupCpu.setScaled(res, "setup_s", median(setups), "s");
        res.set("peak_rss_mb", peakRssMb(), "MiB");
        cpu.setScaled(res, "throughput_per_s",
                      static_cast<double>(seeds) / (busyMs / 1000.0),
                      "1/s");
        cpu.setScaled(res, "p50_ms", median(all), "ms");
        cpu.setScaled(res, "tail_ms", percentile(all, tailQ), "ms");
        res.notes["tail_quantile"] = std::to_string(tailQ);
        res.notes["campaigns"] = std::to_string(all.size());
        res.notes["wall.setup_s"] = std::to_string(median(setupsWall));
        res.notes["wall.p50_ms"] = std::to_string(median(wallMs));
        res.notes["wall.tail_ms"] =
            std::to_string(percentile(wallMs, tailQ));
        return res;
    }

    const auto spans = Tracer::instance().collect();
    const auto self = selfTimeMs(spans);
    const auto total = totalTimeMs(spans);
    auto perCampaign = [&](const std::map<std::string, double> &m,
                           const std::string &name) {
        auto it = m.find(name);
        return it == m.end() || tracedCampaigns == 0
                   ? 0.0
                   : it->second / static_cast<double>(tracedCampaigns);
    };
    LayerMetrics layers;
    layers.simDecisions = static_cast<double>(round0.decisions);
    layers.simReplayMs = perCampaign(self, "sim.replay");
    {
        auto it = self.find("sim.replay");
        layers.simNsPerDecision =
            it == self.end() || replayDecisionsTraced == 0
                ? 0.0
                : it->second * 1e6 /
                      static_cast<double>(replayDecisionsTraced);
    }
    layers.exploreStressMs = perCampaign(total, "explore.stress");
    layers.exploreRuns = static_cast<double>(round0.runs);
    layers.exploreManifestRatio =
        round0.runs == 0 ? 0.0
                         : static_cast<double>(round0.manifestations) /
                               static_cast<double>(round0.runs);
    layers.exploreTruncatedRuns = static_cast<double>(round0.truncated);
    layers.shardSpawns = static_cast<double>(round0.spawns);
    layers.shardRetries = static_cast<double>(round0.retries);
    layers.journalRecords = static_cast<double>(round0.journalRecords);
    layers.journalBytes = static_cast<double>(round0.journalBytes);
    layers.poolExecuted = static_cast<double>(round0.poolExecuted);
    layers.poolStolen = static_cast<double>(round0.poolStolen);
    layers.poolParks = static_cast<double>(round0.poolParks);
    layers.traceEvents = static_cast<double>(round0.events);
    layers.traceTraces = static_cast<double>(round0.traces);
    layers.detectContextMs = perCampaign(total, "detect.context");
    for (const auto &name : detectorNames()) {
        layers.detectorMs[name] = perCampaign(self, "detect." + name);
        auto it = round0.findings.find(name);
        layers.findings[name] = static_cast<double>(
            it == round0.findings.end() ? 0 : it->second);
    }
    layers.detectBatchMs = perCampaign(total, "detect.batch");
    layers.detectCleanShare =
        round0.traces == 0 ? 1.0
                           : static_cast<double>(round0.cleanTraces) /
                                 static_cast<double>(round0.traces);
    layers.reportJsonMs = perCampaign(total, "report.json");
    layers.reportDocBytes = static_cast<double>(round0.docBytes);
    layers.overheadP50Pct = overheadPct(median(untracedMs),
                                        median(tracedMs));
    layers.emit(res);
    return res;
}

} // namespace perfbench
