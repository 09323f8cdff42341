/**
 * @file
 * The three workloads and the per-layer metric set their traced runs
 * report. Every traced run emits the whole set: a layer a workload
 * never enters reports 0, which is the measured fact (that workload
 * bypasses the layer), not a missing value.
 */

#ifndef LFM_PERFBENCH_WORKLOADS_HH
#define LFM_PERFBENCH_WORKLOADS_HH

#include <map>
#include <string>

#include "common.hh"

namespace perfbench
{

Result runHunt(const RunConfig &cfg);
Result runScan(const RunConfig &cfg);
Result runServe(const RunConfig &cfg);

/** (traced - untraced) / untraced, in percent; 0 without both. */
double overheadPct(double untraced, double traced);

/**
 * The per-layer metrics of BENCHMARK.json. Times are per unit of
 * work (per campaign on hunt, per corpus pass on scan, per request
 * or session on serve) and come from the traced units of the run;
 * counts are the exact, seed-determined tallies of one fixed unit
 * (hunt's first round, one scan pass, serve's whole schedule).
 */
struct LayerMetrics
{
    double simDecisions = 0;
    double simReplayMs = 0;
    double simNsPerDecision = 0;

    double exploreStressMs = 0;
    double exploreRuns = 0;
    double exploreManifestRatio = 0;
    double exploreTruncatedRuns = 0;

    double shardSpawns = 0;
    double shardRetries = 0;
    double journalRecords = 0;
    double journalBytes = 0;
    double poolExecuted = 0;
    double poolStolen = 0;
    double poolParks = 0;

    double traceOpenMs = 0;
    double traceViewMs = 0;
    double traceCorpusBytes = 0;
    double traceEvents = 0;
    double traceTraces = 0;

    double detectContextMs = 0;
    std::map<std::string, double> detectorMs;
    std::map<std::string, double> findings;
    double detectBatchMs = 0;
    double detectCleanShare = 0;

    double reportJsonMs = 0;
    double reportSarifMs = 0;
    double reportDocBytes = 0;

    double serveHandleP50 = 0;
    double serveHandleP99 = 0;
    double serveHttpP50 = 0;
    double serveConnectP50 = 0;
    double serveTtfbP50 = 0;
    std::map<std::string, double> serveFormatP50;
    double serveAdmitted = 0;
    double serveRejected = 0;
    double serveGenLagP99 = 0;
    double serveRepeatShare = 0;
    double serveP50Lo = 0;
    double serveP99Lo = 0;
    double serveP50Hi = 0;
    double serveP99Hi = 0;
    double serveSessionP50 = 0;
    double serveMaxRps = 0;

    double overheadP50Pct = 0;

    /** Set every per-layer metric on `res`. */
    void emit(Result &res) const;
};

/** The upload formats of the serve workload, in report order. */
inline const char *const kFormats[] = {"lfmt", "text", "raw", "lfmc"};

} // namespace perfbench

#endif // LFM_PERFBENCH_WORKLOADS_HH
