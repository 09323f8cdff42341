/**
 * @file
 * Shared pieces of the end-to-end benchmark: the span tracer, sample
 * statistics, the result record every workload fills in, and small
 * helpers (digests, resident memory, scratch directories).
 *
 * The tracer belongs to the benchmark, not to the program: spans are
 * opened in the benchmark's own files around calls into the lfm
 * layers, kept in memory, and aggregated when the run ends. The
 * program's own metrics and span switches stay off throughout.
 */

#ifndef LFM_PERFBENCH_COMMON_HH
#define LFM_PERFBENCH_COMMON_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "detect/detector.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

inline double
msBetween(std::int64_t startNs, std::int64_t endNs)
{
    return static_cast<double>(endNs - startNs) / 1e6;
}

/** CPU time (user + system) of this process and of every child it
 * has reaped, in ns. */
std::int64_t processCpuNs();

/** CPU time of the calling thread, in ns. */
std::int64_t threadCpuNs();

// ------------------------------------------------------------------
// Tracing
// ------------------------------------------------------------------

/** One closed span. `group` ties together the spans of one campaign,
 * corpus pass or request; `parent` is 0 for a root span. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t group = 0;
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/**
 * Process-wide span store. Each thread appends to its own buffer, so
 * recording a span takes no lock after the thread's first span.
 * Recording is on while `active()` holds for the calling thread: the
 * workload loops switch it per unit of work (alternate campaigns,
 * passes or requests are traced), which is how one traced run also
 * yields the untraced comparison for the tracing overhead.
 */
class Tracer
{
  public:
    static Tracer &instance();

    /** Recording switch seen by every thread (hunt, scan). */
    static void setGlobal(bool on);
    /** Recording switch for the calling thread only (serve). */
    static void setThread(bool on);
    static bool active();

    /** The group new root spans on this thread join. */
    static void setGroup(std::uint64_t group);
    static std::uint64_t group();

    /** Innermost open span on this thread (0 when none). */
    static std::uint64_t current();

    std::uint64_t nextId();
    void record(const SpanRecord &span);

    /** Every span recorded so far, across threads. Call only once
     * the threads that record have stopped. */
    std::vector<SpanRecord> collect() const;

  private:
    Tracer() = default;
    std::vector<SpanRecord> &localBuffer();

    std::atomic<std::uint64_t> ids_{0};
    mutable std::mutex m_;
    std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
};

/** RAII span: records [construction, destruction) when the tracer is
 * active at construction. `parent` overrides the thread's innermost
 * span for work handed to other threads (batch detector calls). */
class Span
{
  public:
    explicit Span(const char *name, std::uint64_t parent = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return rec_.id; }

  private:
    SpanRecord rec_;
    std::uint64_t savedCurrent_ = 0;
    bool on_ = false;
};

/** Self time per span name, in ms: each span's duration minus the
 * part of its interval covered by its children (children may run in
 * parallel on other threads, so coverage is an interval union). */
std::map<std::string, double>
selfTimeMs(const std::vector<SpanRecord> &spans);

/** Write spans as one JSON array of [id, parent, group, name,
 * start_ns, end_ns] rows; false when the file cannot be written. */
bool writeSpans(const std::vector<SpanRecord> &spans,
                const std::string &path);

/** Total duration per span name, in ms. */
std::map<std::string, double>
totalTimeMs(const std::vector<SpanRecord> &spans);

/**
 * A detector wrapper that times fromContext() under a span named
 * "detect.<name>". Findings are the wrapped detector's, unchanged, so
 * a pipeline of wrappers produces byte-identical documents.
 */
class TimedDetector final : public lfm::detect::Detector
{
  public:
    TimedDetector(std::unique_ptr<lfm::detect::Detector> inner,
                  const std::atomic<std::uint64_t> &parent);

    std::vector<lfm::detect::Finding>
    fromContext(const lfm::detect::AnalysisContext &ctx) const override;
    bool wantsHb() const override { return inner_->wantsHb(); }
    const char *name() const override { return inner_->name(); }

  private:
    std::unique_ptr<lfm::detect::Detector> inner_;
    std::string spanName_;
    const std::atomic<std::uint64_t> &parent_;
};

/** allDetectors(), each wrapped in a TimedDetector whose spans hang
 * off the span id held in `parent` at call time. */
std::vector<std::unique_ptr<lfm::detect::Detector>>
timedDetectors(const std::atomic<std::uint64_t> &parent);

/** The detector names of allDetectors(), in pipeline order. */
std::vector<std::string> detectorNames();

// ------------------------------------------------------------------
// Statistics
// ------------------------------------------------------------------

/** Nearest-rank percentile (q in [0,1]) of unsorted samples. */
double percentile(std::vector<double> samples, double q);

inline double
median(const std::vector<double> &samples)
{
    return percentile(samples, 0.5);
}

/**
 * The percentile a tail metric reports: `nominal` when at least ten
 * samples lie beyond it, else the highest whole percentile that has
 * ten (never below the median).
 */
double tailQuantile(std::size_t samples, double nominal);

// ------------------------------------------------------------------
// Results
// ------------------------------------------------------------------

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything one workload run reports. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Checks that failed, one line each (printed to stderr). */
    std::vector<std::string> failures;
    std::map<std::string, Metric> metrics;
    /** Exact, seed-determined counts and digests: compared by the
     * benchmark's self-test across two runs of one seed. */
    std::map<std::string, std::string> exact;
    /** Context for a reader of the run (stderr): sample counts,
     * the tail percentile used, input properties. */
    std::map<std::string, std::string> notes;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Record a check; false counts as one failed operation. */
    void check(bool ok, const std::string &what);
};

/** What a workload is asked to do. */
struct RunConfig
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Small inputs and a short run: the self-test and the pinned
     * reference check. */
    bool reduced = false;
    /** Directory for state dirs and corpora, inside the checkout. */
    std::string workDir;
};

/** The seed whose reduced-size outputs are pinned. */
constexpr std::uint64_t kReferenceSeed = 1;

// ------------------------------------------------------------------
// Helpers
// ------------------------------------------------------------------

/** 64-bit FNV-1a over bytes, chained from `h`. */
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

std::string hex64(std::uint64_t v);

/** SplitMix64 step: derives independent sub-seeds from one seed. */
std::uint64_t mix(std::uint64_t x);

/** Peak resident set of this process plus that of its largest
 * reaped descendant, in MiB. */
double peakRssMb();

/** mkdir -p; false on failure. */
bool makeDirs(const std::string &path);
/** rm -rf of a directory tree the benchmark created. */
void removeTree(const std::string &path);
/** Total bytes of the regular files directly inside `dir`. */
std::uint64_t dirBytes(const std::string &dir);

/** Hardware threads available to this process (>= 1). */
unsigned hostThreads();

/**
 * Restrict this process, and every thread and process it starts
 * afterwards, to the first CPU it may run on. The simulator hands
 * the baton between its OS threads with futex wakes; across cores of
 * a virtual machine each wake costs tens to hundreds of microseconds
 * and that cost swings several-fold from run to run, while on one
 * core it is a plain context switch.
 */
bool pinToOneCpu();

/**
 * The speed of the CPU a pinned workload runs on, from a fixed task
 * that shares no code with the lfm libraries: sorting a copy of 2^17
 * pseudo-random integers. On the 4-vCPU virtual machine described in
 * inputs.json a core's speed moved by a third within minutes, and the
 * times of the workloads, each pinned to one core, moved with it.
 * hunt and scan time this task between their timed units, on the
 * clock their own times use (wall, or CPU time of the calling thread),
 * and report their times scaled to a CPU on which it takes kNominalMs.
 * serve's figures did not follow it and are not scaled.
 */
class CpuCalibration
{
  public:
    static constexpr double kNominalMs = 10.0;

    enum class Timing { Wall, Cpu };

    explicit CpuCalibration(Timing timing = Timing::Wall);

    /** Time the task once. */
    void sample();
    /** Median time of the task so far, in ms. */
    double medianMs() const;

    /**
     * Set metric `name` to `value` scaled to the nominal CPU (a time
     * multiplied by kNominalMs / medianMs(), a rate, unit "1/s",
     * divided by it); note the measured value as raw.<name> and the
     * median task time as cpu_calibration_ms.<name>.
     */
    void setScaled(Result &res, const std::string &name, double value,
                   const std::string &unit) const;

  private:
    Timing timing_;
    std::vector<std::uint32_t> input_;
    std::vector<std::uint32_t> work_;
    std::vector<double> samples_;
    std::uint32_t sink_ = 0;
};

/** Size in bytes of one cache of the given level (2 or 3) as the C
 * library reports it; 0 when unknown. */
std::uint64_t cacheBytes(int level);

/** "p50/p90/max" of a sample, for input-property notes. */
std::string distribution(const std::vector<double> &samples);

} // namespace perfbench

#endif // LFM_PERFBENCH_COMMON_HH
