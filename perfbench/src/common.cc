#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <thread>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

namespace perfbench
{

namespace
{

std::atomic<bool> gTraceGlobal{false};
thread_local bool tTraceThread = false;
thread_local std::uint64_t tGroup = 0;
thread_local std::uint64_t tCurrent = 0;
thread_local std::vector<SpanRecord> *tBuffer = nullptr;

} // namespace

// ------------------------------------------------------------------
// Tracer
// ------------------------------------------------------------------

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::setGlobal(bool on)
{
    gTraceGlobal.store(on, std::memory_order_relaxed);
}

void
Tracer::setThread(bool on)
{
    tTraceThread = on;
}

bool
Tracer::active()
{
    return tTraceThread || gTraceGlobal.load(std::memory_order_relaxed);
}

void
Tracer::setGroup(std::uint64_t group)
{
    tGroup = group;
}

std::uint64_t
Tracer::group()
{
    return tGroup;
}

std::uint64_t
Tracer::current()
{
    return tCurrent;
}

std::uint64_t
Tracer::nextId()
{
    return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::vector<SpanRecord> &
Tracer::localBuffer()
{
    if (tBuffer == nullptr) {
        auto owned = std::make_unique<std::vector<SpanRecord>>();
        owned->reserve(4096);
        tBuffer = owned.get();
        std::lock_guard lock(m_);
        buffers_.push_back(std::move(owned));
    }
    return *tBuffer;
}

void
Tracer::record(const SpanRecord &span)
{
    localBuffer().push_back(span);
}

std::vector<SpanRecord>
Tracer::collect() const
{
    std::lock_guard lock(m_);
    std::vector<SpanRecord> all;
    for (const auto &buffer : buffers_)
        all.insert(all.end(), buffer->begin(), buffer->end());
    return all;
}

Span::Span(const char *name, std::uint64_t parent)
    : on_(Tracer::active())
{
    if (!on_)
        return;
    Tracer &tracer = Tracer::instance();
    rec_.id = tracer.nextId();
    rec_.parent = parent != 0 ? parent : Tracer::current();
    rec_.group = Tracer::group();
    rec_.name = name;
    savedCurrent_ = Tracer::current();
    tCurrent = rec_.id;
    rec_.startNs = nowNs();
}

Span::~Span()
{
    if (!on_)
        return;
    rec_.endNs = nowNs();
    tCurrent = savedCurrent_;
    Tracer::instance().record(rec_);
}

std::map<std::string, double>
selfTimeMs(const std::vector<SpanRecord> &spans)
{
    std::map<std::uint64_t, std::vector<const SpanRecord *>> children;
    for (const SpanRecord &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, double> self;
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const SpanRecord &s : spans) {
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            cover.clear();
            for (const SpanRecord *c : it->second) {
                const std::int64_t a = std::max(c->startNs, s.startNs);
                const std::int64_t b = std::min(c->endNs, s.endNs);
                if (a < b)
                    cover.emplace_back(a, b);
            }
            std::sort(cover.begin(), cover.end());
            std::int64_t reach = s.startNs;
            for (const auto &[a, b] : cover) {
                const std::int64_t from = std::max(a, reach);
                if (b > from) {
                    covered += b - from;
                    reach = b;
                }
            }
        }
        self[s.name] += msBetween(0, s.endNs - s.startNs - covered);
    }
    return self;
}

bool
writeSpans(const std::vector<SpanRecord> &spans, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fputs("[", f);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::fprintf(f, "%s\n[%llu,%llu,%llu,\"%s\",%lld,%lld]",
                     i == 0 ? "" : ",",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.group), s.name,
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs));
    }
    std::fputs("\n]\n", f);
    return std::fclose(f) == 0;
}

std::map<std::string, double>
totalTimeMs(const std::vector<SpanRecord> &spans)
{
    std::map<std::string, double> total;
    for (const SpanRecord &s : spans)
        total[s.name] += msBetween(s.startNs, s.endNs);
    return total;
}

// ------------------------------------------------------------------
// Timed detectors
// ------------------------------------------------------------------

TimedDetector::TimedDetector(
    std::unique_ptr<lfm::detect::Detector> inner,
    const std::atomic<std::uint64_t> &parent)
    : inner_(std::move(inner)),
      spanName_(std::string("detect.") + inner_->name()),
      parent_(parent)
{
}

std::vector<lfm::detect::Finding>
TimedDetector::fromContext(const lfm::detect::AnalysisContext &ctx) const
{
    Span span(spanName_.c_str(),
              parent_.load(std::memory_order_relaxed));
    return inner_->fromContext(ctx);
}

std::vector<std::unique_ptr<lfm::detect::Detector>>
timedDetectors(const std::atomic<std::uint64_t> &parent)
{
    std::vector<std::unique_ptr<lfm::detect::Detector>> out;
    for (auto &d : lfm::detect::allDetectors())
        out.push_back(std::make_unique<TimedDetector>(std::move(d),
                                                      parent));
    return out;
}

std::vector<std::string>
detectorNames()
{
    std::vector<std::string> names;
    for (const auto &d : lfm::detect::allDetectors())
        names.emplace_back(d->name());
    return names;
}

// ------------------------------------------------------------------
// Statistics
// ------------------------------------------------------------------

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

double
tailQuantile(std::size_t samples, double nominal)
{
    if (samples == 0)
        return 0.5;
    const double n = static_cast<double>(samples);
    double q = nominal;
    while (q > 0.5 && n * (1.0 - q) < 10.0)
        q = std::round((q - 0.01) * 100.0) / 100.0;
    return std::max(q, 0.5);
}

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        failures.push_back(what);
    }
}

// ------------------------------------------------------------------
// Helpers
// ------------------------------------------------------------------

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h)
{
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
peakRssMb()
{
    rusage self{};
    rusage children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is in KiB on Linux.
    return static_cast<double>(self.ru_maxrss + children.ru_maxrss) /
           1024.0;
}

bool
makeDirs(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    return !ec;
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec))
            total += entry.file_size(ec);
    }
    return total;
}

unsigned
hostThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

bool
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return false;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            return ::sched_setaffinity(0, sizeof one, &one) == 0;
        }
    }
    return false;
}

std::int64_t
processCpuNs()
{
    auto ns = [](const timeval &tv) {
        return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
               static_cast<std::int64_t>(tv.tv_usec) * 1000;
    };
    rusage self{};
    rusage children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return ns(self.ru_utime) + ns(self.ru_stime) + ns(children.ru_utime) +
           ns(children.ru_stime);
}

std::int64_t
threadCpuNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

CpuCalibration::CpuCalibration(Timing timing)
    : timing_(timing), input_(std::size_t{1} << 17)
{
    std::uint64_t x = 0;
    for (std::uint32_t &v : input_)
        v = static_cast<std::uint32_t>(x = mix(x));
}

void
CpuCalibration::sample()
{
    auto now = [this] {
        return timing_ == Timing::Cpu ? threadCpuNs() : nowNs();
    };
    const std::int64_t t0 = now();
    work_ = input_;
    std::sort(work_.begin(), work_.end());
    sink_ ^= work_[work_.size() / 2];
    samples_.push_back(msBetween(t0, now()));
}

double
CpuCalibration::medianMs() const
{
    return median(samples_);
}

void
CpuCalibration::setScaled(Result &res, const std::string &name,
                          double value, const std::string &unit) const
{
    const double ms = medianMs();
    const double scale = ms > 0.0 ? kNominalMs / ms : 1.0;
    res.set(name, unit == "1/s" ? value / scale : value * scale, unit);
    res.notes["raw." + name] = std::to_string(value);
    res.notes["cpu_calibration_ms." + name] = std::to_string(ms);
}

std::uint64_t
cacheBytes(int level)
{
    const long v = ::sysconf(level == 2 ? _SC_LEVEL2_CACHE_SIZE
                                        : _SC_LEVEL3_CACHE_SIZE);
    return v > 0 ? static_cast<std::uint64_t>(v) : 0;
}

std::string
distribution(const std::vector<double> &samples)
{
    auto fmt = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return std::string(buf);
    };
    return fmt(percentile(samples, 0.5)) + "/" +
           fmt(percentile(samples, 0.9)) + "/" +
           fmt(percentile(samples, 1.0));
}

} // namespace perfbench
