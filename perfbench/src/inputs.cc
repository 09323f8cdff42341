#include "inputs.hh"

#include <sstream>
#include <vector>

#include "explore/randprog.hh"
#include "sim/policy.hh"
#include "support/random.hh"

namespace perfbench
{

using lfm::trace::Event;
using lfm::trace::EventKind;
using lfm::trace::ObjectId;
using lfm::trace::ObjectInfo;
using lfm::trace::ObjectKind;
using lfm::trace::ThreadId;
using lfm::trace::Trace;

lfm::trace::Trace
kernelTrace(const lfm::bugs::BugKernel &kernel, lfm::bugs::Variant variant,
            std::uint64_t seed)
{
    lfm::sim::RandomPolicy policy;
    lfm::sim::ExecOptions exec;
    exec.seed = seed;
    exec.maxDecisions = 4000;
    return lfm::sim::runProgram(kernel.factory(variant), policy, exec)
        .trace;
}

lfm::trace::Trace
randprogTrace(bool raceFree, int opsPerThread, std::uint64_t seed)
{
    lfm::explore::RandProgConfig config;
    config.threads = 4;
    config.variables = 6;
    config.mutexes = 3;
    config.opsPerThread = opsPerThread;
    config.alwaysLock = raceFree;
    config.consistentLocking = true;
    lfm::sim::RandomPolicy policy;
    lfm::sim::ExecOptions exec;
    exec.seed = seed;
    return lfm::sim::runProgram(
               lfm::explore::randomProgramFactory(config, seed), policy,
               exec)
        .trace;
}

std::string
rawLog(int threads, int opsPerThread, std::uint64_t seed)
{
    lfm::support::Rng rng(seed);
    constexpr int kLocks = 3;
    constexpr int kWords = 8;
    std::ostringstream out;
    out << "# synthetic pthread log, seed " << seed << "\n";
    std::uint64_t ts = 10;
    out << ts++ << " 1 thread_start\n";
    out << ts++ << " 1 alloc 0x8000 64\n";
    out << ts++ << " 1 write 0x8000 8\n";
    for (int t = 2; t < threads + 2; ++t)
        out << ts++ << " 1 create " << t << "\n";
    // Workers interleave through their timestamps; the importer's
    // merge orders them and honours lock blocking.
    std::uint64_t last = ts;
    for (int t = 2; t < threads + 2; ++t) {
        std::uint64_t wts = ts + rng.below(8);
        out << wts << " " << t << " thread_start\n";
        for (int i = 0; i < opsPerThread; ++i) {
            const bool locked = rng.chance(0.97);
            const int word = static_cast<int>(rng.below(kWords));
            const unsigned addr = rng.chance(0.1) ? 0x8008 + 8 * (word % 7)
                                                  : 0x2000 + 8 * word;
            // Each word has one lock, so only unlocked accesses race.
            const unsigned lock = 0x100 + 0x10 * ((addr / 8) % kLocks);
            const char *op = rng.chance(0.5) ? "read" : "write";
            if (locked)
                out << (wts += 1 + rng.below(6)) << " " << t
                    << " lock 0x" << std::hex << lock << std::dec << "\n";
            out << (wts += 1 + rng.below(6)) << " " << t << " " << op
                << " 0x" << std::hex << addr << std::dec << " 8\n";
            if (locked)
                out << (wts += 1 + rng.below(6)) << " " << t
                    << " unlock 0x" << std::hex << lock << std::dec
                    << "\n";
        }
        out << (wts += 1) << " " << t << " thread_exit\n";
        last = std::max(last, wts);
    }
    ts = last + 10;
    for (int t = 2; t < threads + 2; ++t)
        out << ts++ << " 1 join " << t << "\n";
    out << ts++ << " 1 free 0x8000\n";
    out << ts++ << " 1 thread_exit\n";
    return out.str();
}

namespace
{

/** Threads 0..n-1 begin, objects registered: variables 1..vars,
 * mutexes from `firstLock`. */
Trace
syntheticPrologue(int threads, int vars, ObjectId firstLock, int locks)
{
    Trace t;
    for (int v = 1; v <= vars; ++v)
        t.registerObject(ObjectInfo{static_cast<ObjectId>(v),
                                    ObjectKind::Variable,
                                    "v" + std::to_string(v), 0});
    for (int l = 0; l < locks; ++l)
        t.registerObject(ObjectInfo{firstLock + static_cast<ObjectId>(l),
                                    ObjectKind::Mutex,
                                    "m" + std::to_string(l), 0});
    for (int i = 0; i < threads; ++i) {
        t.registerThread(i, "T" + std::to_string(i));
        Event e;
        e.thread = i;
        e.kind = EventKind::ThreadBegin;
        t.append(e);
    }
    return t;
}

/** End every thread. */
void
syntheticEpilogue(Trace &t, int threads)
{
    for (int i = 0; i < threads; ++i) {
        Event e;
        e.thread = i;
        e.kind = EventKind::ThreadEnd;
        t.append(e);
    }
}

/**
 * `threads` threads step at random. A step is, with probability
 * `lockedShare`, a critical section under the lock assigned to its
 * variable (one to three accesses), else one unlocked access. A share
 * `hotShare` of the accesses goes to variable 1.
 */
Trace
synthetic(std::size_t events, std::uint64_t seed, int threads, int vars,
          int locks, double lockedShare, double hotShare)
{
    lfm::support::Rng rng(seed);
    constexpr ObjectId kFirstLock = 1000;
    Trace t = syntheticPrologue(threads, vars, kFirstLock, locks);
    auto pickVar = [&] {
        return rng.chance(hotShare)
                   ? ObjectId{1}
                   : 1 + rng.below(static_cast<std::uint64_t>(vars));
    };
    while (t.size() < events) {
        Event e;
        e.thread = static_cast<ThreadId>(
            rng.below(static_cast<std::uint64_t>(threads)));
        const ObjectId var = pickVar();
        const bool locked = rng.chance(lockedShare);
        const ObjectId lock =
            kFirstLock + static_cast<ObjectId>(var) %
                             static_cast<ObjectId>(locks);
        if (locked) {
            e.kind = EventKind::Lock;
            e.obj = lock;
            t.append(e);
        }
        const int accesses = locked ? 1 + static_cast<int>(rng.below(3)) : 1;
        for (int i = 0; i < accesses; ++i) {
            e.kind = rng.chance(0.5) ? EventKind::Read : EventKind::Write;
            e.obj = var;
            t.append(e);
        }
        if (locked) {
            e.kind = EventKind::Unlock;
            e.obj = lock;
            t.append(e);
        }
    }
    syntheticEpilogue(t, threads);
    return t;
}

} // namespace

lfm::trace::Trace
hotTrace(std::size_t events, std::uint64_t seed)
{
    return synthetic(events, seed, 4, 16, 2, 0.97, 0.7);
}

lfm::trace::Trace
wideTrace(std::size_t events, std::uint64_t seed)
{
    return synthetic(events, seed, 8, 64, 8, 0.97, 0.0);
}

} // namespace perfbench
