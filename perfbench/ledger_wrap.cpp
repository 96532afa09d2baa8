/**
 * @file
 * Layer timers for the traced paper harnesses (perfbench_ledger_<h>).
 *
 * CMakeLists.txt links each bench/ harness a second time with
 * `--wrap` on the library calls below, so a harness's call into the
 * library lands here, is timed, and goes on to the real function.
 * Nothing in src/ or bench/ changes. At exit the process appends one
 * JSON line to the file named by PERFBENCH_LEDGER:
 *
 *   init, exit     steady_clock seconds when this file's static
 *                  constructor and destructor ran (CLOCK_MONOTONIC,
 *                  the clock run.py reads, so it can time start-up
 *                  and teardown from outside)
 *   any_s          wall time during which at least one timed call was
 *                  in flight, on any thread
 *   generate_s, decode_s, replay_s
 *                  thread-seconds spent in each layer, exclusive of
 *                  the layers nested inside it (a replay call's
 *                  decode counts as decode)
 *
 * The symbol names are the Itanium C++ ABI manglings of the public
 * functions (libstdc++ std::string); a changed signature shows up as
 * an undefined __real_ symbol when the traced harnesses link.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "core/mbbp.hh"
#include "fetch/dual_block_engine.hh"
#include "fetch/two_ahead_engine.hh"

using namespace mbbp;

namespace
{

using Clock = std::chrono::steady_clock;

enum Layer { Generate, Decode, Replay, NumLayers };

double
seconds(Clock::time_point t)
{
    return std::chrono::duration<double>(t.time_since_epoch()).count();
}

struct Ledger
{
    std::mutex mu;
    int active = 0;                 //!< timed calls in flight
    Clock::time_point anySince;
    double any = 0;
    double layer[NumLayers] = {};
    Clock::time_point init = Clock::now();

    ~Ledger()
    {
        const char *path = std::getenv("PERFBENCH_LEDGER");
        if (!path)
            return;
        const Clock::time_point done = Clock::now();
        if (std::FILE *f = std::fopen(path, "a")) {
            std::fprintf(f,
                         "{\"init\":%.9f,\"exit\":%.9f,\"any_s\":%.9f,"
                         "\"generate_s\":%.9f,\"decode_s\":%.9f,"
                         "\"replay_s\":%.9f}\n",
                         seconds(init), seconds(done), any,
                         layer[Generate], layer[Decode], layer[Replay]);
            std::fclose(f);
        }
    }
};

Ledger ledger;

/** This thread's open timed calls, innermost last. */
thread_local std::vector<std::pair<Layer, Clock::time_point>> open;

/** Times one call for as long as it lives. */
struct Timed
{
    explicit Timed(Layer l)
    {
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> g(ledger.mu);
        if (!open.empty())
            ledger.layer[open.back().first] +=
                std::chrono::duration<double>(now - open.back().second)
                    .count();
        open.push_back({ l, now });
        if (ledger.active++ == 0)
            ledger.anySince = now;
    }

    ~Timed()
    {
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> g(ledger.mu);
        ledger.layer[open.back().first] +=
            std::chrono::duration<double>(now - open.back().second)
                .count();
        open.pop_back();
        if (!open.empty())
            open.back().second = now;
        if (--ledger.active == 0)
            ledger.any += std::chrono::duration<double>(
                              now - ledger.anySince)
                              .count();
    }
};

} // namespace

// Each wrapped function: the real one under its __real_ name, and the
// timed __wrap_ entry the harness's calls are redirected to. Member
// functions take `this` as their first argument.
#define MBBP_LEDGER_WRAP(LAYER, RET, SYM, PARAMS, ARGS)               \
    RET real_##SYM PARAMS asm("__real_" #SYM);                        \
    RET wrap_##SYM PARAMS asm("__wrap_" #SYM);                        \
    RET wrap_##SYM PARAMS                                             \
    {                                                                 \
        Timed t(LAYER);                                               \
        return real_##SYM ARGS;                                       \
    }

// One symbol per line, alone: CMakeLists.txt reads the --wrap list
// from these lines.
MBBP_LEDGER_WRAP(Generate, const InMemoryTrace &,
    _ZN4mbbp10TraceCache3getERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    (TraceCache * self, const std::string &name), (self, name))

MBBP_LEDGER_WRAP(Decode, DecodedTrace,
    _ZN4mbbp12DecodedTrace5buildERKNS_13InMemoryTraceERKNS_12ICacheConfigE,
    (const InMemoryTrace &trace, const ICacheConfig &geom),
    (trace, geom))

MBBP_LEDGER_WRAP(Replay, FetchStats,
    _ZNK4mbbp14FetchSimulator3runERKNS_13InMemoryTraceE,
    (const FetchSimulator *self, const InMemoryTrace &trace),
    (self, trace))

MBBP_LEDGER_WRAP(Replay, FetchStats,
    _ZN4mbbp15DualBlockEngine3runERKNS_13InMemoryTraceE,
    (DualBlockEngine * self, const InMemoryTrace &trace), (self, trace))

MBBP_LEDGER_WRAP(Replay, FetchStats,
    _ZN4mbbp14TwoAheadEngine3runERKNS_13InMemoryTraceE,
    (TwoAheadEngine * self, const InMemoryTrace &trace), (self, trace))

MBBP_LEDGER_WRAP(Replay, SuiteResult,
    _ZN4mbbp8runSuiteERKNS_9SimConfigERNS_10TraceCacheERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaISB_EEbPKNS_11CancelTokenE,
    (const SimConfig &cfg, TraceCache &traces,
     const std::vector<std::string> &names, bool shared_decode,
     const CancelToken *cancel),
    (cfg, traces, names, shared_decode, cancel))

MBBP_LEDGER_WRAP(Replay, AccuracyResult,
    _ZN4mbbp14scalarAccuracyERKNS_13InMemoryTraceEjjb,
    (const InMemoryTrace &trace, unsigned history_bits, unsigned num_phts,
     bool gshare),
    (trace, history_bits, num_phts, gshare))

MBBP_LEDGER_WRAP(Replay, AccuracyResult,
    _ZN4mbbp18blockedPhtAccuracyERKNS_13InMemoryTraceEjRKNS_12ICacheConfigE,
    (const InMemoryTrace &trace, unsigned history_bits,
     const ICacheConfig &icache),
    (trace, history_bits, icache))

MBBP_LEDGER_WRAP(Replay, TwoBlockAheadStats,
    _ZN4mbbp13TwoBlockAhead8simulateERKNS_13InMemoryTraceE,
    (TwoBlockAhead * self, const InMemoryTrace &trace), (self, trace))

MBBP_LEDGER_WRAP(Replay, BacStats,
    _ZN4mbbp18BranchAddressCache8simulateERKNS_13InMemoryTraceE,
    (BranchAddressCache * self, const InMemoryTrace &trace),
    (self, trace))
