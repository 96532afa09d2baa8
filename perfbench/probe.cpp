/**
 * @file
 * perfbench_probe: the in-process half of the mbbp benchmark.
 * perfbench/run.py builds and drives it; every subcommand prints one
 * JSON object on stdout and exits 0 unless it could not run at all.
 *
 *   info                       active/detected SIMD level
 *   setup                      a paper harness's set-up: generate the
 *                              suite through bench/'s benchTraces()
 *   sweep   --draw grid|realism|paper --seed S --insts N
 *           --seconds T --trace 0|1
 *                              cold sweep repetitions of a seeded
 *                              draw (runSweep, batched, nproc
 *                              threads); with --trace 1 also the
 *                              per-layer ledger and the 1-thread
 *                              per-path probe
 *   serve   --port P --seed S --insts N --seconds T
 *                              open-loop client against a running
 *                              sweep_serverd, then an in-process
 *                              check of every /result body
 *
 * All timing uses std::chrono::steady_clock around calls into the
 * library's public API; nothing inside src/ is instrumented.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util.hh"
#include "core/mbbp.hh"
#include "serve/http.hh"
#include "serve/spec_hash.hh"
#include "sweep/batch_replay.hh"
#include "sweep/lane_soa.hh"
#include "sweep/sweep_report.hh"
#include "sweep/sweep_runner.hh"
#include "sweep/sweep_spec.hh"
#include "util/json.hh"
#include "util/simd.hh"

using namespace mbbp;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** splitmix64: the draws must not depend on the C++ library's
 *  distribution implementations. */
struct Rng
{
    uint64_t s;

    uint64_t
    next()
    {
        uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    unsigned below(unsigned n) { return unsigned(next() % n); }
    double unit() { return double(next() >> 11) * 0x1.0p-53; }

    const char *
    pick(std::initializer_list<const char *> xs)
    {
        return xs.begin()[below(unsigned(xs.size()))];
    }
};

/** One seeded sweep: programs, trace length and explicit points. */
struct Draw
{
    std::string name;
    std::vector<std::string> programs;
    std::size_t insts = 0;
    std::vector<std::vector<SweepParam>> points;

    SweepSpec
    spec() const
    {
        SweepSpec s;
        s.setName(name);
        s.setBenchmarks(programs);
        s.setInstructions(insts);
        for (const auto &p : points)
            s.addPoint(p);
        return s;
    }

    /** The JSON text sweep_serverd and sweep_cli accept. */
    std::string
    json() const
    {
        JsonWriter w;
        w.beginObject();
        w.value("name", name);
        w.beginArray("benchmarks");
        for (const auto &p : programs)
            w.element(p);
        w.endArray();
        w.value("instructions", uint64_t(insts));
        w.beginArray("points");
        for (const auto &pt : points) {
            w.beginObject();
            for (const auto &[k, v] : pt)
                w.value(k, v);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        return w.str();
    }
};

/** A SoA-eligible point at the paper-default geometry: NLS targets,
 *  perfect i-cache, power-of-two tables. */
std::vector<SweepParam>
eligiblePoint(Rng &rng, unsigned num_blocks)
{
    std::vector<SweepParam> p = {
        { "numBlocks", std::to_string(num_blocks) },
        { "historyBits", rng.pick({ "6", "8", "10", "12" }) },
        { "numSelectTables", rng.pick({ "1", "2", "4", "8" }) },
        { "bitEntries", rng.pick({ "0", "64", "256", "1024" }) },
        { "delayedPhtUpdate", rng.pick({ "false", "true" }) },
        { "nearBlock", rng.pick({ "false", "true" }) },
    };
    if (num_blocks == 2)
        p.push_back({ "doubleSelect", rng.pick({ "false", "true" }) });
    return p;
}

/**
 * Give @p field one value per point of @p points (those for which
 * @p applies holds): a seeded permutation of @p values repeated, so
 * every seed draws the same mix of values and only their combinations
 * change. That keeps a run's amount of work nearly seed-independent.
 */
void
balancedField(Rng &rng, std::vector<std::vector<SweepParam>> &points,
              const char *field, std::initializer_list<const char *> values,
              const std::function<bool(std::size_t)> &applies = {})
{
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < points.size(); ++i)
        if (!applies || applies(i))
            idx.push_back(i);
    std::vector<const char *> col;
    for (std::size_t k = 0; k < idx.size(); ++k)
        col.push_back(values.begin()[k % values.size()]);
    for (std::size_t k = col.size(); k > 1; --k)
        std::swap(col[k - 1], col[rng.below(unsigned(k))]);
    for (std::size_t k = 0; k < idx.size(); ++k)
        points[idx[k]].push_back({ field, col[k] });
}

/** Like balancedField, for two fields at once: every (a, b) pair is
 *  dealt equally often. */
void
balancedPair(Rng &rng, std::vector<std::vector<SweepParam>> &points,
             const char *field_a, std::initializer_list<const char *> as,
             const char *field_b, std::initializer_list<const char *> bs,
             const std::function<bool(std::size_t)> &applies)
{
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < points.size(); ++i)
        if (applies(i))
            idx.push_back(i);
    std::vector<std::pair<const char *, const char *>> col;
    for (std::size_t k = 0; k < idx.size(); ++k)
        col.push_back({ as.begin()[k / bs.size() % as.size()],
                        bs.begin()[k % bs.size()] });
    for (std::size_t k = col.size(); k > 1; --k)
        std::swap(col[k - 1], col[rng.below(unsigned(k))]);
    for (std::size_t k = 0; k < idx.size(); ++k) {
        points[idx[k]].push_back({ field_a, col[k].first });
        points[idx[k]].push_back({ field_b, col[k].second });
    }
}

/**
 * sweep_grid: one geometry, every engine kind, all lanes columnar.
 * Each kind gets one lane per (historyBits, numSelectTables) pair --
 * the two fields that size a lane's tables -- so every kind's tile has
 * the same footprint for every seed; the seed deals out the other
 * fields, balanced within the kind.
 */
Draw
drawGrid(uint64_t seed, std::size_t insts)
{
    Rng rng{ seed * 0x100000001b3ull + 1 };
    Draw d{ "sweep_grid", specAllNames(), insts, {} };
    for (unsigned nb = 1; nb <= 4; ++nb)
        for (const char *h : { "6", "8", "10", "12" })
            for (const char *sts : { "1", "2", "4", "8" })
                d.points.push_back({ { "numBlocks", std::to_string(nb) },
                                     { "historyBits", h },
                                     { "numSelectTables", sts } });
    for (std::size_t kind = 0; kind < 4; ++kind) {
        auto &pts = d.points;
        auto mine = [kind](std::size_t i) { return i / 16 == kind; };
        balancedField(rng, pts, "bitEntries", { "0", "64", "256", "1024" },
                      mine);
        balancedField(rng, pts, "delayedPhtUpdate", { "false", "true" },
                      mine);
        balancedField(rng, pts, "nearBlock", { "false", "true" }, mine);
        if (kind == 1)
            balancedField(rng, pts, "doubleSelect", { "false", "true" },
                          mine);
    }
    return d;
}

/**
 * sweep_realism: six geometries, and every lane leaves the columnar
 * path through a BTB target array or a finite i-cache. Each
 * (geometry, numBlocks) group holds one lane of each, so every group
 * batches on the reference lanes. Within each block width -- the
 * geometry field that sets the replay cost -- the BTB lanes cover
 * every (targetEntries, btbAssoc) pair once and the i-cache lanes
 * every (icacheLines, icacheAssoc) pair once; the seed decides which
 * group gets which pair and deals out the remaining fields.
 */
Draw
drawRealism(uint64_t seed, std::size_t insts)
{
    Rng rng{ seed * 0x100000001b3ull + 2 };
    Draw d{ "sweep_realism", specAllNames(), insts, {} };
    for (const char *bw : { "4", "8" })
        for (const char *type : { "normal", "extend", "align" })
            for (unsigned k = 0; k < 4; ++k)
                d.points.push_back({ { "blockWidth", bw },
                                     { "cacheType", type },
                                     { "numBlocks", k < 2 ? "1" : "2" } });
    for (std::size_t half = 0; half < 2; ++half) {
        auto &pts = d.points;
        auto mine = [half](std::size_t i) { return i / 12 == half; };
        auto btb = [half](std::size_t i) {
            return i / 12 == half && i % 2 == 0;
        };
        auto icache = [half](std::size_t i) {
            return i / 12 == half && i % 2 == 1;
        };
        balancedField(rng, pts, "historyBits", { "8", "10", "12" }, mine);
        balancedField(rng, pts, "numSelectTables", { "1", "4", "8" }, mine);
        balancedPair(rng, pts, "targetEntries", { "128", "512" },
                     "btbAssoc", { "1", "2", "4" }, btb);
        balancedField(rng, pts, "targetKind", { "btb" }, btb);
        balancedPair(rng, pts, "icacheLines", { "256", "1024" },
                     "icacheAssoc", { "1", "2", "4" }, icache);
        balancedField(rng, pts, "icacheMissPenalty", { "5", "10", "20" },
                      icache);
    }
    return d;
}

/** paper_repro's sweep-path view: the Fig. 8 history x select-table
 *  x selection grid, the largest paper figure. */
Draw
drawPaper(std::size_t insts)
{
    Draw d{ "fig8_grid", specAllNames(), insts, {} };
    for (unsigned h = 9; h <= 12; ++h)
        for (const char *sts : { "1", "2", "4", "8" })
            for (const char *dbl : { "false", "true" })
                d.points.push_back({ { "numBlocks", "2" },
                                     { "historyBits",
                                       std::to_string(h) },
                                     { "numSelectTables", sts },
                                     { "doubleSelect", dbl } });
    return d;
}

// ---- serve session schedule --------------------------------------

constexpr double kServeRate = 12.0;        //!< jobs per second
constexpr std::size_t kResubmitWindow = 32; //!< < result-cache entries

struct ServeJob
{
    double due = 0.0;           //!< seconds after the schedule start
    std::size_t spec = 0;       //!< index into ServePlan::specs
};

struct ServePlan
{
    std::vector<Draw> specs;    //!< fresh specs, in first-use order
    std::vector<ServeJob> jobs;
};

/**
 * Open-loop arrivals at kServeRate over @p seconds. Every fourth job
 * is an exact resubmission of a recent fresh spec (a result-cache
 * hit); the rest are fresh specs of 1-8 eligible configs over 2-6
 * programs. The job count, the set of exponential inter-arrival gaps
 * (their quantiles) and the set of job sizes are the same for every
 * seed; the seed shuffles them and draws the programs and configs, so
 * the offered work does not change with the seed.
 */
ServePlan
servePlan(uint64_t seed, double seconds, std::size_t insts)
{
    Rng rng{ seed * 0x100000001b3ull + 3 };
    auto shuffle = [&rng](auto &v) {
        for (std::size_t k = v.size(); k > 1; --k)
            std::swap(v[k - 1], v[rng.below(unsigned(k))]);
    };
    const std::size_t n =
        std::max<std::size_t>(1, std::size_t(kServeRate * seconds));
    std::vector<double> gaps;
    for (std::size_t k = 0; k < n; ++k)
        gaps.push_back(-std::log(1.0 - (double(k) + 0.5) / double(n)) /
                       kServeRate);
    shuffle(gaps);
    const std::size_t fresh = n - n / 4;
    std::vector<std::pair<unsigned, unsigned>> sizes;  // configs, programs
    for (std::size_t k = 0; k < fresh; ++k)
        sizes.push_back({ unsigned(1 + k % 8), unsigned(2 + k / 8 % 5) });
    shuffle(sizes);

    const std::vector<std::string> all = specAllNames();
    ServePlan plan;
    double t = 0.0;
    unsigned cfg_counter = 0;
    for (std::size_t i = 0; i < n; ++i) {
        t += gaps[i];
        if (i % 4 == 3) {
            std::size_t window =
                std::min(plan.specs.size(), kResubmitWindow);
            std::size_t back = rng.below(unsigned(window));
            plan.jobs.push_back({ t, plan.specs.size() - 1 - back });
            continue;
        }
        auto [ncfg, nprog] = sizes[plan.specs.size()];
        Draw d;
        d.name = "job-" + std::to_string(plan.specs.size());
        d.insts = insts;
        std::vector<std::string> pool = all;
        for (unsigned k = 0; k < nprog; ++k) {
            std::size_t j = k + rng.below(unsigned(pool.size() - k));
            std::swap(pool[k], pool[j]);
            d.programs.push_back(pool[k]);
        }
        for (unsigned k = 0; k < ncfg; ++k)
            d.points.push_back(
                eligiblePoint(rng, cfg_counter++ % 4 + 1));
        plan.specs.push_back(std::move(d));
        plan.jobs.push_back({ t, plan.specs.size() - 1 });
    }
    return plan;
}

// ---- helpers ---------------------------------------------------

/** Run fn(i) for i in [0, n) on @p threads std::threads. */
void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{ 0 };
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < std::max(1u, threads); ++t)
        ts.emplace_back([&] {
            for (std::size_t i; (i = next++) < n;)
                fn(i);
        });
    for (auto &t : ts)
        t.join();
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

/** Distinct decode geometries, keyed like TraceCache::decoded. */
std::vector<ICacheConfig>
geometries(const std::vector<SweepJob> &jobs)
{
    std::map<std::tuple<int, unsigned, unsigned>, ICacheConfig> m;
    for (const SweepJob &j : jobs) {
        const ICacheConfig &g = j.config.engine.icache;
        m.emplace(std::make_tuple(int(g.type), g.blockWidth,
                                  g.lineSize),
                  g);
    }
    std::vector<ICacheConfig> out;
    for (auto &[k, g] : m)
        out.push_back(g);
    return out;
}

std::string
hex(uint64_t h)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

void
numbers(JsonWriter &w, const std::string &key,
        const std::vector<double> &xs)
{
    w.beginArray(key);
    for (double x : xs)
        w.element(x);
    w.endArray();
}

/** An unnamed array, as an element of an enclosing array. */
void
numbers(JsonWriter &w, const std::vector<double> &xs)
{
    w.beginArray();
    for (double x : xs)
        w.element(x);
    w.endArray();
}

// ---- sweep workloads -------------------------------------------

struct SweepOpts
{
    std::string draw = "grid";
    uint64_t seed = 1;
    std::size_t insts = 100000;
    double seconds = 10.0;
    bool trace = false;
    unsigned threads = 1;
    unsigned minReps = 3;
};

Draw
makeDraw(const SweepOpts &o)
{
    if (o.draw == "grid")
        return drawGrid(o.seed, o.insts);
    if (o.draw == "realism")
        return drawRealism(o.seed, o.insts);
    if (o.draw == "paper")
        return drawPaper(o.insts);
    throw std::runtime_error("unknown draw " + o.draw);
}

/** Coverage the draw is built to have: a drifting draw must not
 *  quietly change what its workload measures. */
int
expectedCoveragePermille(const std::string &draw)
{
    if (draw == "realism")
        return 0;
    return 1000;    // grid and paper (fig8) are all eligible
}

/** What one cold repetition measured. */
struct Rep
{
    double setup = 0, generate = 0, decode = 0, replay = 0,
           report = 0, wall = 0;
    double busy = 0;            //!< sum of SweepJobResult::seconds
    double replayWall = 0;      //!< SweepResult::wallSeconds
    std::size_t reportBytes = 0;
    uint64_t digest = 0;
    std::vector<double> jobDone;    //!< completion times, in order
};

/**
 * One cold run of @p spec: fresh TraceCache, set-up (generate and
 * decode every (program, geometry) on @p threads), runSweep, report.
 * Traced repetitions split set-up into a generate phase and a decode
 * phase so each layer is timed on its own.
 */
Rep
coldRep(const SweepSpec &spec, const std::vector<SweepJob> &jobs,
        const std::vector<ICacheConfig> &geoms, std::size_t insts,
        unsigned threads, bool traced,
        const std::function<void(TraceCache &, const SweepResult &)>
            &after = {})
{
    Rep r;
    const std::vector<std::string> &progs = spec.benchmarks();
    Clock::time_point t_replay;
    Clock::time_point t0 = Clock::now();
    TraceCache cache(insts);
    if (traced) {
        Clock::time_point tg = Clock::now();
        parallelFor(progs.size(), threads,
                    [&](std::size_t i) { cache.get(progs[i]); });
        r.generate = since(tg);
        Clock::time_point td = Clock::now();
        parallelFor(progs.size() * geoms.size(), threads,
                    [&](std::size_t i) {
            cache.decoded(progs[i / geoms.size()],
                          geoms[i % geoms.size()]);
        });
        r.decode = since(td);
        r.setup = since(t0);
    } else {
        parallelFor(progs.size(), threads, [&](std::size_t i) {
            cache.get(progs[i]);
            for (const ICacheConfig &g : geoms)
                cache.decoded(progs[i], g);
        });
        r.setup = since(t0);
    }

    SweepOptions opts;
    opts.threads = threads;
    opts.batchedReplay = true;
    // A job's latency: from the sweep's start until its result is
    // complete (what a streaming client sees as progress).
    opts.progress = [&](const SweepProgress &) {
        r.jobDone.push_back(since(t_replay));
    };
    Clock::time_point tr = t_replay = Clock::now();
    SweepResult res = runSweepJobs(jobs, cache, progs, opts);
    res.name = spec.name();
    r.replay = since(tr);
    r.replayWall = res.wallSeconds;
    for (const SweepJobResult &j : res.jobs)
        r.busy += j.seconds;

    Clock::time_point tp = Clock::now();
    std::string json = sweepToJson(res) + "\n";
    std::string csv = sweepToCsv(res);
    r.report = since(tp);
    r.wall = since(t0);
    r.reportBytes = json.size() + csv.size();
    r.digest = serve::fnv1a64(csv, serve::fnv1a64(json));
    if (after)
        after(cache, res);
    return r;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Median wall time of @p reps calls to @p fn. */
double
timeIt(unsigned reps, const std::function<void()> &fn)
{
    std::vector<double> ts;
    for (unsigned i = 0; i < reps; ++i) {
        Clock::time_point t0 = Clock::now();
        fn();
        ts.push_back(since(t0));
    }
    return median(ts);
}

SimConfig
configOf(const std::vector<SweepParam> &params)
{
    SimConfig cfg = SimConfig::paperDefault();
    for (const auto &[k, v] : params)
        applyConfigField(cfg, k, v);
    return cfg;
}

/**
 * The 1-thread per-path probe on one program: the solo engine, the
 * columnar kernel and the two reference lanes, each asserted
 * field-exact against FetchSimulator::run(dec) lane by lane, plus the
 * share of a paper-default run(InMemoryTrace) spent re-decoding.
 */
void
pathProbe(JsonWriter &w, std::size_t insts, unsigned &checked,
          unsigned &mismatched)
{
    TraceCache cache(insts);
    const std::string prog = "gcc";
    const InMemoryTrace &trace = cache.get(prog);
    const DecodedTrace &dec =
        *cache.decoded(prog, SimConfig::paperDefault().engine.icache);
    const double blocks = double(dec.numBlocks());
    constexpr unsigned kReps = 5;
    constexpr unsigned kLanes = 8;

    auto exact = [&](const std::vector<SimConfig> &cfgs,
                     const std::vector<FetchStats> &got) {
        for (std::size_t l = 0; l < cfgs.size(); ++l) {
            ++checked;
            if (!(FetchSimulator(cfgs[l]).run(dec) == got[l]))
                ++mismatched;
        }
    };

    const std::pair<const char *, unsigned> kinds[] = {
        { "single", 1 }, { "dual", 2 }, { "multi", 4 }
    };
    for (auto [kind, nb] : kinds) {
        SimConfig cfg = SimConfig::paperDefault();
        cfg.numBlocks = nb;
        double t = timeIt(kReps, [&] { FetchSimulator(cfg).run(dec); });
        w.value(std::string("fetch.solo_mlane_blocks_per_s.") + kind,
                blocks / t / 1e6);
    }

    auto lanes = [&](unsigned nb,
                     const std::function<void(SimConfig &, unsigned)>
                         &vary) {
        std::vector<SimConfig> cfgs;
        for (unsigned l = 0; l < kLanes; ++l) {
            SimConfig c = SimConfig::paperDefault();
            c.numBlocks = nb;
            c.engine.historyBits = 6 + l;
            vary(c, l);
            cfgs.push_back(c);
        }
        return cfgs;
    };
    auto laneRate = [&](const std::string &key,
                        const std::vector<SimConfig> &cfgs,
                        bool eligible) {
        BatchEngineKind kind = BatchKey::of(cfgs[0]).kind;
        for (const SimConfig &c : cfgs)
            if (laneSoaEligible(kind, c.engine) != eligible)
                throw std::runtime_error(key +
                                         ": probe lane on wrong path");
        std::vector<FetchStats> got;
        double t = timeIt(kReps, [&] { got = batchReplay(cfgs, dec); });
        exact(cfgs, got);
        w.value(key, kLanes * blocks / t / 1e6);
    };
    for (auto [kind, nb] : kinds)
        laneRate(std::string("sweep.soa_mlane_blocks_per_s.") + kind,
                 lanes(nb, [](SimConfig &c, unsigned l) {
                     c.engine.numSelectTables = 1u << (l % 4);
                 }),
                 true);
    laneRate("sweep.ref_mlane_blocks_per_s.btb",
             lanes(2, [](SimConfig &c, unsigned l) {
                 c.engine.targetKind = TargetKind::Btb;
                 c.engine.targetEntries = 64u << (l % 4);
             }),
             false);
    laneRate("sweep.ref_mlane_blocks_per_s.finite_icache",
             lanes(2, [](SimConfig &c, unsigned l) {
                 c.engine.icacheLines = 128u << (l % 4);
             }),
             false);

    const SimConfig def = SimConfig::paperDefault();
    double t_mem = timeIt(kReps, [&] { FetchSimulator(def).run(trace); });
    double t_dec = timeIt(kReps, [&] { FetchSimulator(def).run(dec); });
    w.value("core.per_run_decode_share",
            std::max(0.0, (t_mem - t_dec) / t_mem));
}

int
cmdSweep(const SweepOpts &o)
{
    const Draw draw = makeDraw(o);
    const SweepSpec spec = draw.spec();
    const std::vector<SweepJob> jobs = spec.expand();
    const std::vector<ICacheConfig> geoms = geometries(jobs);

    // Lane coverage of the draw, with the fallback reasons.
    unsigned eligible = 0;
    std::map<std::string, unsigned> fallbacks;
    for (const SweepJob &j : jobs) {
        SoaFallback f = laneSoaFallback(BatchKey::of(j.config).kind,
                                        j.config.engine);
        if (f == SoaFallback::Eligible)
            ++eligible;
        else
            ++fallbacks[soaFallbackName(f)];
    }
    const int coverage = int(1000 * eligible / jobs.size());
    const bool coverage_ok =
        coverage == expectedCoveragePermille(o.draw);

    const double insts_per_rep =
        double(jobs.size() * draw.programs.size() * o.insts);

    // Oracle spot check after the first repetition: a few seeded
    // (config, program) cells against the solo engine.
    unsigned oracle_checked = 0, oracle_bad = 0;
    Rng pick{ o.seed ^ 0x5eed };
    const std::function<void(TraceCache &, const SweepResult &)>
        oracle = [&](TraceCache &cache, const SweepResult &res) {
        for (unsigned k = 0; k < 4; ++k) {
            const SweepJobResult &jr =
                res.jobs[pick.below(unsigned(res.jobs.size()))];
            const std::string &prog =
                draw.programs[pick.below(unsigned(draw.programs.size()))];
            FetchStats want = FetchSimulator(jr.job.config)
                                  .run(*cache.decoded(
                                      prog, jr.job.config.engine.icache));
            ++oracle_checked;
            if (!(jr.result.perProgram.at(prog) == want))
                ++oracle_bad;
        }
    };

    // The first cold run in a process also pays one-time costs (heap
    // growth, pool start-up) and runs several times slower than the
    // rest; it is checked but not timed, so the medians describe
    // repeated sweeps.
    const Rep warm = coldRep(spec, jobs, geoms, o.insts, o.threads, false,
                             oracle);
    std::vector<Rep> reps;
    const double untraced_budget = o.trace ? 0.0 : o.seconds;
    Clock::time_point start = Clock::now();
    while (reps.size() < o.minReps || since(start) < untraced_budget)
        reps.push_back(coldRep(spec, jobs, geoms, o.insts, o.threads,
                               false));

    JsonWriter w;
    w.beginObject();
    w.value("draw", o.draw);
    w.value("configs", uint64_t(jobs.size()));
    w.value("programs", uint64_t(draw.programs.size()));
    w.value("geometries", uint64_t(geoms.size()));
    w.value("insts_per_rep", insts_per_rep);
    w.value("coverage_permille", int64_t(coverage));
    w.value("coverage_ok", coverage_ok);
    w.beginObject("fallbacks");
    for (const auto &[name, n] : fallbacks)
        w.value(name, uint64_t(n));
    w.endObject();
    w.value("oracle_checked", uint64_t(oracle_checked));
    w.value("oracle_mismatched", uint64_t(oracle_bad));

    std::vector<double> setup, wall, replay;
    w.value("warmup_wall_s", warm.wall);
    w.beginArray("digests");
    w.element(hex(warm.digest));
    for (const Rep &r : reps) {
        w.element(hex(r.digest));
        setup.push_back(r.setup);
        wall.push_back(r.wall);
        replay.push_back(r.replay + r.report);
    }
    w.endArray();
    numbers(w, "setup_s", setup);
    numbers(w, "wall_s", wall);
    numbers(w, "timed_s", replay);
    w.beginArray("job_done_s");
    for (const Rep &r : reps)
        numbers(w, r.jobDone);
    w.endArray();

    if (o.trace) {
        // The same cold run with each layer timed on its own.
        std::vector<Rep> traced;
        for (unsigned i = 0; i < o.minReps; ++i)
            traced.push_back(coldRep(spec, jobs, geoms, o.insts,
                                     o.threads, true));
        std::vector<double> gen, dec, rep, rpt, twall, busy;
        for (const Rep &r : traced) {
            gen.push_back(r.generate);
            dec.push_back(r.decode);
            rep.push_back(r.replay);
            rpt.push_back(r.report);
            twall.push_back(r.wall);
            busy.push_back(r.busy / (o.threads * r.replayWall));
        }
        w.beginArray("traced_digests");
        for (const Rep &r : traced)
            w.element(hex(r.digest));
        w.endArray();

        // Decoded artifact size, and the 1-thread replay for scaling.
        TraceCache cache(o.insts);
        double decoded_bytes = 0, trace_insts = 0;
        for (const std::string &p : draw.programs) {
            trace_insts += double(cache.get(p).size()) * double(geoms.size());
            for (const ICacheConfig &g : geoms)
                decoded_bytes += double(cache.decoded(p, g)->bytes());
        }
        SweepOptions one;
        one.threads = 1;
        one.batchedReplay = true;
        double t1 = timeIt(1, [&] {
            runSweepJobs(jobs, cache, draw.programs, one);
        });
        SweepOptions all = one;
        all.threads = o.threads;
        double tn = timeIt(3, [&] {
            runSweepJobs(jobs, cache, draw.programs, all);
        });

        const double gen_insts = double(draw.programs.size() * o.insts);
        w.beginObject("layers");
        w.value("workload.generate_minst_per_s",
                gen_insts / median(gen) / 1e6);
        w.value("trace.decode_minst_per_s",
                gen_insts * double(geoms.size()) / median(dec) / 1e6);
        w.value("trace.bytes_per_inst", decoded_bytes / trace_insts);
        w.value("trace.resident_mb",
                double(cache.decodedResidentBytes()) / (1 << 20));
        w.value("sweep.lane_coverage_permille", int64_t(coverage));
        w.value("sweep.lanes_total", uint64_t(jobs.size()));
        w.value("sweep.fallback_lanes.btb_target",
                uint64_t(fallbacks["btb_target"]));
        w.value("sweep.fallback_lanes.finite_icache",
                uint64_t(fallbacks["finite_icache"]));
        w.value("sweep.replay_s", median(rep));
        w.value("sweep.pool_busy_ratio", median(busy));
        w.value("sweep.thread_scaling", t1 / (o.threads * tn));
        w.value("report.serialize_s", median(rpt));
        w.value("report.mb_per_s",
                double(traced[0].reportBytes) / median(rpt) / 1e6);
        unsigned path_checked = 0, path_bad = 0;
        pathProbe(w, o.insts, path_checked, path_bad);
        w.endObject();
        w.value("path_checked", uint64_t(path_checked));
        w.value("path_mismatched", uint64_t(path_bad));

        // Ledger: the timed layers against the traced wall clock.
        std::vector<double> explained;
        for (const Rep &r : traced)
            explained.push_back(r.generate + r.decode + r.replay +
                                r.report);
        w.value("ledger_traced_wall_s", median(twall));
        w.value("ledger_untraced_wall_s", median(wall));
        w.value("ledger_explained_s", median(explained));
    }
    w.value("peak_rss_mb", peakRssMb());
    w.endObject();
    std::cout << w.str() << "\n";
    return 0;
}

/**
 * What a paper harness process pays before its first simulation: the
 * suite generated through bench/'s benchTraces() (MBBP_BENCH_INSTS,
 * one thread, as the harnesses call it). run.py times the whole
 * process, start-up included.
 */
int
cmdSetup()
{
    std::size_t insts = 0;
    for (const std::string &name : specAllNames())
        insts += bench::benchTraces().get(name).size();
    std::cout << "{\"insts\":" << insts << "}\n";
    return 0;
}

// ---- serve session client ----------------------------------------

struct JobSample
{
    std::size_t spec = 0;
    bool cached = false;
    bool ok = false;
    double due = 0, sent = 0, acked = 0;
    double queueMs = 0;
    std::string body;
};

std::string
stateOf(const std::string &line)
{
    try {
        JsonValue doc = JsonValue::parse(line);
        if (const JsonValue *s = doc.find("state"))
            return s->asString();
    } catch (const std::exception &) {
    }
    return "";
}

/** job.queued duration (ms) from a /jobs/<id>/trace document. */
double
queuedMs(const std::string &trace)
{
    JsonValue doc = JsonValue::parse(trace);
    if (const JsonValue *evs = doc.find("traceEvents"))
        for (const JsonValue &e : evs->items())
            if (const JsonValue *n = e.find("name"))
                if (n->asString() == "job.queued")
                    return e.find("dur")->asNumber() / 1e3;
    return 0.0;
}

int
cmdServe(uint16_t port, uint64_t seed, double seconds,
         std::size_t insts, unsigned threads)
{
    const ServePlan plan = servePlan(seed, seconds, insts);
    std::vector<std::string> texts;
    for (const Draw &d : plan.specs)
        texts.push_back(d.json());

    std::vector<JobSample> samples(plan.jobs.size());
    std::atomic<std::size_t> next{ 0 };
    const Clock::time_point t0 = Clock::now() +
        std::chrono::milliseconds(20);
    auto at = [&](Clock::time_point t) {
        return std::chrono::duration<double>(t - t0).count();
    };

    // At most `threads` connections: each worker takes the next due
    // job, so a stalled daemon delays later jobs and the delay shows
    // up in their lateness.
    auto worker = [&] {
        for (std::size_t i; (i = next++) < plan.jobs.size();) {
            const ServeJob &job = plan.jobs[i];
            JobSample &s = samples[i];
            s.spec = job.spec;
            s.due = job.due;
            std::this_thread::sleep_until(
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(job.due)));
            try {
                s.sent = at(Clock::now());
                serve::HttpResult res = serve::httpRequest(
                    port, "POST", "/jobs", texts[job.spec]);
                s.acked = at(Clock::now());
                if (res.status != 202)
                    continue;   // a refusal counts as a failure
                JsonValue doc = JsonValue::parse(res.body);
                s.cached = doc.find("cached") != nullptr;
                const std::string id = std::to_string(
                    uint64_t(doc.find("id")->asNumber()));
                std::string state = s.cached ? "done" : "";
                if (!s.cached) {
                    std::string err;
                    serve::httpStreamLines(
                        port, "/jobs/" + id + "/stream",
                        [&](const std::string &line) {
                            state = stateOf(line);
                            return state != "done" &&
                                   state != "failed" &&
                                   state != "cancelled";
                        },
                        err);
                }
                if (state != "done")
                    continue;
                serve::HttpResult body = serve::httpRequest(
                    port, "GET", "/jobs/" + id + "/result");
                s.ok = body.status == 200;
                s.body = std::move(body.body);
                if (!s.cached)  // now: the daemon prunes old terminal jobs
                    s.queueMs = queuedMs(
                        serve::httpRequest(port, "GET",
                                           "/jobs/" + id + "/trace")
                            .body);
            } catch (const std::exception &e) {
                std::cerr << "perfbench_probe: job " << i << ": "
                          << e.what() << "\n";
                s.ok = false;
            }
        }
    };
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < std::max(1u, threads); ++t)
        ts.emplace_back(worker);
    for (auto &t : ts)
        t.join();

    // Correctness: every /result body against the in-process report
    // of the same spec text (what sweep_cli would write).
    TraceCache cache(insts);
    SweepOptions opts;
    opts.threads = threads;
    opts.batchedReplay = true;
    std::vector<std::string> expected(plan.specs.size());
    std::vector<bool> have(plan.specs.size(), false);
    unsigned failed = 0;
    for (const JobSample &s : samples) {
        if (!s.ok) {
            ++failed;
            continue;
        }
        if (!have[s.spec]) {
            SweepSpec spec = SweepSpec::fromJson(texts[s.spec]);
            expected[s.spec] =
                sweepToJson(runSweep(spec, cache, opts)) + "\n";
            have[s.spec] = true;
        }
        if (s.body != expected[s.spec])
            ++failed;
    }

    JsonWriter w;
    w.beginObject();
    w.value("jobs", uint64_t(samples.size()));
    w.value("failed", uint64_t(failed));
    std::vector<double> lag, submit, queue, rtt;
    for (const JobSample &s : samples) {
        if (!s.ok)
            continue;
        lag.push_back((s.sent - s.due) * 1e3);
        submit.push_back((s.acked - s.sent) * 1e3);
        if (!s.cached)
            queue.push_back(s.queueMs);
    }
    for (int i = 0; i < 50; ++i) {
        Clock::time_point t = Clock::now();
        serve::httpRequest(port, "GET", "/healthz");
        rtt.push_back(since(t) * 1e3);
    }
    numbers(w, "lag_ms", lag);
    numbers(w, "submit_ms", submit);
    numbers(w, "queue_ms", queue);
    numbers(w, "healthz_ms", rtt);
    w.value("metrics_json",
            serve::httpRequest(port, "GET", "/metrics").body);
    w.endObject();
    std::cout << w.str() << "\n";
    return 0;
}

[[noreturn]] void
usage()
{
    std::cerr << "usage: perfbench_probe info|setup|sweep|serve "
                 "[--draw D] [--seed S] [--insts N] [--seconds T] "
                 "[--trace 0|1] [--threads N] [--port P] "
                 "[--min-reps K]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    SweepOpts o;
    o.threads = std::max(1u, std::thread::hardware_concurrency());
    uint16_t port = 0;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string v = argv[++i];
        if (a == "--draw")
            o.draw = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--insts")
            o.insts = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--threads")
            o.threads = unsigned(std::stoul(v));
        else if (a == "--port")
            port = uint16_t(std::stoul(v));
        else if (a == "--min-reps")
            o.minReps = unsigned(std::stoul(v));
        else
            usage();
    }
    try {
        if (cmd == "info") {
            std::cout << "{\"simd_active\":\""
                      << simd::levelName(simd::activeLevel())
                      << "\",\"simd_detected\":\""
                      << simd::levelName(simd::detect()) << "\"}\n";
            return 0;
        }
        if (cmd == "setup")
            return cmdSetup();
        if (cmd == "sweep")
            return cmdSweep(o);
        if (cmd == "serve")
            return cmdServe(port, o.seed, o.seconds, o.insts,
                            o.threads);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_probe: " << e.what() << "\n";
        return 1;
    }
    usage();
}
