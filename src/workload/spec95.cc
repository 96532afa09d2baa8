#include "workload/spec95.hh"

#include "util/logging.hh"
#include "workload/interpreter.hh"

namespace mbbp
{

namespace
{

/** Base profile for SPECint-like programs. */
WorkloadProfile
intBase(const std::string &name, uint64_t seed)
{
    WorkloadProfile p;
    p.name = name;
    p.isFloat = false;
    p.seed = seed;
    p.numFunctions = 48;
    p.minBlocksPerFn = 4;
    p.maxBlocksPerFn = 26;
    p.mainBlocks = 48;
    p.meanBody = 4.5;
    p.maxBody = 22;
    p.wFallThrough = 0.5;
    p.wCond = 5.0;
    p.wJump = 0.5;
    p.wCall = 1.0;
    p.wReturn = 0.15;
    p.wIndirectJump = 0.12;
    p.wIndirectCall = 0.05;
    p.wLoop = 1.6;
    p.wBias = 2.6;
    p.wPattern = 0.4;
    p.wCorrelated = 0.6;
    p.minTrip = 2;
    p.maxTrip = 24;
    p.loopBackSpan = 5;
    p.minLoopBody = 3;
    p.biasLo = 0.86;
    p.biasHi = 0.995;
    p.hardFrac = 0.11;
    p.corrDistMax = 10;
    p.corrNoise = 0.015;
    return p;
}

/** Base profile for SPECfp-like programs. */
WorkloadProfile
fpBase(const std::string &name, uint64_t seed)
{
    WorkloadProfile p;
    p.name = name;
    p.isFloat = true;
    p.seed = seed;
    p.numFunctions = 18;
    p.minBlocksPerFn = 4;
    p.maxBlocksPerFn = 18;
    p.mainBlocks = 36;
    p.meanBody = 9.5;
    p.maxBody = 40;
    p.wFallThrough = 0.6;
    p.wCond = 5.0;
    p.wJump = 0.25;
    p.wCall = 0.45;
    p.wReturn = 0.10;
    p.wIndirectJump = 0.03;
    p.wIndirectCall = 0.01;
    p.wLoop = 5.5;
    p.wBias = 1.2;
    p.wPattern = 0.3;
    p.wCorrelated = 0.3;
    p.minTrip = 8;
    p.maxTrip = 72;
    p.loopBackSpan = 4;
    p.minLoopBody = 8;
    p.mainCallBoost = 12.0;
    p.mainLoopScale = 0.25;
    p.biasLo = 0.92;
    p.biasHi = 0.995;
    p.hardFrac = 0.03;
    p.corrDistMax = 8;
    p.corrNoise = 0.01;
    return p;
}

} // namespace

std::vector<std::string>
specIntNames()
{
    return { "go", "m88ksim", "gcc", "compress", "li", "ijpeg",
             "perl", "vortex" };
}

std::vector<std::string>
specFpNames()
{
    return { "tomcatv", "swim", "su2cor", "hydro2d", "mgrid", "applu",
             "turb3d", "apsi", "fpppp", "wave5" };
}

std::vector<std::string>
specAllNames()
{
    auto all = specFpNames();
    auto ints = specIntNames();
    all.insert(all.end(), ints.begin(), ints.end());
    return all;
}

WorkloadProfile
specProfile(const std::string &name)
{
    // --- SPECint95 ---
    if (name == "go") {
        // Notoriously unpredictable: many lukewarm data-dependent
        // branches, huge static branch footprint.
        auto p = intBase(name, 0x601);
        p.numFunctions = 150;
        p.maxBlocksPerFn = 40;
        p.hardFrac = 0.30;
        p.biasLo = 0.75;
        p.biasHi = 0.95;
        p.wLoop = 1.0;
        p.corrNoise = 0.03;
        return p;
    }
    if (name == "m88ksim") {
        // Simulator main loop; highly predictable dispatch.
        auto p = intBase(name, 0x88);
        p.hardFrac = 0.03;
        p.biasLo = 0.93;
        p.biasHi = 0.998;
        p.wLoop = 2.2;
        p.wBias = 3.0;
        p.wPattern = 0.4;
        p.patternLenMax = 5;
        p.wCorrelated = 0.2;
        p.corrDistMax = 5;
        p.maxTrip = 16;
        return p;
    }
    if (name == "gcc") {
        // Very large static footprint, moderate predictability.
        auto p = intBase(name, 0x6cc);
        p.numFunctions = 200;
        p.maxBlocksPerFn = 34;
        p.hardFrac = 0.14;
        p.biasLo = 0.83;
        p.wCall = 1.2;
        p.corrNoise = 0.02;
        return p;
    }
    if (name == "compress") {
        // Small kernel with hard, data-dependent branches.
        auto p = intBase(name, 0xc0);
        p.numFunctions = 8;
        p.mainBlocks = 40;
        p.maxBlocksPerFn = 14;
        p.hardFrac = 0.20;
        p.biasLo = 0.80;
        p.biasHi = 0.97;
        p.wCall = 0.5;
        p.wLoop = 2.0;
        p.meanBody = 5.0;
        p.minLoopBody = 4;
        p.corrNoise = 0.03;
        return p;
    }
    if (name == "li") {
        // Lisp interpreter: deep recursion-ish call behavior.
        auto p = intBase(name, 0x11);
        p.wCall = 1.8;
        p.wReturn = 0.30;
        p.hardFrac = 0.10;
        p.meanBody = 3.5;
        return p;
    }
    if (name == "ijpeg") {
        // Image kernels: loopy and predictable for an int code.
        auto p = intBase(name, 0x1e9);
        p.wLoop = 3.0;
        p.hardFrac = 0.05;
        p.meanBody = 6.5;
        p.minLoopBody = 6;
        p.minTrip = 6;
        p.maxTrip = 64;
        return p;
    }
    if (name == "perl") {
        // Interpreter dispatch: indirect jumps, moderate accuracy.
        auto p = intBase(name, 0x9e1);
        p.numFunctions = 110;
        p.wIndirectJump = 0.35;
        p.wCall = 1.4;
        p.hardFrac = 0.12;
        p.corrDistMax = 6;
        p.indirectFanoutMax = 8;
        return p;
    }
    if (name == "vortex") {
        // Database: very predictable branches, many calls.
        auto p = intBase(name, 0x0e);
        p.numFunctions = 120;
        p.hardFrac = 0.01;
        p.biasLo = 0.96;
        p.biasHi = 0.999;
        p.wCall = 1.5;
        p.wBias = 3.2;
        p.wPattern = 0.15;
        p.patternLenMax = 4;
        p.wCorrelated = 0.05;
        p.corrDistMax = 4;
        p.maxTrip = 14;
        return p;
    }

    // --- SPECfp95 ---
    if (name == "tomcatv") {
        auto p = fpBase(name, 0xf01);
        p.numFunctions = 8;
        p.maxTrip = 110;
        p.hardFrac = 0.015;
        return p;
    }
    if (name == "swim") {
        auto p = fpBase(name, 0xf02);
        p.numFunctions = 8;
        p.meanBody = 11.0;
        p.minLoopBody = 10;
        p.maxTrip = 130;
        p.hardFrac = 0.01;
        return p;
    }
    if (name == "su2cor") {
        auto p = fpBase(name, 0xf03);
        p.hardFrac = 0.06;
        p.wBias = 1.8;
        return p;
    }
    if (name == "hydro2d") {
        auto p = fpBase(name, 0xf04);
        p.maxTrip = 100;
        p.hardFrac = 0.02;
        return p;
    }
    if (name == "mgrid") {
        auto p = fpBase(name, 0xf05);
        p.meanBody = 10.0;
        p.maxTrip = 140;
        p.hardFrac = 0.008;
        return p;
    }
    if (name == "applu") {
        auto p = fpBase(name, 0xf06);
        p.meanBody = 8.5;
        p.hardFrac = 0.02;
        return p;
    }
    if (name == "turb3d") {
        auto p = fpBase(name, 0xf07);
        p.wCall = 0.8;
        p.hardFrac = 0.03;
        return p;
    }
    if (name == "apsi") {
        auto p = fpBase(name, 0xf08);
        p.hardFrac = 0.07;
        p.wBias = 2.0;
        p.minTrip = 4;
        p.maxTrip = 60;
        return p;
    }
    if (name == "fpppp") {
        // Enormous basic blocks, almost no branches.
        auto p = fpBase(name, 0xf09);
        p.meanBody = 15.0;
        p.maxBody = 48;
        p.numFunctions = 10;
        p.hardFrac = 0.02;
        return p;
    }
    if (name == "wave5") {
        auto p = fpBase(name, 0xf0a);
        p.hardFrac = 0.05;
        p.minTrip = 4;
        p.maxTrip = 80;
        return p;
    }

    mbbp_fatal("unknown SPEC95 profile: ", name);
}

std::vector<WorkloadProfile>
specSuite()
{
    std::vector<WorkloadProfile> out;
    for (const auto &name : specAllNames())
        out.push_back(specProfile(name));
    return out;
}

InMemoryTrace
specTrace(const std::string &name, std::size_t ninsts)
{
    WorkloadProfile prof = specProfile(name);
    Program prog = generateProgram(prof);
    Interpreter interp(prog, prof.seed * 0x5851f42dULL + 1);
    return captureTrace(interp, ninsts, ninsts);
}

} // namespace mbbp
