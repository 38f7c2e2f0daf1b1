/**
 * @file
 * Differential testing of the cycle-level core model against the
 * plain functional executor, over seeded random programs.
 *
 * CoreTimingModel wraps rv32::Executor in an execute-at-issue
 * style, so for ANY program its final architectural state must be
 * bit-identical to a standalone functional run: registers, pc,
 * dmem, CMem rows and masks, the sparse row store, and the DRAM
 * bytes the program touched. Each run's commit trace is also fed
 * through the pipeline invariant checkers.
 */

#include <gtest/gtest.h>

#include "check/invariants.hh"
#include "cmem/cmem.hh"
#include "common/random.hh"
#include "common/trace.hh"
#include "core/timing.hh"
#include "mem/address_map.hh"
#include "mem/node_memory.hh"
#include "mem/row_store.hh"
#include "common/rand_program.hh"

using namespace maicc;
using namespace maicc::rv32;

namespace
{

/** One complete node state: program + memories + CMem + rows. */
struct NodeState
{
    explicit NodeState(const Program &p)
        : prog(p), nodeMem(cmem, &ext)
    {
    }

    const Program &prog;
    CMem cmem;
    FlatMemory ext;
    RowStore rows;
    NodeMemory nodeMem;
};

void
expectSameArchState(const NodeState &timing, const Executor &texec,
                    const NodeState &func, const Executor &fexec,
                    uint64_t seed)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (unsigned r = 0; r < 32; ++r)
        EXPECT_EQ(texec.reg(r), fexec.reg(r)) << "x" << r;
    EXPECT_EQ(texec.pc(), fexec.pc());
    EXPECT_EQ(texec.instsRetired(), fexec.instsRetired());

    for (Addr off = 0; off < amap::dmemSize; ++off) {
        ASSERT_EQ(timing.nodeMem.peekDmem(off),
                  func.nodeMem.peekDmem(off))
            << "dmem offset " << off;
    }
    // DRAM window the generator addresses through x17.
    for (Addr off = 0; off < 0x800; ++off) {
        ASSERT_EQ(timing.ext.peek(0x80000000u + off),
                  func.ext.peek(0x80000000u + off))
            << "dram offset " << off;
    }
    const CMemConfig &cc = timing.cmem.config();
    for (unsigned s = 0; s < cc.numSlices; ++s) {
        EXPECT_EQ(timing.cmem.mask(s), func.cmem.mask(s))
            << "slice " << s << " mask";
        for (unsigned row = 0; row < cc.rowsPerSlice; ++row) {
            ASSERT_TRUE(timing.cmem.slice(s).readRow(row)
                        == func.cmem.slice(s).readRow(row))
                << "slice " << s << " row " << row;
        }
    }
    EXPECT_EQ(timing.rows.size(), func.rows.size());
    EXPECT_EQ(timing.rows.loadCount(), func.rows.loadCount());
    EXPECT_EQ(timing.rows.storeCount(), func.rows.storeCount());
}

void
runDifferential(uint64_t seed, const CoreConfig &cfg)
{
    Rng rng(seed);
    testgen::RandProgramOptions opt;
    opt.units = 80;
    Program prog = testgen::randomProgram(rng, opt);

    NodeState t(prog);
    CoreTimingModel model(prog, t.nodeMem, &t.cmem, &t.rows, cfg);
    trace::TraceSink sink;
    model.setTrace(&sink);
    CoreRunStats st = model.run();

    NodeState f(prog);
    Executor exec(prog, f.nodeMem, &f.cmem, &f.rows);
    exec.run();

    ASSERT_TRUE(exec.halted());
    expectSameArchState(t, model.executor(), f, exec, seed);
    EXPECT_EQ(st.insts, exec.instsRetired());
    if (trace::kEnabled) {
        EXPECT_EQ(sink.insts.size(), st.insts);
    }

    check::CoreCheckParams params;
    params.wbPorts = cfg.wbPorts;
    params.totalCycles = st.cycles;
    check::CheckResult res = check::checkInstTrace(sink.insts,
                                                  params);
    EXPECT_TRUE(res.ok()) << "seed " << seed << "\n"
                          << res.summary();
}

} // namespace

TEST(Differential, TimingMatchesFunctionalAcrossSeeds)
{
    CoreConfig cfg;
    for (uint64_t seed = 1; seed <= 12; ++seed)
        runDifferential(seed, cfg);
}

TEST(Differential, TimingMatchesFunctionalAcrossConfigs)
{
    // The microarchitectural knobs change cycle counts, never
    // architectural results.
    CoreConfig cfgs[4];
    cfgs[0].cmemQueueSize = 0;
    cfgs[1].cmemQueueSize = 4;
    cfgs[1].wbPorts = 2;
    cfgs[2].wbPorts = 2;
    cfgs[2].remoteLatency = 57;
    cfgs[3].cmemQueueSize = 1;
    cfgs[3].branchPenalty = 5;
    for (unsigned c = 0; c < 4; ++c) {
        for (uint64_t seed = 100; seed < 104; ++seed)
            runDifferential(seed + c, cfgs[c]);
    }
}

TEST(Differential, TimingRunIsDeterministic)
{
    Rng rng(77);
    Program prog = testgen::randomProgram(rng);
    Cycles cycles[2];
    for (int i = 0; i < 2; ++i) {
        NodeState s(prog);
        CoreConfig cfg;
        CoreTimingModel model(prog, s.nodeMem, &s.cmem, &s.rows,
                              cfg);
        cycles[i] = model.run().cycles;
    }
    EXPECT_EQ(cycles[0], cycles[1]);
}
