#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "dram/dram.hh"
#include "engine/event_queue.hh"
#include "mem/address_map.hh"

using namespace maicc;

TEST(DramChannel, ClosedRowAccessLatency)
{
    DramConfig cfg;
    DramChannel ch(cfg);
    ch.enqueue(0x1000, false, 1, 0);
    std::vector<DramCompletion> done;
    ch.collect(1'000, done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].tag, 1u);
    EXPECT_EQ(done[0].finishedAt,
              cfg.tRCD + cfg.tCAS + cfg.burst);
    EXPECT_EQ(ch.dramStats().activates, 1u);
    EXPECT_EQ(ch.dramStats().rowHits, 0u);
}

TEST(DramChannel, RowHitIsFaster)
{
    DramConfig cfg;
    DramChannel ch(cfg);
    ch.enqueue(0x1000, false, 1, 0);
    ch.enqueue(0x1040, false, 2, 0); // same row
    std::vector<DramCompletion> done;
    ch.collect(1'000, done);
    ASSERT_EQ(done.size(), 2u);
    Cycles first = done[0].finishedAt;
    Cycles second = done[1].finishedAt;
    EXPECT_EQ(second - first, cfg.tCAS + cfg.burst);
    EXPECT_EQ(ch.dramStats().rowHits, 1u);
}

TEST(DramChannel, RowConflictPaysPrechargeAndRas)
{
    DramConfig cfg;
    DramChannel ch(cfg);
    // Same bank, different rows: rows are rowBytes*numBanks apart.
    Addr row_stride = cfg.rowBytes * cfg.numBanks;
    ch.enqueue(0, false, 1, 0);
    ch.enqueue(row_stride, false, 2, 0);
    std::vector<DramCompletion> done;
    ch.collect(10'000, done);
    ASSERT_EQ(done.size(), 2u);
    Cycles gap = done[1].finishedAt - done[0].finishedAt;
    // Must include precharge + activate; tRAS may dominate.
    EXPECT_GE(gap, cfg.tRP + cfg.tRCD);
    EXPECT_EQ(ch.dramStats().activates, 2u);
}

TEST(DramChannel, BanksOverlapButShareBus)
{
    DramConfig cfg;
    DramChannel ch(cfg);
    // Different banks: adjacent rowBytes blocks.
    for (unsigned i = 0; i < 4; ++i)
        ch.enqueue(i * cfg.rowBytes, false, i, 0);
    std::vector<DramCompletion> done;
    ch.collect(10'000, done);
    ASSERT_EQ(done.size(), 4u);
    // The shared data bus serializes transfers even across banks.
    EXPECT_GE(done[3].finishedAt, done[0].finishedAt + 3 * cfg.burst);
    // But bank prep overlaps: much faster than 4 serial misses.
    EXPECT_LT(done[3].finishedAt,
              4 * (cfg.tRCD + cfg.tCAS + cfg.burst));
}

TEST(DramChannel, FrFcfsPrefersRowHits)
{
    DramConfig cfg;
    DramChannel ch(cfg);
    Addr row_stride = cfg.rowBytes * cfg.numBanks;
    // The first access opens row 0 and occupies the bus; behind
    // it, a conflicting request (older) and a row hit (younger)
    // queue up. FR-FCFS serves the hit first.
    ch.enqueue(0x0, false, 0, 0);
    ch.enqueue(row_stride, false, 1, 0); // conflict, arrives first
    ch.enqueue(0x40, false, 2, 0);       // row hit, arrives second
    std::vector<DramCompletion> done;
    ch.collect(10'000, done);
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0].tag, 0u);
    EXPECT_EQ(done[1].tag, 2u);
    EXPECT_EQ(done[2].tag, 1u);
}

TEST(DramChannel, WriteStatsAndIdle)
{
    DramChannel ch;
    EXPECT_TRUE(ch.idle());
    ch.enqueue(0x100, true, 7, 0);
    EXPECT_FALSE(ch.idle());
    std::vector<DramCompletion> done;
    ch.collect(1'000, done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_TRUE(done[0].write);
    EXPECT_EQ(ch.dramStats().writes, 1u);
    EXPECT_TRUE(ch.idle());
}

TEST(ManyCoreDram, RoutesByChannelStripe)
{
    ManyCoreDram dram(32);
    // 64-byte blocks stripe across channels.
    dram.enqueue(amap::dramBase + 0 * 64, false, 0, 0);
    dram.enqueue(amap::dramBase + 1 * 64, false, 1, 0);
    dram.enqueue(amap::dramBase + 32 * 64, false, 2, 0);
    dram.tick(1'000);
    EXPECT_EQ(dram.channel(0).dramStats().reads, 2u);
    EXPECT_EQ(dram.channel(1).dramStats().reads, 1u);
    EXPECT_EQ(dram.channel(2).dramStats().reads, 0u);
}

TEST(ManyCoreDram, ChannelsServeInParallel)
{
    // The same burst count spread over 32 channels finishes far
    // sooner than on one channel.
    DramConfig cfg;
    ManyCoreDram dram(32, cfg);
    Cycles single_end = 0, multi_end = 0;
    {
        DramChannel one(cfg);
        for (unsigned i = 0; i < 64; ++i)
            one.enqueue(i * 64, false, i, 0);
        std::vector<DramCompletion> d;
        one.collect(1'000'000, d);
        single_end = d.back().finishedAt;
    }
    for (unsigned i = 0; i < 64; ++i)
        dram.enqueue(amap::dramBase + i * 64, false, i, 0);
    dram.tick(1'000'000);
    for (unsigned c = 0; c < 32; ++c) {
        std::vector<DramCompletion> d;
        dram.channel(c).collect(1'000'000, d);
        for (auto &comp : d)
            multi_end = std::max(multi_end, comp.finishedAt);
    }
    EXPECT_LT(multi_end * 4, single_end);
    auto total = dram.totalStats();
    EXPECT_EQ(total.reads, 64u);
}

TEST(DramChannel, CollectReturnsOnlyFinishedPrefixInOrder)
{
    // Completions leave in finish order, and a collect before the
    // next finish time returns nothing and keeps the rest.
    DramConfig cfg;
    DramChannel ch(cfg);
    for (unsigned i = 0; i < 40; ++i)
        ch.enqueue((i % 5) * cfg.rowBytes * cfg.numBanks + i * 64,
                   i % 3 == 0, i, 0);
    std::vector<DramCompletion> all;
    Cycles prev = 0;
    for (Cycles t = 0; !ch.idle(); t += 7) {
        Cycles next = ch.nextEventAt();
        size_t before = all.size();
        ch.collect(t, all);
        EXPECT_EQ(all.size() > before, next <= t);
        for (size_t i = before; i < all.size(); ++i) {
            EXPECT_LT(prev, all[i].finishedAt);
            EXPECT_LE(all[i].finishedAt, t);
            prev = all[i].finishedAt;
        }
    }
    EXPECT_EQ(all.size(), 40u);
}

namespace
{

std::vector<DramCompletion>
drainSeeded(EventQueue &eq, uint64_t seed, Cycles &last)
{
    ManyCoreDram dram(8);
    Rng rng(seed);
    for (unsigned i = 0; i < 120; ++i)
        dram.enqueue(Addr(rng.below(1u << 20)) * 64, rng.below(4) == 0,
                     i, 0);
    std::vector<DramCompletion> done;
    last = dram.drainVia(eq, &done);
    return done;
}

bool
sameCompletions(const std::vector<DramCompletion> &a,
                const std::vector<DramCompletion> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const DramCompletion &x,
                         const DramCompletion &y) {
                          return x.tag == y.tag
                              && x.finishedAt == y.finishedAt
                              && x.write == y.write;
                      });
}

} // namespace

TEST(ManyCoreDram, TwoDrainsOnOneQueueMatchFreshQueues)
{
    // Each drain's ManyCoreDram and completion vector die when
    // drainSeeded() returns, so an event left scheduled would fire
    // into freed memory in the next drain (caught under ASan) or
    // add to its event count.
    EventQueue shared;
    for (uint64_t seed : {1u, 2u}) {
        SCOPED_TRACE(seed);
        uint64_t before = shared.eventsRun();
        Cycles last = 0, fresh_last = 0;
        auto done = drainSeeded(shared, seed, last);
        EXPECT_TRUE(shared.empty());
        EventQueue own;
        auto fresh = drainSeeded(own, seed, fresh_last);
        EXPECT_EQ(done.size(), 120u);
        EXPECT_TRUE(sameCompletions(done, fresh));
        EXPECT_EQ(last, fresh_last);
        EXPECT_EQ(shared.eventsRun() - before, own.eventsRun());
    }
    // Both drains unregistered their handler, so the next
    // registration gets the first id back...
    EXPECT_EQ(shared.addHandler([](Cycles, uint64_t) {}), 0u);
    // ...and nothing of either drain fires afterwards: the next
    // event run on the shared queue is the one scheduled here.
    int fired = 0;
    shared.schedule(shared.now() + 1, 0, [&](Cycles) { ++fired; });
    EXPECT_EQ(shared.drain(), 1u);
    EXPECT_EQ(fired, 1);
}
