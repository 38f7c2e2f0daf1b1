/**
 * @file
 * Unit suite for the shared discrete-event kernel
 * (src/engine/event_queue.hh, DESIGN.md §15): the deterministic
 * (cycle, priority, sequence) ordering key, clock/pump semantics
 * (step/runUntil/drain/nextAt/now), self-scheduling handler
 * chains, and the handler slab and registered payload handlers.
 */

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/seeded_test.hh"
#include "engine/event_queue.hh"

using namespace maicc;

TEST(EventQueue, OrdersByCycleThenPriorityThenSequence)
{
    EventQueue eq;
    std::vector<std::string> order;
    auto tag = [&](const char *label) {
        return [&order, label](Cycles) { order.push_back(label); };
    };
    // Deliberately scheduled out of key order.
    eq.schedule(5, 0, tag("c5p0"));
    eq.schedule(1, 1, tag("c1p1a"));
    eq.schedule(3, 0, tag("c3p0"));
    eq.schedule(1, 0, tag("c1p0"));
    eq.schedule(1, 1, tag("c1p1b")); // same key: insertion order
    eq.schedule(3, -2, tag("c3pm2")); // priorities may be negative

    EXPECT_EQ(eq.size(), 6u);
    EXPECT_EQ(eq.nextAt(), Cycles(1));
    eq.drain();

    std::vector<std::string> expect{"c1p0", "c1p1a", "c1p1b",
                                    "c3pm2", "c3p0", "c5p0"};
    EXPECT_EQ(order, expect);
    EXPECT_EQ(eq.eventsRun(), 6u);
    EXPECT_EQ(eq.now(), Cycles(5));
}

TEST(EventQueue, EmptyQueueSentinels)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextAt(), EventQueue::kNever);
    EXPECT_EQ(eq.now(), Cycles(0));
    EXPECT_FALSE(eq.step()); // no-op, not a crash
    EXPECT_EQ(eq.drain(), 0u);
    EXPECT_EQ(eq.eventsRun(), 0u);
}

TEST(EventQueue, StepAdvancesTheClockPerEvent)
{
    EventQueue eq;
    eq.schedule(10, 0, [](Cycles t) { EXPECT_EQ(t, Cycles(10)); });
    eq.schedule(40, 0, [](Cycles t) { EXPECT_EQ(t, Cycles(40)); });

    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.now(), Cycles(10));
    EXPECT_EQ(eq.nextAt(), Cycles(40));
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.now(), Cycles(40));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunUntilIsInclusiveAndLeavesLaterEvents)
{
    EventQueue eq;
    int ran = 0;
    for (Cycles c : {5u, 10u, 15u, 20u})
        eq.schedule(c, 0, [&](Cycles) { ++ran; });

    EXPECT_EQ(eq.runUntil(10), 2u); // 5 and 10, not 15
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(eq.nextAt(), Cycles(15));
    EXPECT_EQ(eq.runUntil(14), 0u); // nothing at or before 14
    EXPECT_EQ(eq.drain(), 2u);
}

TEST(EventQueue, HandlersMaySchedule)
{
    // The self-scheduling chain every refitted model uses: each
    // wake-up schedules the next one (arrival streams, DRAM
    // channel re-arming, segment hand-off).
    EventQueue eq;
    std::vector<Cycles> fired;
    std::function<void(Cycles)> chain = [&](Cycles t) {
        fired.push_back(t);
        if (fired.size() < 5)
            eq.schedule(t + 7, 0, chain);
    };
    eq.schedule(3, 0, chain);
    eq.drain();
    EXPECT_EQ(fired,
              (std::vector<Cycles>{3, 10, 17, 24, 31}));
}

TEST(EventQueue, SameCycleInsertionRunsWithinTheCycle)
{
    // An event scheduled *at the executing cycle* still runs in
    // this drain, after the already-queued events of that cycle
    // with an earlier key — this is what lets a completion
    // handler chain zero-latency follow-ups deterministically.
    EventQueue eq;
    std::vector<std::string> order;
    eq.schedule(4, 0, [&](Cycles t) {
        order.push_back("first");
        eq.schedule(t, 0, [&](Cycles) {
            order.push_back("inserted");
        });
    });
    eq.schedule(4, 0, [&](Cycles) { order.push_back("second"); });
    eq.drain();
    EXPECT_EQ(order, (std::vector<std::string>{"first", "second",
                                               "inserted"}));
    EXPECT_EQ(eq.now(), Cycles(4));
}

TEST(EventQueue, ClearDropsPendingButKeepsCounters)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(1, 0, [&](Cycles) { ++ran; });
    eq.schedule(2, 0, [&](Cycles) { ++ran; });
    EXPECT_TRUE(eq.step());
    eq.clear();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.drain(), 0u);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.eventsRun(), 1u);
    EXPECT_EQ(eq.now(), Cycles(1));
}

TEST(EventQueue, HandlersScheduleAtTheirOwnCycle)
{
    // From inside a handler at (4, 0): an equal key queues behind
    // the cycle's already-queued (4, 0) event, a lower priority
    // (larger lane) runs after every (4, 0) event, and a higher one
    // runs next — both for one-shot and for payload events.
    EventQueue eq;
    std::vector<std::string> order;
    EventQueue::HandlerId tag_h =
        eq.addHandler([&](Cycles, uint64_t p) {
            order.push_back("payload" + std::to_string(p));
        });
    eq.schedule(4, 0, [&](Cycles t) {
        order.push_back("first");
        eq.schedule(t, 1, [&](Cycles) { order.push_back("lower"); });
        eq.schedule(t, 0, tag_h, 1); // equal key
        eq.schedule(t, 0, [&](Cycles) { order.push_back("equal"); });
        eq.schedule(t, -1, tag_h, 2); // higher priority
    });
    eq.schedule(4, 0, [&](Cycles) { order.push_back("second"); });
    eq.schedule(5, -9, [&](Cycles) { order.push_back("later"); });
    eq.drain();
    EXPECT_EQ(order, (std::vector<std::string>{
                         "first", "payload2", "second", "payload1",
                         "equal", "lower", "later"}));
}

TEST(EventQueue, ClearMidRunThenReuse)
{
    // clear() from inside a handler drops the rest of the run and
    // every pending one-shot handler; registered handlers stay, and
    // the queue keeps working afterwards.
    EventQueue eq;
    std::vector<std::string> order;
    EventQueue::HandlerId tag_h =
        eq.addHandler([&](Cycles, uint64_t p) {
            order.push_back("payload" + std::to_string(p));
        });
    eq.schedule(1, 0, [&](Cycles) {
        order.push_back("clearer");
        eq.clear();
    });
    eq.schedule(2, 0, [&](Cycles) { order.push_back("dropped"); });
    eq.schedule(3, 0, tag_h, 7);
    EXPECT_EQ(eq.drain(), 1u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), Cycles(1));

    eq.schedule(9, 0, tag_h, 8);
    eq.schedule(8, 0, [&](Cycles t) {
        order.push_back("reused");
        eq.schedule(t, 0, [&](Cycles) { order.push_back("chained"); });
    });
    EXPECT_EQ(eq.drain(), 3u);
    EXPECT_EQ(order, (std::vector<std::string>{
                         "clearer", "reused", "chained", "payload8"}));
    EXPECT_EQ(eq.eventsRun(), 4u);
}

TEST(EventQueue, SlabReleasesCapturesOnceRunOrCleared)
{
    EventQueue eq;
    auto ran = std::make_shared<int>(0);
    std::weak_ptr<int> watch = ran;
    for (int round = 0; round < 3; ++round) {
        // A recycled slot must not keep the previous capture.
        eq.schedule(Cycles(round), 0, [ran](Cycles) { ++*ran; });
        EXPECT_EQ(ran.use_count(), 2);
        EXPECT_TRUE(eq.step());
        EXPECT_EQ(ran.use_count(), 1);
    }
    EXPECT_EQ(*ran, 3);

    eq.schedule(10, 0, [ran](Cycles) { ++*ran; });
    eq.schedule(11, 0, [ran](Cycles) { ++*ran; });
    EXPECT_EQ(ran.use_count(), 3);
    eq.clear();
    EXPECT_EQ(ran.use_count(), 1);
    ran.reset();
    EXPECT_TRUE(watch.expired());
}

namespace
{

/**
 * The handler logic of SeededRunMatchesAMultimapReference, shared
 * by both pumps: react() logs the event, then draws up to three
 * follow-ups and hands each to @p post.
 */
struct SeededRun
{
    using Post = std::function<void(Cycles, int, uint64_t)>;

    SeededRun(uint64_t seed, uint64_t events)
        : rng(seed), limit(events)
    {}

    Rng rng;
    uint64_t limit = 0;
    uint64_t scheduled = 0;
    std::vector<uint64_t> log;

    void
    react(Cycles t, uint64_t id, const Post &post)
    {
        log.push_back(id);
        for (uint64_t k = rng.below(4); k-- > 0 && scheduled < limit;) {
            Cycles when = t + rng.below(40);
            int prio = int(rng.below(5)) - 2;
            post(when, prio, scheduled++);
        }
    }
};

} // namespace

TEST(EventQueue, SeededRunMatchesAMultimapReference)
{
    // 100k events, half one-shot and half payload events, each
    // handler scheduling up to three follow-ups (some at its own
    // cycle, some at a smaller priority). The reference pumps a
    // std::multimap keyed on (when, priority, seq) through the same
    // handler logic; the execution orders must match exactly.
    constexpr uint64_t kEvents = 100000;
    using Key = std::tuple<Cycles, int, uint64_t>;
    for (uint64_t seed : testseed::seeds({3, 4})) {
        MAICC_SEED_TRACE(seed);
        SeededRun ref(seed, kEvents);
        std::multimap<Key, uint64_t> pending;
        uint64_t ref_seq = 0;
        SeededRun::Post ref_post = [&](Cycles when, int prio,
                                       uint64_t id) {
            pending.emplace(Key{when, prio, ref_seq++}, id);
        };
        for (int i = 0; i < 64; ++i)
            ref_post(Cycles(i % 7), i % 3, ref.scheduled++);
        while (!pending.empty()) {
            auto it = pending.begin();
            Cycles t = std::get<0>(it->first);
            uint64_t id = it->second;
            pending.erase(it);
            ref.react(t, id, ref_post);
        }

        SeededRun got(seed, kEvents);
        EventQueue eq;
        SeededRun::Post post;
        EventQueue::HandlerId payload_h =
            eq.addHandler([&](Cycles t, uint64_t id) {
                got.react(t, id, post);
            });
        post = [&](Cycles when, int prio, uint64_t id) {
            if (id % 2) {
                eq.schedule(when, prio, payload_h, id);
            } else {
                eq.schedule(when, prio, [&, id](Cycles t) {
                    got.react(t, id, post);
                });
            }
        };
        for (int i = 0; i < 64; ++i)
            post(Cycles(i % 7), i % 3, got.scheduled++);
        eq.drain();

        EXPECT_EQ(ref.log.size(), kEvents);
        EXPECT_EQ(got.log, ref.log);
        EXPECT_EQ(eq.eventsRun(), kEvents);
    }
}

TEST(EventQueue, RemovedHandlerIdIsReused)
{
    // A removed handler's id goes to the next registration, which
    // then receives the payload events scheduled on that id.
    EventQueue eq;
    std::vector<std::string> order;
    EventQueue::HandlerId a = eq.addHandler([&](Cycles, uint64_t p) {
        order.push_back("a" + std::to_string(p));
    });
    EventQueue::HandlerId keep =
        eq.addHandler([&](Cycles, uint64_t p) {
            order.push_back("keep" + std::to_string(p));
        });
    eq.schedule(1, 0, a, 1);
    eq.drain();
    eq.removeHandler(a);
    EventQueue::HandlerId b = eq.addHandler([&](Cycles, uint64_t p) {
        order.push_back("b" + std::to_string(p));
    });
    EXPECT_EQ(b, a);
    EXPECT_NE(b, keep);
    eq.schedule(2, 0, b, 2);
    eq.schedule(3, 0, keep, 3);
    eq.drain();
    EXPECT_EQ(order,
              (std::vector<std::string>{"a1", "b2", "keep3"}));
}
