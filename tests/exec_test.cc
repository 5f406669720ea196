/**
 * @file
 * Tests for the host execution engine (src/exec) and its integration
 * contracts: pool lifecycle, bounded-queue back-pressure,
 * cancellation, exception propagation, deterministic
 * join-on-destruction — then the recorder-level guarantees the pool
 * underwrites: no thread-per-epoch, squashed epochs never execute,
 * and byte-identical recordings and journals across every pool shape.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/recorder.hh"
#include "exec/executor.hh"
#include "fault/fault.hh"
#include "journal/sharded.hh"
#include "replay/recording_io.hh"
#include "testprogs.hh"
#include "trace/trace.hh"

namespace dp
{
namespace
{

/** Open/close latch for holding a worker mid-task. */
class Gate
{
  public:
    void
    open()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            open_ = true;
        }
        cv_.notify_all();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return open_; });
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool open_ = false;
};

// ---- pool lifecycle ----

TEST(ExecLifecycle, SpawnsExactlyConfiguredWorkers)
{
    Executor exec(3);
    EXPECT_EQ(exec.workerCount(), 3u);
    ExecutorStats st = exec.stats();
    EXPECT_EQ(st.workers, 3u);
    EXPECT_EQ(st.threadsSpawned, 3u);

    TaskFuture<int> f = exec.submit([] { return 41 + 1; });
    EXPECT_EQ(f.get(), 42);
    // Executing any number of tasks spawns nothing further.
    for (int i = 0; i < 20; ++i)
        exec.submit([] {});
    exec.drain();
    EXPECT_EQ(exec.stats().threadsSpawned, 3u);
    EXPECT_EQ(exec.stats().tasksExecuted, 21u);
}

TEST(ExecLifecycle, InlineModeSpawnsNothingAndRunsOnCaller)
{
    Executor exec(0);
    std::thread::id ran_on;
    TaskFuture<void> f =
        exec.submit([&] { ran_on = std::this_thread::get_id(); });
    // Inline submit completes the task before returning.
    EXPECT_EQ(f.state(), TaskState::Done);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    ExecutorStats st = exec.stats();
    EXPECT_EQ(st.threadsSpawned, 0u);
    EXPECT_EQ(st.tasksExecuted, 1u);
}

TEST(ExecLifecycle, DestructorDrainsEveryTaskWithoutGet)
{
    std::atomic<int> ran{0};
    {
        Executor exec(2);
        for (int i = 0; i < 64; ++i)
            exec.submit([&] { ran.fetch_add(1); });
        // No get(), no drain(): destruction is the join point.
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(ExecLifecycle, DrainWaitsForOutstandingTasks)
{
    Executor exec(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 32; ++i)
        exec.submit([&] {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            ran.fetch_add(1);
        });
    exec.drain();
    EXPECT_EQ(ran.load(), 32);
}

// ---- bounded queue ----

TEST(ExecQueue, BackpressureBlocksSubmitAtCapacity)
{
    Executor exec(1, {.queueCapacity = 1});
    Gate started, gate;
    exec.submit([&] {
        started.open();
        gate.wait();
    });
    started.wait(); // the worker holds task A; the queue is empty
    exec.submit([] {}); // B: fills the queue to capacity

    // C must block until the worker frees a slot; release the gate
    // from the side once C's submit is underway.
    std::thread opener([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        gate.open();
    });
    TaskFuture<int> c = exec.submit([] { return 7; });
    opener.join();
    EXPECT_EQ(c.get(), 7);

    exec.drain(); // get() precedes the worker's tally; drain() doesn't
    ExecutorStats st = exec.stats();
    EXPECT_EQ(st.backpressureWaits, 1u);
    // The bound held: the queue never grew past its capacity.
    EXPECT_LE(st.peakQueueDepth, 1u);
    EXPECT_EQ(st.tasksExecuted, 3u);
}

// ---- cancellation ----

TEST(ExecCancel, QueuedTaskNeverExecutes)
{
    Executor exec(1, {.queueCapacity = 4});
    Gate started, gate;
    exec.submit([&] {
        started.open();
        gate.wait();
    });
    started.wait(); // worker pinned; everything below stays queued

    CancellationSource squash;
    bool ran = false;
    TaskFuture<void> doomed = exec.submit(
        [&] { ran = true; }, {.token = squash.token()});
    squash.cancel();
    gate.open();
    exec.drain();

    EXPECT_FALSE(ran);
    EXPECT_TRUE(doomed.cancelled());
    EXPECT_EQ(doomed.state(), TaskState::Cancelled);
    EXPECT_THROW(doomed.get(), TaskCancelled);
    ExecutorStats st = exec.stats();
    EXPECT_EQ(st.tasksCancelled, 1u);
    EXPECT_EQ(st.tasksExecuted, 1u);
}

TEST(ExecCancel, RunningTaskCompletesDespiteCancel)
{
    Executor exec(1);
    Gate started, gate;
    CancellationSource squash;
    TaskFuture<int> f = exec.submit(
        [&] {
            started.open();
            gate.wait();
            return 9;
        },
        {.token = squash.token()});
    started.wait();
    // Too late: cancellation only prevents unstarted tasks.
    squash.cancel();
    gate.open();
    EXPECT_EQ(f.get(), 9);
    exec.drain();
    EXPECT_EQ(exec.stats().tasksCancelled, 0u);
    EXPECT_EQ(exec.stats().tasksExecuted, 1u);
}

TEST(ExecCancel, InlineModeHonoursCancellation)
{
    Executor exec(0);
    CancellationSource squash;
    squash.cancel();
    bool ran = false;
    TaskFuture<void> f =
        exec.submit([&] { ran = true; }, {.token = squash.token()});
    EXPECT_FALSE(ran);
    EXPECT_TRUE(f.cancelled());
    EXPECT_EQ(exec.stats().tasksCancelled, 1u);
}

// ---- failure propagation ----

TEST(ExecError, ExceptionPropagatesThroughGet)
{
    Executor exec(2);
    TaskFuture<int> f = exec.submit(
        []() -> int { throw std::runtime_error("task exploded"); });
    EXPECT_THROW(
        {
            try {
                f.get();
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "task exploded");
                throw;
            }
        },
        std::runtime_error);
    EXPECT_EQ(f.state(), TaskState::Failed);
    exec.drain();
    ExecutorStats st = exec.stats();
    EXPECT_EQ(st.tasksFailed, 1u);
    // A failed task never poisons the pool.
    EXPECT_EQ(exec.submit([] { return 5; }).get(), 5);
}

// ---- task context + metrics ----

TEST(ExecContext, WorkerIndexIsInRange)
{
    Executor exec(2);
    std::atomic<unsigned> max_seen{0};
    for (int i = 0; i < 40; ++i)
        exec.submit([&](const TaskContext &ctx) {
            unsigned cur = max_seen.load();
            while (ctx.worker > cur &&
                   !max_seen.compare_exchange_weak(cur, ctx.worker)) {
            }
        });
    exec.drain();
    EXPECT_LT(max_seen.load(), 2u);
}

TEST(ExecMetrics, SnapshotCarriesSchemaAndCounters)
{
    Executor exec(2, {.queueCapacity = 8});
    for (int i = 0; i < 10; ++i)
        exec.submit([] {});
    exec.drain();
    JsonValue snap = exec.metricsSnapshot();
    ASSERT_NE(snap.find("schema"), nullptr);
    EXPECT_EQ(snap.find("schema")->asString(), "dp-exec-v1");
    EXPECT_EQ(snap.find("threadsSpawned")->asNumber(), 2.0);
    EXPECT_EQ(snap.find("tasksSubmitted")->asNumber(), 10.0);
    EXPECT_EQ(snap.find("tasksExecuted")->asNumber(), 10.0);
    EXPECT_EQ(snap.find("tasksCancelled")->asNumber(), 0.0);
}

TEST(ExecTrace, PoolEmitsWorkerAndTaskEvents)
{
    TraceRecorder tr;
    {
        Executor exec(2, {.trace = &tr});
        for (int i = 0; i < 6; ++i)
            exec.submit([] {}, {.label = "unit-task"});
    }
    std::uint64_t task_spans = 0, starts = 0, exits = 0;
    for (const TraceEvent &e : tr.events()) {
        if (e.stage != TraceStage::Exec)
            continue;
        task_spans += e.phase == TracePhase::Span;
        starts += e.phase == TracePhase::Instant &&
                  std::string_view(e.name) == "worker-start";
        exits += e.phase == TracePhase::Instant &&
                 std::string_view(e.name) == "worker-exit";
    }
    EXPECT_EQ(task_spans, 6u);
    EXPECT_EQ(starts, 2u);
    EXPECT_EQ(exits, 2u);
}

// ---- strands ----

using IntStrand = Executor::Strand<int>;

TEST(ExecStrand, RunsItemsInFifoOrder)
{
    Executor exec(4);
    std::vector<int> seen;
    IntStrand strand(exec, [&](int &i) { seen.push_back(i); });
    for (int i = 0; i < 500; ++i)
        strand.post(i);
    strand.drain();
    ASSERT_EQ(seen.size(), 500u);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

TEST(ExecStrand, HandlerCallsNeverOverlap)
{
    Executor exec(4);
    std::atomic<int> inside{0}, overlaps{0}, handled{0};
    IntStrand strand(exec, [&](int &) {
        if (inside.fetch_add(1) != 0)
            overlaps.fetch_add(1);
        std::this_thread::yield();
        inside.fetch_sub(1);
        handled.fetch_add(1);
    });
    // Four producers post concurrently, so steps keep starting on
    // whichever worker is free.
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p)
        producers.emplace_back([&] {
            for (int i = 0; i < 200; ++i)
                strand.post(i);
        });
    for (std::thread &t : producers)
        t.join();
    strand.drain();
    EXPECT_EQ(handled.load(), 800);
    EXPECT_EQ(overlaps.load(), 0);
}

TEST(ExecStrand, PostBlocksAtCapacity)
{
    Executor exec(1);
    Gate started, gate;
    std::vector<int> seen;
    IntStrand strand(
        exec,
        [&](int &i) {
            if (i == 0) {
                started.open();
                gate.wait();
            }
            seen.push_back(i);
        },
        2);
    strand.post(0);
    started.wait(); // 0 is in flight; the queue is empty
    strand.post(1);
    strand.post(2); // the queue is at capacity

    std::atomic<bool> posted{false};
    std::thread producer([&] {
        strand.post(3);
        posted = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(posted.load());
    gate.open();
    producer.join();
    EXPECT_TRUE(posted.load());
    strand.drain();
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ExecStrand, DrainWaitsForTheItemInFlight)
{
    Executor exec(1);
    Gate started, gate;
    std::atomic<bool> handled{false}, drained{false};
    IntStrand strand(exec, [&](int &) {
        started.open();
        gate.wait();
        handled = true;
    });
    strand.post(7);
    started.wait(); // the queue is empty, the handler still runs
    std::thread waiter([&] {
        strand.drain();
        drained = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(drained.load());
    gate.open();
    waiter.join();
    EXPECT_TRUE(handled.load());
}

TEST(ExecStrand, InlinePoolRunsTheHandlerOnThePostingThread)
{
    Executor exec(0);
    std::vector<std::thread::id> ran_on;
    IntStrand strand(exec, [&](int &) {
        ran_on.push_back(std::this_thread::get_id());
    });
    strand.post(1);
    // Handled before post() returned, with no drain().
    ASSERT_EQ(ran_on.size(), 1u);
    strand.post(2);
    ASSERT_EQ(ran_on.size(), 2u);
    for (std::thread::id id : ran_on)
        EXPECT_EQ(id, std::this_thread::get_id());
    EXPECT_EQ(exec.stats().threadsSpawned, 0u);
}

/** Post 0..9 to @p strand once item 0 is in flight (its handler
 *  opens @p started, then holds), so 1..9 are queued behind it. */
void
postBehindGate(IntStrand &strand, Gate &started)
{
    strand.post(0);
    started.wait();
    for (int i = 1; i < 10; ++i)
        strand.post(i);
}

TEST(ExecStrand, DestroyingTheStrandRunsEveryQueuedItem)
{
    Executor exec(1);
    Gate started, gate;
    std::vector<int> seen;
    {
        IntStrand strand(exec, [&](int &i) {
            if (i == 0) {
                started.open();
                gate.wait();
            }
            seen.push_back(i);
        });
        postBehindGate(strand, started);
        gate.open();
    }
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ExecStrand, DestroyingThePoolRunsEveryQueuedItem)
{
    auto exec = std::make_unique<Executor>(1);
    Gate started, gate;
    std::vector<int> seen;
    IntStrand strand(*exec, [&](int &i) {
        if (i == 0) {
            started.open();
            gate.wait();
        }
        seen.push_back(i);
    });
    postBehindGate(strand, started);
    gate.open();
    exec.reset();
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ExecStrand, DiscardDropsQueuedItemsAndKeepsTheOneInFlight)
{
    Executor exec(1);
    Gate started, gate;
    std::vector<int> seen;
    IntStrand strand(exec, [&](int &i) {
        if (i == 0) {
            started.open();
            gate.wait();
        }
        seen.push_back(i);
    });
    postBehindGate(strand, started);
    strand.discard();
    gate.open();
    strand.drain();
    EXPECT_EQ(seen, (std::vector<int>{0}));
    // The strand keeps working after a discard.
    strand.post(10);
    strand.drain();
    EXPECT_EQ(seen, (std::vector<int>{0, 10}));
}

// ---- recorder integration: the no-thread-per-epoch contract ----

TEST(ExecRecorder, SpawnsHostWorkersNotEpochs)
{
    GuestProgram prog = testprogs::lockedCounter(3, 600);
    RecorderOptions opts;
    opts.epochLength = 8'000;
    opts.hostWorkers = 2;
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record();
    ASSERT_TRUE(out.ok);
    ASSERT_GT(out.recording.epochs.size(), 2u);

    // However many epochs ran, the pool spawned exactly hostWorkers
    // threads, and every epoch went through it as a task.
    EXPECT_EQ(out.execStats.workers, 2u);
    EXPECT_EQ(out.execStats.threadsSpawned, 2u);
    EXPECT_EQ(out.execStats.tasksSubmitted,
              out.recording.epochs.size());
    EXPECT_EQ(out.execStats.tasksExecuted,
              out.recording.epochs.size());
}

TEST(ExecRecorder, SynchronousModeSpawnsNothing)
{
    GuestProgram prog = testprogs::lockedCounter(3, 600);
    RecorderOptions opts;
    opts.epochLength = 8'000;
    opts.hostWorkers = 0;
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record();
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.execStats.threadsSpawned, 0u);
    // The inline pool still carried every epoch.
    EXPECT_EQ(out.execStats.tasksExecuted,
              out.recording.epochs.size());
}

TEST(ExecRecorder, SquashedEpochsNeverExecute)
{
    // Forced-divergence workload: racy updates make speculation
    // diverge, so the window is squashed repeatedly. The contract:
    // an epoch task either executes (one epoch-run span) or is
    // cancelled (no span, counted) — a squashed-but-unstarted epoch
    // must never run.
    GuestProgram prog = testprogs::racyCounter(4, 2'000);
    RecorderOptions opts;
    opts.epochLength = 8'000;
    opts.hostWorkers = 2;
    opts.maxInFlight = 4;
    TraceRecorder tr;
    opts.trace = &tr;
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record();
    ASSERT_TRUE(out.ok);
    ASSERT_GT(out.recording.stats.rollbacks, 0u);

    std::uint64_t epoch_runs = 0;
    for (const TraceEvent &e : tr.events())
        epoch_runs += e.stage == TraceStage::EpochParallel &&
                      e.phase == TracePhase::Span &&
                      std::string_view(e.name) == "epoch-run";
    const ExecutorStats &st = out.execStats;
    // Executed tasks and epoch-run spans are the same events; a
    // cancelled task contributed no span.
    EXPECT_EQ(epoch_runs, st.tasksExecuted);
    EXPECT_EQ(st.tasksSubmitted, st.tasksExecuted + st.tasksCancelled);
    // Every committed epoch executed (squashes only discard younger
    // speculation).
    EXPECT_GE(st.tasksExecuted, out.recording.epochs.size());
}

// ---- recorder stress sweep: byte identity across pool shapes ----

TEST(ExecRecorder, StressSweepMatchesSynchronousReference)
{
    struct Case
    {
        const char *name;
        GuestProgram prog;
        const char *plan; // "" = no faults
    };
    const Case cases[] = {
        {"clean", testprogs::lockedCounter(3, 600), ""},
        {"racy", testprogs::racyCounter(4, 2'000), ""},
        {"faulty", testprogs::lockedCounter(3, 600),
         "worker-death=1:3,torn-ckpt=1:4"},
        {"racy-faulty", testprogs::racyCounter(4, 2'000),
         "worker-death=1:4"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        auto record = [&](unsigned workers, unsigned window) {
            RecorderOptions opts;
            opts.epochLength = 8'000;
            opts.hostWorkers = workers;
            opts.maxInFlight = window;
            opts.keepCheckpoints = false;
            std::unique_ptr<FaultInjector> faults;
            if (c.plan[0]) {
                faults = std::make_unique<FaultInjector>(
                    FaultPlan::parse(c.plan, 99));
                opts.faults = faults.get();
            }
            UniparallelRecorder rec(c.prog, {}, opts);
            RecordOutcome out = rec.record();
            EXPECT_TRUE(out.ok);
            // The spawn counter holds under every shape.
            EXPECT_EQ(out.execStats.threadsSpawned, workers);
            return serializeRecording(out.recording);
        };
        std::vector<std::uint8_t> ref = record(0, 4);
        for (unsigned workers : {2u, 4u})
            for (unsigned window : {1u, 2u, 4u}) {
                SCOPED_TRACE("workers " + std::to_string(workers) +
                             " window " + std::to_string(window));
                EXPECT_EQ(ref, record(workers, window));
            }
    }
}

// ---- journal: async commit is byte-invisible ----

TEST(ExecJournal, AsyncCommitBytesIdenticalToSynchronous)
{
    GuestProgram prog = testprogs::lockedCounter(3, 600);
    RecorderOptions opts;
    opts.epochLength = 8'000;
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record();
    ASSERT_TRUE(out.ok);
    ASSERT_GT(out.recording.epochs.size(), 2u);

    ShardedJournalWriter sync(prog, {}, 0x1234);
    ShardedJournalWriter async(prog, {}, 0x1234);
    async.enableAsyncCommit();
    for (std::size_t i = 0; i < out.recording.epochs.size(); ++i) {
        sync.appendEpoch(out.recording.epochs[i],
                         static_cast<EpochId>(i));
        async.appendEpoch(out.recording.epochs[i],
                          static_cast<EpochId>(i));
    }
    EXPECT_EQ(sync.streamBytes(0), async.streamBytes(0));
    EXPECT_EQ(sync.streamFrameEnds(0), async.streamFrameEnds(0));
    EXPECT_EQ(sync.epochsWritten(), async.epochsWritten());
    EXPECT_TRUE(async.alive());

    // Both images recover identically.
    RecoveredShardedJournal rj =
        recoverShardedJournal({async.streamBytes(0)});
    EXPECT_TRUE(rj.report.clean());
    EXPECT_EQ(rj.report.framesRecovered,
              out.recording.epochs.size());
}

TEST(ExecJournal, AsyncCommitReproducesInjectedCrashes)
{
    GuestProgram prog = testprogs::lockedCounter(3, 600);
    RecorderOptions opts;
    opts.epochLength = 8'000;
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record();
    ASSERT_TRUE(out.ok);

    // Separate injectors with the same plan/seed: decision streams
    // are per-writer, so each writer sees the identical fault
    // sequence and dies (or tears, or flips) identically.
    const char *plan = "journal-crash=1:4,torn-frame=1:3";
    FaultInjector f_sync(FaultPlan::parse(plan, 7));
    FaultInjector f_async(FaultPlan::parse(plan, 7));
    ShardedJournalWriter sync(prog, {}, 0x1234, {}, &f_sync);
    ShardedJournalWriter async(prog, {}, 0x1234, {}, &f_async);
    async.enableAsyncCommit();
    for (std::size_t i = 0; i < out.recording.epochs.size(); ++i) {
        sync.appendEpoch(out.recording.epochs[i],
                         static_cast<EpochId>(i));
        async.appendEpoch(out.recording.epochs[i],
                          static_cast<EpochId>(i));
    }
    EXPECT_EQ(sync.alive(), async.alive());
    EXPECT_EQ(sync.streamBytes(0), async.streamBytes(0));
    EXPECT_EQ(sync.epochsWritten(), async.epochsWritten());
}

} // namespace
} // namespace dp
