/**
 * @file
 * The journaled record session the ship and standby suites ship from.
 */

#ifndef DP_TESTS_SHIP_FIXTURE_HH
#define DP_TESTS_SHIP_FIXTURE_HH

#include <gtest/gtest.h>

#include "core/recorder.hh"
#include "journal/sharded.hh"
#include "testprogs.hh"

namespace dp
{

inline RecorderOptions
testOpts()
{
    RecorderOptions opts;
    opts.workerCpus = 2;
    opts.epochLength = 15'000;
    opts.keepCheckpoints = false;
    return opts;
}

/** One sharded record session plus everything a shipping test needs
 *  to cut it up. */
struct ShardedRun
{
    std::vector<EpochRecord> epochs;
    std::vector<std::vector<std::uint8_t>> images;
    std::vector<std::vector<std::size_t>> frameEnds;
    std::uint64_t finalStateHash = 0;
};

inline ShardedRun
recordSharded(unsigned streams, std::uint64_t incs = 400)
{
    GuestProgram prog = testprogs::lockedCounter(2, incs);
    RecorderOptions opts = testOpts();
    ShardedJournalWriter jw(prog, {},
                            recorderOptionsFingerprint(opts),
                            {.streams = streams});
    RecordObserver obs;
    obs.addEpochSink([&](const EpochRecord &e, EpochId index) {
        jw.appendEpoch(e, index);
    });
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record(&obs);
    EXPECT_TRUE(out.ok);
    jw.flush();
    ShardedRun r{out.recording.epochs, jw.imageSet(), {},
                 out.recording.finalStateHash};
    for (unsigned s = 0; s < streams; ++s)
        r.frameEnds.push_back(jw.streamFrameEnds(s));
    return r;
}

} // namespace dp

#endif // DP_TESTS_SHIP_FIXTURE_HH
