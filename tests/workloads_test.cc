/**
 * @file
 * Workload validation: every registered workload must (a) run to
 * completion natively with its expected result, (b) record under
 * uniparallelism, and (c) replay exactly. Parameterized over the
 * registry so new workloads are covered automatically.
 */

#include <gtest/gtest.h>

#include "baseline/baselines.hh"
#include "core/recorder.hh"
#include "replay/replayer.hh"
#include "workloads/registry.hh"

namespace dp
{
namespace workloads
{

// gtest otherwise names each case after the raw bytes of the param,
// which embed heap addresses and so change from process to process.
void
PrintTo(const Workload &w, std::ostream *os)
{
    *os << w.name;
}

} // namespace workloads

namespace
{

using workloads::allWorkloads;
using workloads::Workload;
using workloads::WorkloadBundle;
using workloads::WorkloadParams;

class WorkloadSuite : public ::testing::TestWithParam<Workload>
{};

TEST_P(WorkloadSuite, NativeRunProducesExpectedResult)
{
    const Workload &w = GetParam();
    WorkloadParams params{.threads = 2, .scale = 1};
    WorkloadBundle b = w.make(params);

    NativeResult res =
        runNativeBaseline(b.program, b.config, 2, /*seed=*/3);
    ASSERT_EQ(res.reason, StopReason::AllExited) << w.name;
    if (b.expectedExit != 0) {
        EXPECT_EQ(res.exitCode, b.expectedExit) << w.name;
    }
    EXPECT_GT(res.instrs, 1'000u) << w.name << " does trivial work";
    EXPECT_EQ(res.stdoutLen, 8u) << w.name;
}

TEST_P(WorkloadSuite, NativeResultIsThreadCountInvariant)
{
    const Workload &w = GetParam();
    WorkloadBundle two = w.make({.threads = 2, .scale = 1});
    WorkloadBundle four = w.make({.threads = 4, .scale = 1});
    if (two.expectedExit == 0)
        GTEST_SKIP() << w.name << " has schedule-dependent results";
    EXPECT_EQ(two.expectedExit, four.expectedExit)
        << w.name << ": total work must not depend on thread count";

    NativeResult r4 =
        runNativeBaseline(four.program, four.config, 4, 11);
    ASSERT_EQ(r4.reason, StopReason::AllExited);
    EXPECT_EQ(r4.exitCode, four.expectedExit);
}

TEST_P(WorkloadSuite, RecordsAndReplays)
{
    const Workload &w = GetParam();
    WorkloadParams params{.threads = 2, .scale = 1};
    WorkloadBundle b = w.make(params);

    RecorderOptions opts;
    opts.workerCpus = 2;
    opts.epochLength = 60'000;
    UniparallelRecorder rec(b.program, b.config, opts);
    RecordOutcome out = rec.record();
    ASSERT_TRUE(out.ok) << w.name << ": "
                        << stopReasonName(out.tpReason);
    if (b.expectedExit != 0) {
        EXPECT_EQ(out.mainExitCode, b.expectedExit) << w.name;
    }
    EXPECT_EQ(out.recording.stats.rollbacks, 0u)
        << w.name << " is data-race-free; rollbacks indicate a "
        << "recorder correctness bug";

    Replayer rep(out.recording);
    ReplayResult r = rep.replaySequential();
    EXPECT_TRUE(r.ok) << w.name << " failed at epoch "
                      << r.firstFailedEpoch;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadSuite, ::testing::ValuesIn(allWorkloads()),
    [](const ::testing::TestParamInfo<Workload> &param_info) {
        return param_info.param.name;
    });

TEST(WorkloadRegistry, CataloguesTenWorkloads)
{
    EXPECT_EQ(allWorkloads().size(), 10u);
    EXPECT_NE(workloads::findWorkload("pbzip2"), nullptr);
    EXPECT_NE(workloads::findWorkload("water"), nullptr);
    EXPECT_EQ(workloads::findWorkload("nonesuch"), nullptr);
}

TEST(WorkloadRegistry, CategoriesMatchThePaperMix)
{
    std::size_t client = 0, server = 0, scientific = 0;
    for (const Workload &w : allWorkloads()) {
        client += w.category == "client";
        server += w.category == "server";
        scientific += w.category == "scientific";
    }
    EXPECT_EQ(client, 3u);
    EXPECT_EQ(server, 2u);
    EXPECT_EQ(scientific, 5u);
}

} // namespace
} // namespace dp
