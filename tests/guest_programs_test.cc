/**
 * @file
 * Golden tests over the sample guest assembly programs in guest/:
 * each must assemble, run to its documented result, and survive the
 * record/replay pipeline. DP_GUEST_DIR is injected by CMake.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/recorder.hh"
#include "os/simos.hh"
#include "os/uni_runner.hh"
#include "replay/replayer.hh"
#include "vm/text_asm.hh"

namespace dp
{
namespace
{

std::string
readGuestFile(const std::string &name)
{
    std::string path = std::string(DP_GUEST_DIR) + "/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::uint64_t
runGuest(const GuestProgram &prog)
{
    Machine m(prog, {});
    SimOS os;
    UniRunner r(m, os, {}, {});
    EXPECT_EQ(r.run(), StopReason::AllExited);
    return m.threads[0].exitCode;
}

struct Golden
{
    const char *file;
    std::uint64_t exitCode;
};

// Keeps gtest from printing the param's raw bytes (a string-literal
// address) into the case name.
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.file;
}

class GuestPrograms : public ::testing::TestWithParam<Golden>
{};

TEST_P(GuestPrograms, RunsToItsDocumentedResult)
{
    const Golden &g = GetParam();
    GuestProgram prog =
        assembleText(readGuestFile(g.file), g.file);
    EXPECT_EQ(runGuest(prog), g.exitCode) << g.file;
}

TEST_P(GuestPrograms, RecordsAndReplays)
{
    const Golden &g = GetParam();
    GuestProgram prog =
        assembleText(readGuestFile(g.file), g.file);
    RecorderOptions opts;
    opts.workerCpus = 1;
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record();
    ASSERT_TRUE(out.ok) << g.file;
    EXPECT_EQ(out.mainExitCode, g.exitCode) << g.file;
    Replayer rep(out.recording);
    EXPECT_TRUE(rep.replaySequential().ok) << g.file;
}

TEST_P(GuestPrograms, DisassemblyRoundTrips)
{
    const Golden &g = GetParam();
    GuestProgram prog =
        assembleText(readGuestFile(g.file), g.file);
    GuestProgram back = assembleText(disassemble(prog), g.file);
    EXPECT_EQ(runGuest(back), g.exitCode) << g.file;
}

INSTANTIATE_TEST_SUITE_P(
    Golden, GuestPrograms,
    ::testing::Values(Golden{"fib.s", 832040u & 0xffff},
                      Golden{"hello_pipe.s", 'p' + 6},
                      Golden{"signal_echo.s", 42}),
    [](const ::testing::TestParamInfo<Golden> &param_info) {
        std::string n = param_info.param.file;
        return n.substr(0, n.size() - 2);
    });

} // namespace
} // namespace dp
