/**
 * @file
 * CLI-level tests for the uniplay tool: flag validation (--trace is
 * only accepted where it means something, unknown options are usage
 * errors, never silently-ignored positionals), byte-invisibility of
 * --trace at the artifact level, and the stats subcommand's JSON
 * output.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/bytes.hh"
#include "journal/frame.hh"
#include "replay/recording_io.hh"
#include "testprogs.hh"
#include "trace/json.hh"

#ifndef DP_UNIPLAY_BIN
#error "DP_UNIPLAY_BIN must point at the uniplay binary"
#endif

namespace dp
{
namespace
{

struct CmdResult
{
    int exitCode = -1;
    std::string output; ///< stdout + stderr interleaved
};

CmdResult
uniplay(const std::string &args)
{
    CmdResult r;
    const std::string cmd =
        std::string(DP_UNIPLAY_BIN) + " " + args + " 2>&1";
    FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return r;
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof buf, p)) > 0)
        r.output.append(buf, n);
    const int status = pclose(p);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string s = ss.str();
    return {s.begin(), s.end()};
}

class ToolsCli : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/dp-tools-XXXXXX";
        ASSERT_NE(mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
    }

    void
    TearDown() override
    {
        for (const std::string &f : cleanup_)
            std::remove(f.c_str());
        rmdir(dir_.c_str());
    }

    std::string
    path(const std::string &name)
    {
        cleanup_.push_back(dir_ + "/" + name);
        return cleanup_.back();
    }

    std::string dir_;
    std::vector<std::string> cleanup_;
};

TEST_F(ToolsCli, TraceRejectedOnUnsupportedSubcommands)
{
    for (const char *cmd :
         {"info", "recover", "verify", "races", "stats", "disasm"}) {
        CmdResult r = uniplay(std::string(cmd) +
                              " nonexistent.bin --trace t.json");
        EXPECT_EQ(r.exitCode, 2) << cmd << ": " << r.output;
        EXPECT_NE(r.output.find("--trace"), std::string::npos)
            << cmd << " must name the rejected flag: " << r.output;
    }
    CmdResult r = uniplay("workloads --trace t.json");
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("--trace"), std::string::npos);
}

TEST_F(ToolsCli, UnknownOptionIsUsageErrorNotPositional)
{
    CmdResult r = uniplay("record pfscan --bogus-flag");
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("unknown option"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("--bogus-flag"), std::string::npos)
        << r.output;
}

TEST_F(ToolsCli, RecordWithTraceIsByteIdenticalAndTraceIsValid)
{
    const std::string plain = path("plain.bin");
    const std::string traced = path("traced.bin");
    const std::string trace = path("trace.json");

    CmdResult a = uniplay("record pfscan -t 2 -s 4 -o " + plain);
    ASSERT_EQ(a.exitCode, 0) << a.output;
    CmdResult b = uniplay("record pfscan -t 2 -s 4 -o " + traced +
                          " --trace " + trace);
    ASSERT_EQ(b.exitCode, 0) << b.output;

    EXPECT_EQ(slurp(plain), slurp(traced));

    std::vector<std::uint8_t> tj = slurp(trace);
    std::string err;
    std::optional<JsonValue> doc = JsonValue::parse(
        std::string_view(reinterpret_cast<const char *>(tj.data()),
                         tj.size()),
        &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const JsonValue *evs = doc->find("traceEvents");
    ASSERT_NE(evs, nullptr);
    EXPECT_GT(evs->items().size(), 0u);

    // Replay accepts --trace too, and still verifies.
    const std::string rtrace = path("replay-trace.json");
    CmdResult rep =
        uniplay("replay " + plain + " --trace " + rtrace);
    EXPECT_EQ(rep.exitCode, 0) << rep.output;
    EXPECT_NE(rep.output.find("verified"), std::string::npos);
}

TEST_F(ToolsCli, ReplayJobsControlsHostPoolNotVerdict)
{
    const std::string artifact = path("jobs.bin");
    ASSERT_EQ(
        uniplay("record pfscan -t 2 -s 4 -o " + artifact).exitCode,
        0);

    // --jobs resizes the host pool only; the verdict is unchanged.
    for (const char *jobs : {"1", "2", "8"}) {
        CmdResult r = uniplay("replay " + artifact +
                              " --parallel 4 --jobs " + jobs);
        EXPECT_EQ(r.exitCode, 0) << "--jobs " << jobs << ": "
                                 << r.output;
        EXPECT_NE(r.output.find("verified"), std::string::npos)
            << r.output;
    }
}

TEST_F(ToolsCli, ReplayJobsMisuseIsUsageError)
{
    const std::string artifact = path("jobs-err.bin");
    ASSERT_EQ(
        uniplay("record pfscan -t 2 -s 4 -o " + artifact).exitCode,
        0);

    // Zero host threads cannot run anything.
    CmdResult zero =
        uniplay("replay " + artifact + " --parallel 2 --jobs 0");
    EXPECT_EQ(zero.exitCode, 2) << zero.output;
    EXPECT_NE(zero.output.find("--jobs"), std::string::npos);

    // --jobs without --parallel has nothing to size.
    CmdResult alone = uniplay("replay " + artifact + " --jobs 2");
    EXPECT_EQ(alone.exitCode, 2) << alone.output;
    EXPECT_NE(alone.output.find("--parallel"), std::string::npos);

    // Other subcommands reject it by name.
    CmdResult rec = uniplay("record pfscan --jobs 2");
    EXPECT_EQ(rec.exitCode, 2) << rec.output;
    EXPECT_NE(rec.output.find("--jobs"), std::string::npos);
}

TEST_F(ToolsCli, JournalStreamsMisuseIsUsageError)
{
    // --journal-streams shapes how record *writes* the journal;
    // every reader derives the shape from the files themselves.
    for (const char *cmd : {"replay", "recover", "verify", "stats"}) {
        CmdResult r = uniplay(std::string(cmd) +
                              " nonexistent.bin --journal-streams 4");
        EXPECT_EQ(r.exitCode, 2) << cmd << ": " << r.output;
        EXPECT_NE(r.output.find("--journal-streams"),
                  std::string::npos)
            << cmd << " must name the rejected flag: " << r.output;
    }

    // Zero streams cannot hold a journal.
    CmdResult zero = uniplay("record pfscan --journal " +
                             path("z.dpj") + " --journal-streams 0");
    EXPECT_EQ(zero.exitCode, 2) << zero.output;
    EXPECT_NE(zero.output.find("--journal-streams"),
              std::string::npos);
}

TEST_F(ToolsCli, ShipFlagMisuseIsUsageError)
{
    // ship replicates an existing journal; it has no positional.
    CmdResult noj = uniplay("ship");
    EXPECT_EQ(noj.exitCode, 2) << noj.output;
    EXPECT_NE(noj.output.find("--journal"), std::string::npos);

    // --ship is a record-side flag, --lag needs a shipping session.
    for (const char *cmd : {"replay", "recover", "stats"}) {
        CmdResult r =
            uniplay(std::string(cmd) + " nonexistent.bin --ship");
        EXPECT_EQ(r.exitCode, 2) << cmd << ": " << r.output;
        EXPECT_NE(r.output.find("--ship"), std::string::npos)
            << cmd << " must name the rejected flag: " << r.output;
    }
    CmdResult lag = uniplay("record pfscan --lag 4 -o " +
                            path("x.bin"));
    EXPECT_EQ(lag.exitCode, 2) << lag.output;
    EXPECT_NE(lag.output.find("--lag"), std::string::npos);
}

TEST_F(ToolsCli, ShipReplicatesAJournalAndReportsConvergence)
{
    const std::string journal = path("ship.dpj");
    CmdResult rec = uniplay("record pfscan -t 2 -s 4 --journal " +
                            journal + " --journal-streams 2");
    ASSERT_EQ(rec.exitCode, 0) << rec.output;
    cleanup_.push_back(journal + ".s0");
    cleanup_.push_back(journal + ".s1");

    CmdResult ship = uniplay(
        "ship --journal " + journal +
        " --lag 4 --fault-plan link-drop=0.2,link-torn=0.1 "
        "--fault-seed 9");
    EXPECT_EQ(ship.exitCode, 0) << ship.output;
    EXPECT_NE(ship.output.find("standby converged: yes"),
              std::string::npos)
        << ship.output;
    EXPECT_NE(ship.output.find("dp-metrics-v1"), std::string::npos)
        << ship.output;
    EXPECT_NE(ship.output.find("promoted at epoch"),
              std::string::npos)
        << ship.output;
}

TEST_F(ToolsCli, RecordShipRunsAnInProcessStandby)
{
    CmdResult r = uniplay("record pfscan -t 2 -s 4 --ship --lag 8");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("standby converged: yes"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("dp-metrics-v1"), std::string::npos)
        << r.output;
}

// A resumed --ship session ships the recovered prefix too, so the
// primary's committed watermark must count it: the primary is never
// behind its own standby.
TEST_F(ToolsCli, ResumedShipCountsTheRecoveredPrefixAsCommitted)
{
    const std::string journal = path("resume-ship.dpj");
    path("resume-ship.dpj.s0");
    path("resume-ship.dpj.s1");
    uniplay("record pfscan -t 2 -s 4 --journal " + journal +
            " --journal-streams 2 --fault-plan stream-crash=0.1:1 "
            "--fault-seed 5");
    CmdResult r = uniplay("record pfscan -t 2 -s 4 --journal " +
                          journal + " --resume --ship --lag 4");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    std::smatch m;
    ASSERT_TRUE(std::regex_search(
        r.output, m,
        std::regex("recovered ([0-9]+) [\\s\\S]*recorded ([0-9]+) "
                   "epochs[\\s\\S]*\"committedEpochs\":([0-9]+),"
                   "\"persistedEpochs\":([0-9]+)")))
        << r.output;
    EXPECT_LT(std::stoul(m[1]), std::stoul(m[2])) << r.output;
    EXPECT_EQ(m[3], m[2]) << r.output;
    EXPECT_EQ(m[4], m[2]) << r.output;
}

TEST_F(ToolsCli, RecoverJobsMisuseIsUsageError)
{
    // Rejected before any file access: zero host threads cannot
    // recover anything.
    CmdResult zero = uniplay("recover nonexistent.dpj --jobs 0");
    EXPECT_EQ(zero.exitCode, 2) << zero.output;
    EXPECT_NE(zero.output.find("--jobs"), std::string::npos);
}

TEST_F(ToolsCli, MultiStreamJournalRecoversByteIdenticalArtifact)
{
    const std::string artifact = path("sharded.bin");
    const std::string recovered = path("recovered.bin");
    const std::string journal = path("sharded.dpj");
    for (int s = 0; s < 3; ++s)
        path("sharded.dpj.s" + std::to_string(s));

    CmdResult rec = uniplay("record pfscan -t 2 -s 4 -o " +
                            artifact + " --journal " + journal +
                            " --journal-streams 3");
    ASSERT_EQ(rec.exitCode, 0) << rec.output;
    EXPECT_NE(rec.output.find("across 3 streams"),
              std::string::npos)
        << rec.output;

    CmdResult r = uniplay("recover " + journal + " --jobs 2 -o " +
                          recovered);
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("streams:   3"), std::string::npos)
        << r.output;
    EXPECT_EQ(slurp(recovered), slurp(artifact))
        << "recovered artifact differs from the recorded one";
}

TEST_F(ToolsCli, VerifyAndStatsResolveShardedJournalSets)
{
    const std::string journal = path("vset.dpj");
    for (int s = 0; s < 3; ++s)
        path("vset.dpj.s" + std::to_string(s));
    ASSERT_EQ(uniplay("record pfscan -t 2 -s 4 --journal " + journal +
                      " --journal-streams 3")
                  .exitCode,
              0);

    // The base path has no file of its own, only .s0..s2: verify
    // must resolve the set instead of failing to open the base.
    CmdResult v = uniplay("verify " + journal);
    EXPECT_EQ(v.exitCode, 0) << v.output;
    EXPECT_NE(v.output.find("3 stream(s)"), std::string::npos)
        << v.output;
    EXPECT_NE(v.output.find("intact"), std::string::npos) << v.output;

    CmdResult st = uniplay("stats " + journal);
    ASSERT_EQ(st.exitCode, 0) << st.output;
    std::string err;
    std::optional<JsonValue> doc = JsonValue::parse(st.output, &err);
    ASSERT_TRUE(doc.has_value()) << err << "\noutput: " << st.output;
    const JsonValue *schema = doc->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->asString(), "dp-metrics-v1");

    // Tear one stream: verify must fail closed and name the damage.
    std::filesystem::resize_file(journal + ".s1", 40);
    CmdResult torn = uniplay("verify " + journal);
    EXPECT_EQ(torn.exitCode, 1) << torn.output;
    EXPECT_NE(torn.output.find("stream"), std::string::npos)
        << torn.output;
}

TEST_F(ToolsCli, StatsEmitsParsableMetricsSnapshot)
{
    const std::string artifact = path("stats.bin");
    ASSERT_EQ(
        uniplay("record pfscan -t 2 -s 4 -o " + artifact).exitCode,
        0);

    CmdResult r = uniplay("stats " + artifact);
    ASSERT_EQ(r.exitCode, 0) << r.output;
    std::string err;
    std::optional<JsonValue> doc = JsonValue::parse(r.output, &err);
    ASSERT_TRUE(doc.has_value())
        << err << "\noutput: " << r.output;
    const JsonValue *schema = doc->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->asString(), "dp-metrics-v1");
    const JsonValue *counters = doc->find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue *epochs = counters->find("epochs");
    ASSERT_NE(epochs, nullptr);
    EXPECT_GT(epochs->asNumber(), 0.0);
    const JsonValue *rows = doc->find("epochs");
    ASSERT_NE(rows, nullptr);
    EXPECT_EQ(rows->items().size(),
              static_cast<std::size_t>(epochs->asNumber()));
}

TEST_F(ToolsCli, StreamSetClaimingAbsurdStreamCountFailsCleanly)
{
    // A CRC-valid stream header claiming 2^32-1 streams. The CLI used
    // to allocate one image slot per claimed stream before reading any
    // file, and died in bad_alloc; it must refuse with a message.
    ByteWriter h;
    h.u64fixed((std::uint64_t{journalMagic} << 32) | journalVersion3);
    h.varu(0);           // stream index
    h.varu(0xffffffff);  // stream count
    h.varu(0);           // base epoch
    writeGuestProgram(h, testprogs::lockedCounter(2, 10));
    writeMachineConfig(h, MachineConfig{});
    h.u64fixed(0);
    const std::vector<std::uint8_t> img =
        journal_detail::makeFrame(journalHeaderKind, h.take());
    const std::string s0 = path("absurd.dpj.s0");
    {
        std::ofstream out(s0, std::ios::binary);
        out.write(reinterpret_cast<const char *>(img.data()),
                  static_cast<std::streamsize>(img.size()));
    }
    for (const std::string cmd : {"recover", "stats"}) {
        CmdResult r = uniplay(cmd + " " + s0);
        EXPECT_EQ(r.exitCode, 1) << cmd << ": " << r.output;
        EXPECT_NE(r.output.find("4294967295 streams"), std::string::npos)
            << cmd << ": " << r.output;
    }
}

} // namespace
} // namespace dp
