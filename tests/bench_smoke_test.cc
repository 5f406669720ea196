/**
 * @file
 * Smoke test for the bench JSON emitter: run the bench_micro binary
 * (filtered down to one cheap microbench) and validate the
 * BENCH_micro.json it leaves behind against the dp-bench-v1 schema.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "trace/json.hh"

#ifndef DP_BENCH_MICRO_BIN
#error "DP_BENCH_MICRO_BIN must point at the bench_micro binary"
#endif

#ifndef DP_BENCH_CKPT_BIN
#error "DP_BENCH_CKPT_BIN must point at the bench_ckpt_cost binary"
#endif

#ifndef DP_BENCH_JOURNAL_BIN
#error "DP_BENCH_JOURNAL_BIN must point at bench_journal_scale"
#endif

#ifndef DP_BENCH_STANDBY_BIN
#error "DP_BENCH_STANDBY_BIN must point at bench_standby_lag"
#endif

namespace dp
{
namespace
{

/** Parse @p path and validate the shared dp-bench-v1 row fields. */
JsonValue
loadBenchJson(const std::string &path, const std::string &bench)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path << " was not written";
    std::ostringstream ss;
    ss << in.rdbuf();
    in.close();

    std::string err;
    std::optional<JsonValue> doc = JsonValue::parse(ss.str(), &err);
    EXPECT_TRUE(doc.has_value()) << err;
    if (!doc)
        return JsonValue::object();
    EXPECT_TRUE(doc->isObject());

    const JsonValue *schema = doc->find("schema");
    EXPECT_NE(schema, nullptr);
    if (schema) {
        EXPECT_EQ(schema->asString(), "dp-bench-v1");
    }
    const JsonValue *name = doc->find("bench");
    EXPECT_NE(name, nullptr);
    if (name) {
        EXPECT_EQ(name->asString(), bench);
    }

    const JsonValue *rows = doc->find("rows");
    EXPECT_NE(rows, nullptr);
    if (!rows || !rows->isArray() || rows->items().empty()) {
        ADD_FAILURE() << path << " has no rows";
        return JsonValue::object();
    }
    for (const JsonValue &row : rows->items()) {
        const JsonValue *fields[] = {
            row.find("name"),     row.find("workload"),
            row.find("workers"),  row.find("overhead"),
            row.find("logBytes"), row.find("epochs"),
        };
        for (const JsonValue *f : fields) {
            EXPECT_NE(f, nullptr) << "missing dp-bench-v1 field";
            if (!f)
                return JsonValue::object();
        }
        EXPECT_FALSE(row.find("name")->asString().empty());
        EXPECT_FALSE(row.find("workload")->asString().empty());
        EXPECT_GT(row.find("workers")->asNumber(), 0.0);
        EXPECT_GT(row.find("logBytes")->asNumber(), 0.0);
        EXPECT_GT(row.find("epochs")->asNumber(), 0.0);
    }
    return *std::move(doc);
}

TEST(BenchSmoke, MicroEmitsSchemaValidJson)
{
    char tmpl[] = "/tmp/dp-bench-smoke-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    const std::string path = dir + "/BENCH_micro.json";

    const std::string cmd =
        "DP_BENCH_JSON_DIR=" + dir + " " + DP_BENCH_MICRO_BIN +
        " --benchmark_filter=BM_VarintEncode"
        " --benchmark_min_time=0.01 > /dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path << " was not written";
    std::ostringstream ss;
    ss << in.rdbuf();
    in.close();

    std::string err;
    std::optional<JsonValue> doc = JsonValue::parse(ss.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    ASSERT_TRUE(doc->isObject());

    const JsonValue *schema = doc->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->asString(), "dp-bench-v1");
    const JsonValue *bench = doc->find("bench");
    ASSERT_NE(bench, nullptr);
    EXPECT_EQ(bench->asString(), "micro");

    const JsonValue *rows = doc->find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_TRUE(rows->isArray());
    ASSERT_FALSE(rows->items().empty());
    for (const JsonValue &row : rows->items()) {
        const JsonValue *name = row.find("name");
        const JsonValue *workload = row.find("workload");
        const JsonValue *workers = row.find("workers");
        const JsonValue *overhead = row.find("overhead");
        const JsonValue *log_bytes = row.find("logBytes");
        const JsonValue *epochs = row.find("epochs");
        ASSERT_NE(name, nullptr);
        ASSERT_NE(workload, nullptr);
        ASSERT_NE(workers, nullptr);
        ASSERT_NE(overhead, nullptr);
        ASSERT_NE(log_bytes, nullptr);
        ASSERT_NE(epochs, nullptr);
        EXPECT_FALSE(name->asString().empty());
        EXPECT_FALSE(workload->asString().empty());
        EXPECT_GT(workers->asNumber(), 0.0);
        EXPECT_GT(log_bytes->asNumber(), 0.0);
        EXPECT_GT(epochs->asNumber(), 0.0);
    }

    std::remove(path.c_str());
    rmdir(dir.c_str());
}

TEST(BenchSmoke, CkptCostEmitsSchemaValidJson)
{
    char tmpl[] = "/tmp/dp-bench-smoke-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    const std::string path = dir + "/BENCH_ckpt_cost.json";

    const std::string cmd = "DP_BENCH_JSON_DIR=" + dir + " " +
                            DP_BENCH_CKPT_BIN " > /dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    JsonValue doc = loadBenchJson(path, "ckpt_cost");
    const JsonValue *rows = doc.find("rows");
    ASSERT_NE(rows, nullptr);

    // The sweep must include the sparse-dirty/large-footprint config
    // the incremental digest exists for, and the O(resident) rehash
    // must be decisively slower there (overhead = slowdown - 1, so
    // >= 4 means a >= 5x speedup). The ratio is host-timing based but
    // the asymmetry is ~1000x at this shape — 5x is a loose floor.
    bool saw_sparse = false;
    for (const JsonValue &row : rows->items()) {
        if (row.find("name")->asString() != "resident16384/dirty16")
            continue;
        saw_sparse = true;
        EXPECT_GE(row.find("overhead")->asNumber(), 4.0)
            << "incremental digest lost its O(dirty) advantage";
    }
    EXPECT_TRUE(saw_sparse)
        << "sweep no longer covers the sparse-dirty config";

    std::remove(path.c_str());
    rmdir(dir.c_str());
}

TEST(BenchSmoke, JournalScaleEmitsSchemaValidJson)
{
    char tmpl[] = "/tmp/dp-bench-smoke-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    const std::string path = dir + "/BENCH_journal_scale.json";

    const std::string cmd = "DP_BENCH_JSON_DIR=" + dir + " " +
                            DP_BENCH_JOURNAL_BIN " > /dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    JsonValue doc = loadBenchJson(path, "journal_scale");
    const JsonValue *rows = doc.find("rows");
    ASSERT_NE(rows, nullptr);

    // Both sweeps must be present: commit throughput at 1/2/4
    // streams and recovery at 1/2/4 jobs. The bench exits nonzero on
    // any byte divergence across shapes, so the exit check above
    // already covers the identity contract.
    for (const char *want :
         {"commit:pfscan@s1", "commit:pfscan@s2", "commit:pfscan@s4",
          "recover:pfscan@j1", "recover:pfscan@j2",
          "recover:pfscan@j4"}) {
        bool saw = false;
        for (const JsonValue &row : rows->items())
            saw = saw || row.find("name")->asString() == want;
        EXPECT_TRUE(saw) << "missing row " << want;
    }

    std::remove(path.c_str());
    rmdir(dir.c_str());
}

TEST(BenchSmoke, StandbyLagEmitsSchemaValidJson)
{
    char tmpl[] = "/tmp/dp-bench-smoke-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    const std::string path = dir + "/BENCH_standby_lag.json";

    // The bench itself fails on any standby divergence, so the exit
    // check is the correctness gate; the JSON check is the schema
    // gate.
    const std::string cmd = "DP_BENCH_JSON_DIR=" + dir + " " +
                            DP_BENCH_STANDBY_BIN " > /dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    JsonValue doc = loadBenchJson(path, "standby_lag");
    const JsonValue *rows = doc.find("rows");
    ASSERT_NE(rows, nullptr);

    // The sweep must cover the clean link and a lossy one at both
    // epoch rates.
    for (const char *want :
         {"ship:pfscan@e60k,f0", "ship:pfscan@e60k,f30",
          "ship:pfscan@e150k,f0", "ship:pfscan@e150k,f30"}) {
        bool saw = false;
        for (const JsonValue &row : rows->items())
            saw = saw || row.find("name")->asString() == want;
        EXPECT_TRUE(saw) << "missing row " << want;
    }

    std::remove(path.c_str());
    rmdir(dir.c_str());
}

} // namespace
} // namespace dp
