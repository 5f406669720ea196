/**
 * @file
 * uniplay — command-line record/replay/analysis tool.
 *
 *   uniplay record <workload> [-t N] [-s SCALE] [-e EPOCHLEN]
 *                 [-o FILE] [--journal FILE [--resume]]
 *                 [--trace FILE]
 *   uniplay run <file.s>                 assemble + run guest assembly
 *   uniplay record-asm <file.s> -o FILE  record a guest assembly file
 *   uniplay replay FILE                  deterministic replay + verify
 *   uniplay recover JOURNAL [-o FILE]    recover a journal's committed
 *                                        prefix (optionally as artifact)
 *   uniplay verify FILE                  integrity-check an artifact or
 *                                        journal without replaying
 *   uniplay races FILE                   replay under the race detector
 *   uniplay stats FILE                   metrics snapshot (JSON) of an
 *                                        artifact or journal
 *   uniplay info FILE                    artifact summary
 *   uniplay disasm FILE                  dump the recorded program
 *   uniplay workloads                    list built-in workloads
 *
 * --trace FILE (record, record-asm, replay) writes a Chrome
 * trace-event JSON of the pipeline — load it in Perfetto or
 * chrome://tracing. Tracing never changes the recorded bytes.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/profiler.hh"
#include "analysis/race_detector.hh"
#include "baseline/baselines.hh"
#include "common/table.hh"
#include "core/recorder.hh"
#include "fault/fault.hh"
#include "journal/journal.hh"
#include "journal/sharded.hh"
#include "replay/recording_io.hh"
#include "replay/replayer.hh"
#include "ship/pipeline.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"
#include "vm/text_asm.hh"
#include "workloads/registry.hh"

namespace
{

using namespace dp;

int
usage()
{
    std::cerr
        << "usage:\n"
        << "  uniplay record <workload> [-t N] [-s SCALE] "
           "[-e EPOCHLEN] [--fault-plan SPEC --fault-seed N] "
           "[-o FILE] [--journal FILE [--resume] "
           "[--journal-streams N]] [--ship [--lag N]] "
           "[--trace FILE]\n"
        << "  uniplay run <file.s>\n"
        << "  uniplay record-asm <file.s> [-t N] [-e EPOCHLEN] "
           "[--fault-plan SPEC --fault-seed N] [-o FILE] "
           "[--journal FILE [--resume] [--journal-streams N]] "
           "[--ship [--lag N]] [--trace FILE]\n"
        << "  uniplay replay FILE [--parallel N [--jobs N]] "
           "[--trace FILE]\n"
        << "  uniplay recover JOURNAL [-o FILE] [--jobs N]\n"
        << "  uniplay ship --journal FILE [--lag N] "
           "[--fault-plan SPEC --fault-seed N]\n"
        << "  uniplay verify FILE\n"
        << "  uniplay races FILE\n"
        << "  uniplay profile FILE\n"
        << "  uniplay stats FILE [-t N]\n"
        << "  uniplay info FILE\n"
        << "  uniplay disasm FILE\n"
        << "  uniplay workloads\n";
    return 2;
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        dp_fatal("cannot open ", path);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string s = ss.str();
    return {s.begin(), s.end()};
}

void
writeFile(const std::string &path, std::span<const std::uint8_t> b)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        dp_fatal("cannot write ", path);
    out.write(reinterpret_cast<const char *>(b.data()),
              static_cast<std::streamsize>(b.size()));
}

struct Args
{
    std::vector<std::string> positional;
    std::uint32_t threads = 2;
    std::uint32_t scale = 4;
    Cycles epochLength = 100'000;
    std::string outFile;
    unsigned parallel = 0;
    /** Host threads for parallel replay; 0 with jobsSet is a usage
     *  error, 0 without means "pick a default". */
    unsigned jobs = 0;
    bool jobsSet = false;
    std::string faultPlan;
    std::uint64_t faultSeed = 0;
    std::string journalFile;
    /** Shards the journal splits across (record/record-asm only). */
    unsigned journalStreams = 1;
    bool journalStreamsSet = false;
    bool resume = false;
    /** Ship committed epochs to an in-process hot standby
     *  (record/record-asm only). */
    bool ship = false;
    /** Standby lag bound in epochs (ship / record --ship). */
    std::uint64_t lag = 8;
    bool lagSet = false;
    std::string traceFile;
    /** First unrecognized '-' option (empty = none): flag typos must
     *  be a usage error, not a silently ignored positional. */
    std::string badOption;
};

Args
parseArgs(int argc, char **argv, int first)
{
    Args a;
    for (int i = first; i < argc; ++i) {
        std::string s = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                dp_fatal("missing value after ", s);
            return argv[++i];
        };
        if (s == "-t" || s == "--threads")
            a.threads = static_cast<std::uint32_t>(
                std::stoul(next()));
        else if (s == "-s" || s == "--scale")
            a.scale =
                static_cast<std::uint32_t>(std::stoul(next()));
        else if (s == "-e" || s == "--epoch")
            a.epochLength = std::stoull(next());
        else if (s == "-o" || s == "--out")
            a.outFile = next();
        else if (s == "--parallel")
            a.parallel =
                static_cast<unsigned>(std::stoul(next()));
        else if (s == "-j" || s == "--jobs") {
            a.jobs = static_cast<unsigned>(std::stoul(next()));
            a.jobsSet = true;
        }
        else if (s == "--fault-plan")
            a.faultPlan = next();
        else if (s == "--fault-seed")
            a.faultSeed = std::stoull(next());
        else if (s == "--journal")
            a.journalFile = next();
        else if (s == "--journal-streams") {
            a.journalStreams =
                static_cast<unsigned>(std::stoul(next()));
            a.journalStreamsSet = true;
        }
        else if (s == "--resume")
            a.resume = true;
        else if (s == "--ship")
            a.ship = true;
        else if (s == "--lag") {
            a.lag = std::stoull(next());
            a.lagSet = true;
        }
        else if (s == "--trace")
            a.traceFile = next();
        else if (!s.empty() && s[0] == '-' && s.size() > 1) {
            if (a.badOption.empty())
                a.badOption = s;
        } else
            a.positional.push_back(std::move(s));
    }
    return a;
}

bool
fileExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return in.good();
}

/** A journal on disk: one v2 file, or a sharded set of streams. */
struct JournalSet
{
    /** Per-stream images, index-aligned (one entry for a v2 file; a
     *  lost stream file is an empty image). */
    std::vector<std::vector<std::uint8_t>> images;
    /** Base path (the .s<i> suffix stripped, if one was named). */
    std::string base;
    unsigned streams = 1;
};

/**
 * Load the journal at @p path, following sharded-set naming: a v3
 * stream file (or a base path whose "<base>.s0" exists) pulls in the
 * whole "<base>.s0".."<base>.s<N-1>" set its header names.
 */
JournalSet
loadJournalSet(const std::string &path)
{
    JournalSet js;
    js.base = path;
    std::string probe = path;
    if (!fileExists(probe)) {
        if (fileExists(path + ".s0"))
            probe = path + ".s0";
        else
            dp_fatal("cannot open ", path);
    }
    std::vector<std::uint8_t> img = readFile(probe);
    std::optional<StreamInfo> si = peekStreamInfo(img);
    if (!si) {
        // A v2 journal (or garbage — recovery will say which).
        js.images.push_back(std::move(img));
        return js;
    }
    std::string base = path;
    if (probe == path) {
        // The user named one stream file directly: strip ".s<i>".
        const std::size_t dot = probe.rfind(".s");
        bool digits = dot != std::string::npos &&
                      dot + 2 < probe.size();
        if (digits)
            for (std::size_t k = dot + 2; k < probe.size(); ++k)
                digits = digits && std::isdigit(
                                       static_cast<unsigned char>(
                                           probe[k]));
        if (digits)
            base = probe.substr(0, dot);
    }
    js.base = base;
    js.streams = si->streamCount;
    // The count is the header's claim; refuse an absurd one before
    // sizing anything by it.
    if (js.streams > maxJournalStreams)
        dp_fatal("journal ", probe, " claims ", js.streams,
                 " streams; at most ", maxJournalStreams,
                 " are supported");
    js.images.assign(js.streams, {});
    for (unsigned s = 0; s < js.streams; ++s) {
        const std::string p =
            ShardedJournalWriter::streamPath(base, s, js.streams);
        if (fileExists(p))
            js.images[s] = readFile(p);
        else
            std::cerr << "warning: journal stream file " << p
                      << " is missing; recovering without it\n";
    }
    return js;
}

std::vector<std::span<const std::uint8_t>>
asSpans(const std::vector<std::vector<std::uint8_t>> &images)
{
    return {images.begin(), images.end()};
}

/** Recover @p js, exiting when not even its header survives. */
RecoveredShardedJournal
recoverOrDie(const std::string &path, const JournalSet &js)
{
    RecoveredShardedJournal rj =
        recoverShardedJournal(asSpans(js.images));
    if (!rj.report.headerOk)
        dp_fatal(path, ": cannot recover journal: ",
                 journalErrorName(rj.report.tailError), " (",
                 rj.report.detail, ")");
    return rj;
}

/** The session's fault injector (null without --fault-plan). */
std::unique_ptr<FaultInjector>
faultsOf(const Args &args)
{
    if (args.faultPlan.empty())
        return nullptr;
    auto faults = std::make_unique<FaultInjector>(
        FaultPlan::parse(args.faultPlan, args.faultSeed));
    std::cout << "fault plan: " << faults->plan().describe() << "\n";
    return faults;
}

int
doRecord(const GuestProgram &prog, const MachineConfig &cfg,
         const Args &args)
{
    if (args.outFile.empty() && args.journalFile.empty() &&
        !args.ship)
        dp_fatal(
            "record needs -o FILE, --journal FILE and/or --ship");
    RecorderOptions opts;
    opts.workerCpus = args.threads;
    opts.epochLength = args.epochLength;
    opts.keepCheckpoints = false; // artifacts hold logs only

    std::unique_ptr<TraceRecorder> tracer;
    if (!args.traceFile.empty()) {
        tracer = std::make_unique<TraceRecorder>();
        opts.trace = tracer.get();
    }

    std::unique_ptr<FaultInjector> faults = faultsOf(args);
    opts.faults = faults.get();
    if (OptionError err = validateRecorderOptions(opts);
        err != OptionError::None)
        dp_fatal("invalid recorder options: ", optionErrorName(err));
    const std::uint64_t fingerprint =
        recorderOptionsFingerprint(opts);

    std::unique_ptr<ShardedJournalWriter> journal;
    std::vector<EpochRecord> prefix;
    std::string journalBase = args.journalFile;
    bool resuming = false;
    if (!args.journalFile.empty() && args.resume) {
        JournalSet js = loadJournalSet(args.journalFile);
        journalBase = js.base;
        if (args.journalStreamsSet &&
            args.journalStreams != js.streams)
            dp_fatal(args.journalFile, ": journal has ", js.streams,
                     " stream(s); --journal-streams cannot change "
                     "on resume");
        RecoveredShardedJournal rj = recoverOrDie(args.journalFile, js);
        if (rj.optionsFingerprint != fingerprint)
            dp_fatal(args.journalFile,
                     ": journal was recorded under different "
                     "options; refusing to resume");
        std::cout << "recovered " << rj.report.framesRecovered
                  << " committed epoch(s), discarding "
                  << rj.report.bytesDiscarded
                  << " torn/corrupt byte(s)\n";
        for (unsigned s = 0; s < js.streams; ++s)
            js.images[s].resize(rj.streams[s].keptBytes);
        journal = std::make_unique<ShardedJournalWriter>(
            std::move(js.images),
            ShardedJournalOptions{.streams = js.streams},
            faults.get());
        prefix = std::move(rj.recording->epochs);
        resuming = true;
    } else if (!args.journalFile.empty() || args.ship) {
        // --ship without --journal ships from an in-memory journal:
        // the standby is the durability story in that configuration.
        journal = std::make_unique<ShardedJournalWriter>(
            prog, cfg, fingerprint,
            ShardedJournalOptions{.streams = args.journalStreams},
            faults.get());
    }
    RecordObserver obs;
    obs.onRecovery = [](RecoveryKind kind, EpochId index) {
        std::cout << "  recovery: " << recoveryKindName(kind)
                  << " at epoch " << index << "\n";
    };
    std::unique_ptr<CommitPipeline> pipeline;
    if (journal) {
        if (!journalBase.empty() && !journal->streamTo(journalBase))
            dp_fatal("cannot write journal file ", journalBase);
        journal->setTrace(tracer.get());
        // record --ship: stream every committed epoch to an
        // in-process hot standby over the (fault-injectable) link.
        CommitPipelineOptions popts{.faults = faults.get()};
        if (args.ship)
            popts.standby = StandbyOptions{.lagBound = args.lag};
        pipeline = std::make_unique<CommitPipeline>(*journal, popts);
        pipeline->attach(obs);
    }

    UniparallelRecorder rec(prog, cfg, opts);
    const RecordObserver *obsp =
        (faults || journal) ? &obs : nullptr;
    RecordOutcome out = resuming
                            ? rec.resume(std::move(prefix), obsp)
                            : rec.record(obsp);
    if (faults) {
        const FaultStats fs = faults->stats();
        std::cout << "faults fired: " << fs.totalFired() << "\n";
        for (std::size_t i = 0; i < numFaultSites; ++i)
            if (fs.fired[i] > 0)
                std::cout
                    << "  " << faultSiteName(
                                   static_cast<FaultSite>(i))
                    << ": " << fs.fired[i] << "/" << fs.queried[i]
                    << " decisions\n";
        const RecorderStats &st = out.recording.stats;
        std::cout << "recovery: " << st.rollbacks << " rollbacks, "
                  << st.tornCheckpoints << " torn ckpts, "
                  << st.epochRetries << " epoch retries, "
                  << st.seqFallbacks << " seq fallbacks\n";
    }
    if (pipeline) {
        pipeline->finish();
        std::size_t jbytes = 0;
        for (unsigned s = 0; s < journal->streams(); ++s)
            jbytes += journal->streamBytes(s).size();
        std::cout << "journal: " << journal->epochsWritten()
                  << " epoch frame(s), " << jbytes << " bytes";
        if (journal->streams() > 1)
            std::cout << " across " << journal->streams()
                      << " streams";
        if (journalBase.empty())
            std::cout << " (in-memory)";
        else
            std::cout << " to " << journalBase;
        std::cout << (journal->alive()
                          ? ""
                          : " (writer died; continue with --resume)")
                  << "\n";
    }
    if (tracer) {
        if (tracer->writeChromeJson(args.traceFile))
            std::cout << "trace: " << tracer->size()
                      << " event(s) to " << args.traceFile << "\n";
        else
            std::cerr << "cannot write trace file "
                      << args.traceFile << "\n";
    }
    if (out.prefixVerifyFailed) {
        std::cerr << "recovered journal prefix failed replay "
                     "verification; not resuming\n";
        return 1;
    }
    if (!out.ok) {
        std::cerr << "recording failed: "
                  << stopReasonName(out.tpReason) << "\n";
        return 1;
    }
    std::cout << "recorded " << out.recording.epochs.size()
              << " epochs, " << out.recording.stats.rollbacks
              << " rollbacks, exit code " << out.mainExitCode
              << "\n";
    if (!args.outFile.empty()) {
        std::vector<std::uint8_t> bytes =
            serializeRecording(out.recording);
        writeFile(args.outFile, bytes);
        std::cout << "wrote " << bytes.size() << " bytes to "
                  << args.outFile << "\n";
    }
    if (args.ship) {
        ShipOutcome o = pipeline->promote();
        std::cout << "ship: " << o.promotion.report.describe() << "\n"
                  << o.metrics().dump() << "\n";
        const bool converged =
            o.converged(out.recording.epochs.size(),
                        out.recording.finalStateHash);
        std::cout << "standby converged: " << (converged ? "yes" : "NO")
                  << "\n";
        if (!converged)
            return 1;
    }
    return 0;
}

std::string
readTextFile(const std::string &path)
{
    std::vector<std::uint8_t> b = readFile(path);
    return {b.begin(), b.end()};
}

/** Load an artifact, exiting with a structured diagnostic (not a
 *  crash) when it is corrupt. */
LoadedRecording
loadArtifact(const std::string &path)
{
    RecordingLoadResult r = loadRecording(readFile(path));
    if (!r.ok())
        dp_fatal(path, ": cannot load recording: ",
                 loadErrorName(r.error), " at byte ", r.errorOffset,
                 " (", r.detail, ")");
    return {std::move(r.recording)};
}

/**
 * Offline shipping drill: replicate a journal file set to a fresh
 * standby over the (optionally fault-injected) in-process link,
 * promote the standby, and verify the promoted machine against a
 * direct recovery of the same bytes — the state a cold restart would
 * rebuild the slow way. Exit 0 when the standby converged on the
 * full consistent prefix, 1 when it is stale or failed closed.
 */
int
cmdShip(const Args &args)
{
    if (!args.positional.empty())
        return usage();
    if (args.journalFile.empty()) {
        std::cerr << "ship needs --journal FILE\n";
        return usage();
    }
    JournalSet js = loadJournalSet(args.journalFile);
    RecoveredShardedJournal rj = recoverOrDie(args.journalFile, js);
    std::unique_ptr<FaultInjector> faults = faultsOf(args);
    StandbyApplier standby(
        {.lagBound = args.lag, .faults = faults.get()});
    ShipOutcome o = shipAndPromote(standby, js.images,
                                   rj.consistentEpochs, {}, faults.get());
    std::cout << o.promotion.report.describe() << "\n"
              << o.metrics().dump() << "\n";
    const bool converged = o.converged(rj.consistentEpochs,
                                       rj.recording->finalStateHash);
    std::cout << "standby converged: " << (converged ? "yes" : "NO")
              << "\n";
    return converged ? 0 : 1;
}

int
cmdRecord(const Args &args)
{
    if (args.positional.empty())
        return usage();
    const workloads::Workload *w =
        workloads::findWorkload(args.positional[0]);
    if (!w)
        dp_fatal("unknown workload '", args.positional[0],
                 "' (try: uniplay workloads)");
    workloads::WorkloadBundle b =
        w->make({.threads = args.threads, .scale = args.scale});
    return doRecord(b.program, b.config, args);
}

int
cmdRun(const Args &args)
{
    if (args.positional.empty())
        return usage();
    GuestProgram prog = assembleText(
        readTextFile(args.positional[0]), args.positional[0]);
    NativeResult r = runNativeBaseline(prog, {}, args.threads, 1);
    std::cout << "stop: " << stopReasonName(r.reason)
              << ", exit code " << r.exitCode << ", "
              << r.instrs << " instrs, " << r.cycles
              << " virtual cycles\n";
    return r.reason == StopReason::AllExited ? 0 : 1;
}

int
cmdRecordAsm(const Args &args)
{
    if (args.positional.empty())
        return usage();
    GuestProgram prog = assembleText(
        readTextFile(args.positional[0]), args.positional[0]);
    return doRecord(prog, {}, args);
}

int
cmdReplay(const Args &args)
{
    if (args.positional.empty())
        return usage();
    LoadedRecording loaded = loadArtifact(args.positional[0]);
    Replayer rep(*loaded.recording);
    std::unique_ptr<TraceRecorder> tracer;
    if (!args.traceFile.empty()) {
        tracer = std::make_unique<TraceRecorder>();
        rep.setTrace(tracer.get());
    }
    unsigned par = args.parallel;
    if (args.jobsSet && args.jobs == 0) {
        std::cerr << "--jobs needs at least one host thread\n";
        return usage();
    }
    if (args.jobsSet && par == 0) {
        std::cerr << "--jobs needs --parallel N (it sizes the host "
                     "pool parallel replay fans out over)\n";
        return usage();
    }
    if (par > 0 && !loaded.recording->hasCheckpoints()) {
        // Artifacts hold logs only; parallel replay needs the
        // retained epoch checkpoints (in-process recordings).
        std::cerr << "note: no checkpoints in artifact; "
                     "replaying sequentially\n";
        par = 0;
    }
    // Host threads backing the fan-out: default to the machine's
    // concurrency, clamped to the modeled track count — more host
    // threads than tracks would change nothing but idle workers.
    unsigned jobs = args.jobs;
    if (!args.jobsSet)
        jobs = std::min(
            std::max(1u, std::thread::hardware_concurrency()), par);
    ReplayResult r = par > 0 ? rep.replayParallel(par, jobs)
                             : rep.replaySequential();
    if (tracer) {
        if (tracer->writeChromeJson(args.traceFile))
            std::cout << "trace: " << tracer->size()
                      << " event(s) to " << args.traceFile << "\n";
        else
            std::cerr << "cannot write trace file "
                      << args.traceFile << "\n";
    }
    std::cout << (r.ok ? "verified" : "FAILED") << ": "
              << r.epochsVerified << "/"
              << loaded.recording->epochs.size() << " epochs, "
              << r.instrs << " instrs replayed, "
              << r.stdoutBytes.size() << " output bytes\n";
    if (!r.ok)
        std::cout << "first failed epoch: " << r.firstFailedEpoch
                  << "\n";
    return r.ok ? 0 : 1;
}

int
cmdRecover(const Args &args)
{
    if (args.positional.empty())
        return usage();
    if (args.jobsSet && args.jobs == 0) {
        std::cerr << "--jobs needs at least one host thread\n";
        return usage();
    }
    const unsigned jobs = args.jobsSet ? args.jobs : 1;
    JournalSet js = loadJournalSet(args.positional[0]);
    RecoveredShardedJournal rj =
        recoverShardedJournal(asSpans(js.images), jobs);
    const RecoveryReport &rep = rj.report;
    std::cout << "header:    " << (rep.headerOk ? "ok" : "invalid")
              << "\n";
    if (rj.streamCount > 1)
        std::cout << "streams:   " << rj.streamCount
                  << " (consistent cut at epoch "
                  << rj.consistentEpochs << ")\n";
    std::cout << "frames:    " << rep.framesRecovered
              << " committed epoch(s)\n"
              << "committed: " << rep.committedBytes << " bytes\n"
              << "discarded: " << rep.bytesDiscarded << " bytes\n"
              << "tail:      " << journalErrorName(rep.tailError);
    if (rep.tailError != JournalError::None)
        std::cout << " at byte " << rep.errorOffset << " ("
                  << rep.detail << ")";
    std::cout << "\n";
    if (rj.streamCount > 1)
        for (std::size_t s = 0; s < rj.streams.size(); ++s) {
            const StreamRecovery &sr = rj.streams[s];
            std::cout << "  stream " << s << ": " << sr.framesKept
                      << " epoch(s) kept, " << sr.keptBytes
                      << " byte(s), tail "
                      << journalErrorName(sr.report.tailError)
                      << "\n";
        }
    if (!rep.headerOk) {
        std::cerr << "nothing recoverable: " << rep.detail << "\n";
        return 1;
    }
    if (!args.outFile.empty()) {
        std::vector<std::uint8_t> bytes =
            serializeRecording(*rj.recording);
        writeFile(args.outFile, bytes);
        std::cout << "wrote " << bytes.size() << " bytes to "
                  << args.outFile << "\n";
    }
    return 0;
}

int
cmdVerify(const Args &args)
{
    if (args.positional.empty())
        return usage();
    const std::string &file = args.positional[0];
    if (!fileExists(file) && fileExists(file + ".s0")) {
        // A sharded journal set has no base file, only per-stream
        // files: verify them together under the consistent-cut rule.
        JournalSet js = loadJournalSet(file);
        RecoveredShardedJournal rj =
            recoverShardedJournal(asSpans(js.images));
        const RecoveryReport &rep = rj.report;
        std::cout << file << ": sharded journal, " << js.streams
                  << " stream(s): ";
        if (rep.clean())
            std::cout << "intact, " << rep.framesRecovered
                      << " committed epoch(s)\n";
        else
            std::cout << journalErrorName(rep.tailError)
                      << " at stream " << rep.streamIndex << " ("
                      << rep.detail << "); " << rep.framesRecovered
                      << " epoch(s) recoverable, "
                      << rep.bytesDiscarded << " byte(s) lost\n";
        return rep.clean() ? 0 : 1;
    }
    VerifyResult v = verifyImage(readFile(file));
    std::cout << file << ": " << v.detail << "\n";
    return v.ok ? 0 : 1;
}

int
cmdRaces(const Args &args)
{
    if (args.positional.empty())
        return usage();
    LoadedRecording loaded = loadArtifact(args.positional[0]);
    RaceDetector det;
    ReplayObserver obs = det.observer();
    Replayer rep(*loaded.recording);
    ReplayResult r = rep.replaySequential(&obs);
    if (!r.ok) {
        std::cerr << "replay failed; cannot analyse\n";
        return 1;
    }
    std::cout << det.accessesChecked() << " accesses, "
              << det.syncOpsSeen() << " sync ops, "
              << det.races().size() << " racy words\n";
    for (const RaceReport &race : det.races())
        std::cout << "  0x" << std::hex << race.wordAddr << std::dec
                  << "  threads " << race.first << "/" << race.second
                  << "  epoch " << race.epoch << "\n";
    return 0;
}

int
cmdProfile(const Args &args)
{
    if (args.positional.empty())
        return usage();
    LoadedRecording loaded = loadArtifact(args.positional[0]);
    ReplayProfiler prof;
    ReplayObserver obs = prof.observer();
    Replayer rep(*loaded.recording);
    if (!rep.replaySequential(&obs).ok) {
        std::cerr << "replay failed; cannot profile\n";
        return 1;
    }
    Table t({"thread", "reads", "writes", "atomics", "syscalls",
             "wakes rx", "wakes tx"});
    for (std::size_t i = 0; i < prof.threads().size(); ++i) {
        const ThreadProfile &p = prof.threads()[i];
        t.addRow({std::to_string(i), Table::num(p.reads),
                  Table::num(p.writes), Table::num(p.atomics),
                  Table::num(p.syscalls),
                  Table::num(p.wakesReceived),
                  Table::num(p.wakesGiven)});
    }
    t.print(std::cout);
    std::cout << "\nhottest pages:\n";
    for (const HotPage &hp : prof.hottestPages(5))
        std::cout << "  0x" << std::hex << hp.pageAddr << std::dec
                  << "  " << hp.accesses << " accesses, "
                  << hp.threadsTouching << " threads\n";
    return 0;
}

int
cmdStats(const Args &args)
{
    if (args.positional.empty())
        return usage();
    // A sharded journal set has no base file; route straight to
    // journal recovery instead of sniffing a file that isn't there.
    UniplayFileKind kind = UniplayFileKind::Journal;
    if (fileExists(args.positional[0]) ||
        !fileExists(args.positional[0] + ".s0")) {
        std::vector<std::uint8_t> bytes = readFile(args.positional[0]);
        kind = verifyImage(bytes).kind;
    }
    std::unique_ptr<Recording> rec;
    if (kind == UniplayFileKind::Artifact) {
        LoadedRecording loaded = loadArtifact(args.positional[0]);
        rec = std::move(loaded.recording);
    } else if (kind == UniplayFileKind::Journal) {
        JournalSet js = loadJournalSet(args.positional[0]);
        rec = recoverOrDie(args.positional[0], js).recording;
    } else {
        dp_fatal(args.positional[0],
                 ": not a uniplay artifact or journal");
    }
    MetricsOptions mopts;
    mopts.workerCpus = args.threads;
    mopts.totalCpus = 2 * args.threads;
    std::cout << metricsSnapshot(*rec, mopts).dump() << "\n";
    return 0;
}

int
cmdInfo(const Args &args)
{
    if (args.positional.empty())
        return usage();
    LoadedRecording loaded = loadArtifact(args.positional[0]);
    const Recording &rec = *loaded.recording;
    std::cout << "program: " << rec.program().name << " ("
              << rec.program().code.size() << " instrs)\n"
              << "epochs:  " << rec.epochs.size() << "\n"
              << "rollbacks: " << rec.stats.rollbacks << "\n"
              << "replay log: " << rec.replayLogBytes()
              << " bytes (schedule + injectables)\n"
              << "total log:  " << rec.totalLogBytes() << " bytes\n";
    Table t({"epoch", "segments", "syscalls", "log bytes",
             "diverged"});
    for (std::size_t i = 0; i < rec.epochs.size() && i < 20; ++i) {
        const EpochRecord &e = rec.epochs[i];
        t.addRow({std::to_string(i),
                  Table::num(std::uint64_t{e.schedule.size()}),
                  Table::num(std::uint64_t{e.syscalls.size()}),
                  Table::num(std::uint64_t{e.totalLogBytes()}),
                  e.diverged ? "yes" : "no"});
    }
    t.print(std::cout);
    if (rec.epochs.size() > 20)
        std::cout << "... (" << rec.epochs.size() - 20
                  << " more epochs)\n";
    return 0;
}

int
cmdDisasm(const Args &args)
{
    if (args.positional.empty())
        return usage();
    LoadedRecording loaded = loadArtifact(args.positional[0]);
    std::cout << disassemble(loaded.recording->program());
    return 0;
}

int
cmdWorkloads()
{
    Table t({"name", "paper equivalent", "category", "sharing"});
    for (const auto &w : workloads::allWorkloads())
        t.addRow({w.name, w.paperEquiv, w.category, w.sharing});
    t.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    Args args = parseArgs(argc, argv, 2);
    if (!args.badOption.empty()) {
        std::cerr << "unknown option: " << args.badOption << "\n";
        return usage();
    }
    if (!args.traceFile.empty() && cmd != "record" &&
        cmd != "record-asm" && cmd != "replay") {
        std::cerr << "--trace is not supported by '" << cmd
                  << "' (record, record-asm and replay only)\n";
        return usage();
    }
    if (args.jobsSet && cmd != "replay" && cmd != "recover") {
        std::cerr << "--jobs is not supported by '" << cmd
                  << "' (replay and recover only)\n";
        return usage();
    }
    if (args.journalStreamsSet && cmd != "record" &&
        cmd != "record-asm") {
        std::cerr << "--journal-streams is not supported by '" << cmd
                  << "' (record and record-asm only)\n";
        return usage();
    }
    if (args.journalStreamsSet && args.journalStreams == 0) {
        std::cerr << "--journal-streams needs at least one "
                     "stream\n";
        return usage();
    }
    if (args.journalStreamsSet &&
        args.journalStreams > maxJournalStreams) {
        std::cerr << "--journal-streams takes at most "
                  << maxJournalStreams << " streams\n";
        return usage();
    }
    if (args.ship && cmd != "record" && cmd != "record-asm") {
        std::cerr << "--ship is not supported by '" << cmd
                  << "' (record and record-asm only)\n";
        return usage();
    }
    if (args.lagSet && cmd != "ship" && !args.ship) {
        std::cerr << "--lag needs the ship command or record "
                     "--ship\n";
        return usage();
    }
    if (cmd == "ship")
        return cmdShip(args);
    if (cmd == "record")
        return cmdRecord(args);
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "record-asm")
        return cmdRecordAsm(args);
    if (cmd == "replay")
        return cmdReplay(args);
    if (cmd == "recover")
        return cmdRecover(args);
    if (cmd == "verify")
        return cmdVerify(args);
    if (cmd == "races")
        return cmdRaces(args);
    if (cmd == "profile")
        return cmdProfile(args);
    if (cmd == "stats")
        return cmdStats(args);
    if (cmd == "info")
        return cmdInfo(args);
    if (cmd == "disasm")
        return cmdDisasm(args);
    if (cmd == "workloads")
        return cmdWorkloads();
    return usage();
}
