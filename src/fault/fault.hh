/**
 * @file
 * Deterministic fault injection for the uniparallel pipeline.
 *
 * A FaultPlan names the sites where faults may fire, each with a
 * probability and a per-scope trigger budget, under one master seed. A
 * FaultInjector evaluates the plan at runtime: every decision is a pure
 * function of (seed, site, scope, sequence-within-scope), so a given
 * plan produces the *same* fault stream on every run regardless of host
 * threading — any failing run is replayable as a regression test from
 * its seed alone.
 *
 * Scopes partition a site's decision stream (the recorder uses epoch
 * and checkpoint sequence numbers) so that decisions made concurrently
 * for different epochs never consume each other's draws.
 */

#ifndef DP_FAULT_FAULT_HH
#define DP_FAULT_FAULT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dp
{

/** Every place the pipeline can be made to fail. */
enum class FaultSite : std::uint8_t
{
    /** NetRecv returns a transient error (~0) and delivers nothing. */
    NetRecvFail,
    /** NetRecv delivers fewer bytes than had arrived. */
    NetRecvShort,
    /** GetTime returns a transient error (~0) instead of the clock. */
    GetTimeFail,
    /** File Read delivers a short count in the thread-parallel run
     *  only — the epoch-parallel run re-executes the full read, so
     *  this forces a divergence and exercises rollback. */
    FileShortRead,
    /** Checkpoint capture produces a torn snapshot whose digest does
     *  not match the machine (detected and recaptured). */
    TornCheckpoint,
    /** The epoch-parallel worker dies before delivering its result
     *  (epoch re-executed; repeated deaths degrade the epoch to an
     *  inline sequential execution). */
    WorkerDeath,
    /** The journal writer dies mid-frame, leaving a torn tail (a
     *  prefix of the frame's bytes) after the committed frames. */
    TornFrameWrite,
    /** The journal writer dies cleanly between frames: the journal
     *  ends exactly at a frame boundary. */
    JournalCrash,
    /** A bit flips inside an already-committed journal frame (storage
     *  corruption); recovery must detect it via the frame CRC. */
    JournalBitFlip,
    /** One stream of a sharded journal dies mid-frame, leaving a torn
     *  tail on that stream only — its siblings keep committing. */
    StreamTornWrite,
    /** One stream's committer dies cleanly between frames; the stream
     *  ends at a frame boundary while its siblings run on. */
    StreamCrash,
    /** A bit flips inside a committed frame of one stream (per-stream
     *  storage corruption). */
    StreamBitFlip,
    /** The shipping link silently drops a batch: the standby never
     *  sees it and the sender sees a timeout. */
    LinkDrop,
    /** The shipping link delivers a batch twice back to back; the
     *  standby must apply it idempotently. */
    LinkDuplicate,
    /** The shipping link holds a batch and delivers it after a later
     *  one — out-of-order arrival at the standby. */
    LinkReorder,
    /** The shipping link truncates a batch mid-flight; the batch CRC
     *  fails at the standby and the whole batch is rejected. */
    LinkTornBatch,
    /** The shipping link goes down (in-flight batches lost) until the
     *  sender reconnects. */
    LinkDisconnect,
    /** The standby process crashes, losing all volatile state; it
     *  recovers from its persisted journal images via
     *  recoverShardedJournal and resyncs. */
    StandbyCrash,
    NumSites
};

inline constexpr std::size_t numFaultSites =
    static_cast<std::size_t>(FaultSite::NumSites);

/** Canonical spec-string name of a site (e.g. "netrecv-fail"). */
const char *faultSiteName(FaultSite site);

/** One injected fault, as it fired. */
struct FaultEvent
{
    FaultSite site = FaultSite::NumSites;
    /** Decision-stream scope (epoch / checkpoint sequence number). */
    std::uint64_t scope = 0;
    /** Index of the decision within its (site, scope) stream. */
    std::uint64_t seq = 0;

    bool operator==(const FaultEvent &) const = default;
};

/**
 * Immutable description of what may fail and how often. Probabilities
 * are stored in parts-per-million so plans hash and compare exactly.
 */
struct FaultPlan
{
    struct Site
    {
        /** Firing probability in parts per million (0 = disabled). */
        std::uint32_t ppm = 0;
        /** Max triggers per (site, scope) decision stream. */
        std::uint32_t maxPerScope = ~std::uint32_t{0};
    };

    std::uint64_t seed = 0;
    std::array<Site, numFaultSites> sites{};

    /** Enable @p site with probability @p prob (0..1); chainable. */
    FaultPlan &with(FaultSite site, double prob,
                    std::uint32_t max_per_scope = ~std::uint32_t{0});

    /** True if any site has a nonzero probability. */
    bool enabled() const;

    /**
     * Parse a spec like "netrecv-fail=0.01,worker-death=0.5:1" —
     * comma-separated site=probability[:budget] entries (see
     * faultSiteName for the site names). Exits via dp_fatal on a
     * malformed spec (CLI entry point).
     */
    static FaultPlan parse(const std::string &spec, std::uint64_t seed);

    /** Human-readable one-line summary of the enabled sites. */
    std::string describe() const;
};

/** Counters per site, readable while a session runs. */
struct FaultStats
{
    std::array<std::uint64_t, numFaultSites> fired{};
    std::array<std::uint64_t, numFaultSites> queried{};

    std::uint64_t totalFired() const;
};

/**
 * Evaluates a FaultPlan. fire() is safe to call from any host thread;
 * decisions depend only on (seed, site, scope, per-scope sequence), so
 * as long as each (site, scope) stream is queried in a deterministic
 * order — true of every site the recorder arms — the event stream is
 * identical across runs.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

    /** Decide whether the fault at @p site fires now in @p scope. */
    bool fire(FaultSite site, std::uint64_t scope = 0);

    const FaultPlan &plan() const { return plan_; }

    /** Times @p site has fired so far. */
    std::uint64_t count(FaultSite site) const;
    /** Snapshot of all counters. */
    FaultStats stats() const;
    /** Every fault fired so far, in firing order. */
    std::vector<FaultEvent> events() const;

    /** Invoked (under no lock ordering guarantees beyond firing
     *  order) for every fault that fires. */
    std::function<void(const FaultEvent &)> onFault;

  private:
    struct ScopeState
    {
        std::uint64_t seq = 0;
        std::uint32_t fired = 0;
    };

    FaultPlan plan_;
    mutable std::mutex mu_;
    std::map<std::pair<std::uint8_t, std::uint64_t>, ScopeState>
        scopes_;
    FaultStats stats_;
    std::vector<FaultEvent> events_;
};

} // namespace dp

#endif // DP_FAULT_FAULT_HH
