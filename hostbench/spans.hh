/**
 * @file
 * Per-layer self-time attribution over one traced benchmark session.
 *
 * The benchmark wraps a span around every public call it makes into the
 * program (record, appendEpoch, pump, flush, serialize, load, the two
 * replays, recover, ship, promote, the native baseline, checkpoint
 * materialize/capture) and emits it into the session's TraceRecorder
 * on benchStage. The program's own spans (tp-epoch, checkpoint,
 * epoch-run, journal-append, replay-epoch, executor tasks) land in the
 * same sink. attribute() folds both into one table:
 *
 *  - phase: the top-level benchmark span whose window holds the span's
 *    start (record, promote, replaySequential, ...);
 *  - self time: a span's duration minus the direct children that ran
 *    on the same host thread. Spans carry a (stage, tid) track, not an
 *    OS thread, so the host thread is reconstructed from the session's
 *    fixed thread shape: the session thread runs the benchmark spans, the
 *    thread-parallel run and sequential replay; the recorder's single
 *    host worker runs every epoch-run; pool worker w runs executor
 *    track w; journal stream s commits on its own thread.
 */

#ifndef HOSTBENCH_SPANS_HH
#define HOSTBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace hostbench
{

/** Chrome-trace pid of the benchmark's own spans (the program uses 1-5). */
inline constexpr dp::TraceStage benchStage =
    static_cast<dp::TraceStage>(6);

/** One (phase, layer) row of the self-time table. */
struct LayerRow
{
    std::string phase;
    /** Span name; executor task spans are "task:<label>". */
    std::string layer;
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t selfNs = 0;
};

/** Self-time table of one traced session. */
struct Attribution
{
    std::vector<LayerRow> rows;
    /** Duration of the benchmark's record span. */
    std::uint64_t recordNs = 0;
    /**
     * Part of the record span during which a traced layer was on the
     * critical path: the session thread was inside a child span, or an
     * epoch-run was executing (the session thread is then either
     * overlapping it or waiting for its result).
     */
    std::uint64_t recordCoveredNs = 0;

    /** Sum of self time over @p layer in @p phase (0 if absent). */
    std::uint64_t selfNs(const std::string &phase,
                         const std::string &layer) const;
    /** Same, total (inclusive) time. */
    std::uint64_t totalNs(const std::string &phase,
                          const std::string &layer) const;
};

/** Fold a session's span events into its self-time table. */
Attribution attribute(const std::vector<dp::TraceEvent> &events);

} // namespace hostbench

#endif // HOSTBENCH_SPANS_HH
