#include "spans.hh"

#include <algorithm>
#include <map>
#include <utility>

namespace hostbench
{

namespace
{

using dp::TraceEvent;
using dp::TracePhase;
using dp::TraceStage;

struct Span
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    TraceStage stage = TraceStage::ThreadParallel;
    std::string layer;
    std::size_t phase = 0; ///< index into the phase list
    std::string thread;
    std::uint64_t childNs = 0;
};

struct Phase
{
    std::string name;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
};

constexpr std::size_t noPhase = ~std::size_t{0};

std::string
threadOf(const Span &s, const std::vector<Phase> &phases,
         std::uint32_t tid)
{
    switch (s.stage) {
    case TraceStage::ThreadParallel: return "main";
    case TraceStage::EpochParallel: return "pool0";
    case TraceStage::Journal: return "journal" + std::to_string(tid);
    case TraceStage::Exec: return "pool" + std::to_string(tid);
    case TraceStage::Replay:
        if (s.phase != noPhase &&
            phases[s.phase].name == "replay")
            return "main";
        return "pool" + std::to_string(tid);
    }
    return "main"; // benchStage
}

/** Total length of the union of @p iv clipped to [lo, hi). */
std::uint64_t
unionLength(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
            std::uint64_t lo, std::uint64_t hi)
{
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = lo;
    for (auto [b, e] : iv) {
        b = std::max(b, cursor);
        e = std::min(e, hi);
        if (e > b) {
            covered += e - b;
            cursor = e;
        }
    }
    return covered;
}

} // namespace

std::uint64_t
Attribution::selfNs(const std::string &phase,
                    const std::string &layer) const
{
    std::uint64_t ns = 0;
    for (const LayerRow &r : rows)
        if (r.phase == phase && r.layer == layer)
            ns += r.selfNs;
    return ns;
}

std::uint64_t
Attribution::totalNs(const std::string &phase,
                     const std::string &layer) const
{
    std::uint64_t ns = 0;
    for (const LayerRow &r : rows)
        if (r.phase == phase && r.layer == layer)
            ns += r.totalNs;
    return ns;
}

Attribution
attribute(const std::vector<TraceEvent> &events)
{
    // Phases: the benchmark spans no other benchmark span contains.
    // They all run on the session thread, so they nest properly.
    std::vector<Phase> phases;
    {
        std::vector<Phase> drv;
        for (const TraceEvent &e : events)
            if (e.phase == TracePhase::Span && e.stage == benchStage)
                drv.push_back({e.name, e.tsNs, e.tsNs + e.durNs});
        std::sort(drv.begin(), drv.end(),
                  [](const Phase &a, const Phase &b) {
                      return a.begin != b.begin ? a.begin < b.begin
                                                : a.end > b.end;
                  });
        for (Phase &p : drv)
            if (phases.empty() || p.begin >= phases.back().end)
                phases.push_back(std::move(p));
    }
    auto phase_of = [&](std::uint64_t t) {
        auto it = std::upper_bound(
            phases.begin(), phases.end(), t,
            [](std::uint64_t v, const Phase &p) { return v < p.begin; });
        if (it == phases.begin())
            return noPhase;
        --it;
        return t < it->end ? static_cast<std::size_t>(it - phases.begin())
                           : noPhase;
    };

    std::vector<Span> spans;
    for (const TraceEvent &e : events) {
        if (e.phase != TracePhase::Span)
            continue;
        Span s;
        s.begin = e.tsNs;
        s.end = e.tsNs + e.durNs;
        s.stage = e.stage;
        s.layer = e.stage == TraceStage::Exec
                      ? std::string("task:") + e.name
                      : std::string(e.name);
        s.phase = phase_of(s.begin);
        s.thread = threadOf(s, phases, e.tid);
        spans.push_back(std::move(s));
    }

    // Self time: per host thread, spans nest; a span's parent is the
    // innermost earlier span on the same thread that contains it.
    std::vector<std::size_t> order(spans.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const Span &x = spans[a], &y = spans[b];
                  if (x.thread != y.thread)
                      return x.thread < y.thread;
                  return x.begin != y.begin ? x.begin < y.begin
                                            : x.end > y.end;
              });
    std::vector<std::size_t> stack;
    for (std::size_t k = 0; k < order.size(); ++k) {
        Span &s = spans[order[k]];
        if (k > 0 && spans[order[k - 1]].thread != s.thread)
            stack.clear();
        while (!stack.empty() && spans[stack.back()].end < s.end)
            stack.pop_back();
        if (!stack.empty())
            spans[stack.back()].childNs += s.end - s.begin;
        stack.push_back(order[k]);
    }

    // Rows merge repeated phases of one name, ordered by first phase.
    std::map<std::string, std::size_t> first_phase;
    for (std::size_t p = 0; p < phases.size(); ++p)
        first_phase.emplace(phases[p].name, p);
    Attribution out;
    std::map<std::pair<std::size_t, std::string>, LayerRow> rows;
    for (const Span &s : spans) {
        const std::string phase =
            s.phase == noPhase ? "other" : phases[s.phase].name;
        LayerRow &r = rows[{s.phase == noPhase ? noPhase
                                               : first_phase[phase],
                            s.layer}];
        r.phase = phase;
        r.layer = s.layer;
        ++r.count;
        const std::uint64_t dur = s.end - s.begin;
        r.totalNs += dur;
        r.selfNs += dur - std::min(dur, s.childNs);
    }
    for (auto &[key, row] : rows)
        out.rows.push_back(std::move(row));

    for (std::size_t p = 0; p < phases.size(); ++p) {
        if (phases[p].name != "record")
            continue;
        const Phase &rec = phases[p];
        out.recordNs = rec.end - rec.begin;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
        for (const Span &s : spans) {
            if (s.phase != p)
                continue;
            // The phase span and the record() call are wrappers, not
            // layers: only what runs inside them counts as covered.
            const bool layer_on_main =
                s.thread == "main" && s.layer != "record" &&
                s.layer != "UniparallelRecorder::record";
            if (layer_on_main || s.stage == TraceStage::EpochParallel)
                iv.emplace_back(s.begin, s.end);
        }
        out.recordCoveredNs += unionLength(std::move(iv), rec.begin,
                                           rec.end);
    }
    return out;
}

} // namespace hostbench
