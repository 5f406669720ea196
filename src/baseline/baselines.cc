#include "baseline/baselines.hh"

#include <unordered_map>

#include "common/bytes.hh"
#include "os/multicpu_sim.hh"
#include "os/simos.hh"

namespace dp
{

namespace
{

constexpr Cycles runForever = ~Cycles{0} >> 1;

/** CREW per-page ownership state. */
struct PageOwner
{
    bool exclusive = false;
    CpuId owner = 0; ///< meaningful when exclusive
};

BaselineResult
finish(Machine &m, MultiCpuSim &sim, StopReason reason,
       std::uint64_t events, std::uint64_t log_bytes)
{
    BaselineResult res;
    res.reason = reason;
    res.cycles = m.now;
    res.instrs = sim.stats().instrs;
    res.events = events;
    res.logBytes = log_bytes;
    if (!m.threads.empty())
        res.exitCode = m.threads[0].exitCode;
    return res;
}

} // namespace

CrewRecorder::CrewRecorder(const GuestProgram &prog, MachineConfig cfg,
                           BaselineOptions opts, CostModel costs)
    : prog_(&prog), cfg_(std::move(cfg)), opts_(opts), costs_(costs)
{}

BaselineResult
CrewRecorder::record()
{
    Machine m(*prog_, cfg_);
    SimOS os(costs_);

    std::unordered_map<std::uint64_t, PageOwner> owners;
    std::uint64_t events = 0;
    std::uint64_t log_bytes = 0;

    MpHooks hooks;
    hooks.onMemAccess = [&](ThreadId, CpuId cpu, Addr addr,
                            bool is_write) -> Cycles {
        PageOwner &po = owners[addr >> Page::logBytes];
        bool fault;
        if (is_write) {
            fault = !(po.exclusive && po.owner == cpu);
            po.exclusive = true;
            po.owner = cpu;
        } else {
            fault = po.exclusive && po.owner != cpu;
            if (fault)
                po.exclusive = false; // downgrade to concurrent-read
        }
        if (!fault)
            return 0;
        ++events;
        // Ordering entry: (cpu, page, instruction count) ~ varints.
        ByteWriter w;
        w.varu(cpu);
        w.varu(addr >> Page::logBytes);
        w.varu(m.now);
        log_bytes += w.size();
        return costs_.crewFaultCycles;
    };
    hooks.onSyscall = [&](ThreadId, Sys, std::uint64_t value, bool) {
        log_bytes += 1 + (64 - __builtin_clzll(value | 1) + 6) / 7;
    };

    MpOptions mp;
    mp.cpus = opts_.cpus;
    mp.seed = opts_.seed;
    mp.fuel = opts_.fuel;
    mp.record = true; // charge syscall logging like any recorder
    MultiCpuSim sim(m, os, mp, hooks);
    StopReason reason = sim.run(runForever);
    return finish(m, sim, reason, events, log_bytes);
}

ValueLogRecorder::ValueLogRecorder(const GuestProgram &prog,
                                   MachineConfig cfg,
                                   BaselineOptions opts,
                                   CostModel costs)
    : prog_(&prog), cfg_(std::move(cfg)), opts_(opts), costs_(costs)
{}

BaselineResult
ValueLogRecorder::record()
{
    Machine m(*prog_, cfg_);
    SimOS os(costs_);

    // Last writer per page; ~ThreadId{0} = no writer yet.
    std::unordered_map<std::uint64_t, ThreadId> last_writer;
    std::uint64_t events = 0;
    std::uint64_t log_bytes = 0;

    MpHooks hooks;
    hooks.onMemAccess = [&](ThreadId tid, CpuId, Addr addr,
                            bool is_write) -> Cycles {
        // Every access pays the dynamic-instrumentation dispatch.
        Cycles cost = costs_.valueInstrumentCycles;
        std::uint64_t page = addr >> Page::logBytes;
        if (is_write) {
            last_writer[page] = tid;
            return cost;
        }
        auto it = last_writer.find(page);
        if (it == last_writer.end() || it->second == tid)
            return cost; // thread-local data: no logging needed
        ++events;
        std::uint64_t value = m.mem.read64(addr & ~std::uint64_t{7});
        log_bytes += (64 - __builtin_clzll(value | 1) + 6) / 7;
        return cost + costs_.valueLogCycles;
    };
    hooks.onSyscall = [&](ThreadId, Sys, std::uint64_t value, bool) {
        log_bytes += 1 + (64 - __builtin_clzll(value | 1) + 6) / 7;
    };

    MpOptions mp;
    mp.cpus = opts_.cpus;
    mp.seed = opts_.seed;
    mp.fuel = opts_.fuel;
    mp.record = true;
    MultiCpuSim sim(m, os, mp, hooks);
    StopReason reason = sim.run(runForever);
    return finish(m, sim, reason, events, log_bytes);
}

NativeResult
runNativeBaseline(const GuestProgram &prog, const MachineConfig &cfg,
                  CpuId cpus, std::uint64_t seed, std::uint64_t fuel,
                  CostModel costs)
{
    Machine m(prog, cfg);
    SimOS os(costs);
    MpOptions mp;
    mp.cpus = cpus;
    mp.seed = seed;
    mp.fuel = fuel;
    MultiCpuSim sim(m, os, mp, {});
    NativeResult res;
    res.reason = sim.run(runForever);
    res.cycles = m.now;
    res.instrs = sim.stats().instrs;
    res.syncOps = sim.stats().syncOps;
    res.syscalls = sim.stats().syscalls;
    if (!m.threads.empty())
        res.exitCode = m.threads[0].exitCode;
    res.residentPages = m.mem.residentPages();
    res.stdoutLen = m.stdoutSize();
    res.threadsPeak = static_cast<std::uint32_t>(m.threads.size());
    return res;
}

} // namespace dp
