#include "os/machine.hh"

#include "common/hash.hh"
#include "common/logging.hh"
#include "vm/abi.hh"

namespace dp
{

Machine::Machine(const GuestProgram &prog, MachineConfig cfg)
    : prog_(&prog), cfg_(std::move(cfg))
{
    prog.loadInto(mem);
    mem.clearDirty();

    for (const auto &[path, content] : cfg_.initialFiles)
        os.files[os.ensureFile(path)] = ChunkedFile(content);

    // fd 0 is a read-only empty null device (no stdin model); fd 1/2
    // are append-only sinks. Backing all three with real files keeps
    // their slots allocated (allocFd reuses slots with fileId < 0).
    std::uint32_t nul = os.ensureFile("<null>");
    std::uint32_t out = os.ensureFile("<stdout>");
    std::uint32_t err = os.ensureFile("<stderr>");
    os.allocFd(FileDesc{static_cast<std::int32_t>(nul), 0, false,
                        false});
    os.allocFd(FileDesc{static_cast<std::int32_t>(out), 0, true, true});
    os.allocFd(FileDesc{static_cast<std::int32_t>(err), 0, true, true});

    ThreadContext main;
    main.tid = 0;
    main.pc = prog.entry;
    main.reg(Reg::r2) = 0; // own tid
    threads.push_back(main);
    os.nextTid = 1;
}

bool
Machine::allExited() const
{
    for (const auto &t : threads)
        if (t.state != RunState::Exited)
            return false;
    return true;
}

std::size_t
Machine::runnableCount() const
{
    std::size_t n = 0;
    for (const auto &t : threads)
        n += t.state == RunState::Runnable;
    return n;
}

std::uint64_t
Machine::stateHash() const
{
    Digest d;
    d.word(mem.hash());
    for (const auto &t : threads)
        d.word(t.hash());
    d.word(os.hash());
    return d.value();
}

std::uint32_t
Machine::stdoutFile() const
{
    auto it = os.nameToFile.find("<stdout>");
    dp_assert(it != os.nameToFile.end(), "stdout sink missing");
    return it->second;
}

std::vector<std::uint8_t>
Machine::stdoutBytes() const
{
    return os.files[stdoutFile()].bytes();
}

std::uint64_t
Machine::stdoutSize() const
{
    return os.fileSize(stdoutFile());
}

std::uint64_t
Machine::totalRetired() const
{
    std::uint64_t n = 0;
    for (const auto &t : threads)
        n += t.retired;
    return n;
}

} // namespace dp
