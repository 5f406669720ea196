#include "ckpt/checkpoint.hh"

#include "common/hash.hh"

namespace dp
{

Checkpoint
Checkpoint::capture(Machine &m)
{
    Checkpoint c;
    c.stateHash_ = m.stateHash();
    c.mem_ = m.mem.snapshot();
    c.threads_ = m.threads;
    c.os_ = m.os;
    c.now_ = m.now;
    return c;
}

Checkpoint
Checkpoint::captureTorn(Machine &m, std::uint64_t salt)
{
    Checkpoint c = capture(m);
    // The digest of a half-copied snapshot is some unrelated value;
    // xor-ing in a mixed, never-zero perturbation models that without
    // needing to half-copy pages for real.
    c.stateHash_ ^= mix64(salt) | 1;
    return c;
}

Machine
Checkpoint::materialize(const GuestProgram &prog,
                        const MachineConfig &cfg) const
{
    Machine m(Machine::RestoreOnly{}, prog, cfg);
    restoreInto(m);
    return m;
}

void
Checkpoint::restoreInto(Machine &m) const
{
    m.mem.restore(mem_);
    m.threads = threads_;
    m.os = os_;
    m.now = now_;
}

} // namespace dp
