#include "vm/interp.hh"

#include "common/logging.hh"
#include "mem/paged_memory.hh"

namespace dp
{

namespace
{

/** Faulting threads exit with this code (visible to join()). */
constexpr std::uint64_t faultExitCode = 0xdead;

} // namespace

// The decode table (decode.cc) allocates one handler slot per opcode
// plus a trailing fault slot; adding an opcode means adding a handler
// and a label-table entry below.
static_assert(static_cast<unsigned>(Opcode::NumOpcodes) == 48,
              "opcode count changed: update the dispatch table");

namespace
{

/**
 * The threaded (computed-goto) block runner. Handler label addresses
 * are function-local, so the same function doubles as the table
 * exporter: called with @p tc == nullptr it returns the label table
 * (indexed by opcode, trailing slot = fault) without executing
 * anything; otherwise it runs and fills @p *out, returning nullptr.
 * Computed goto is a GNU extension, which GCC and Clang both support.
 */
const void *const *
threadedBlockRun(ThreadContext *tc, PagedMemory *memp,
                 std::uint64_t max, std::uint8_t stop,
                 std::uint8_t first_stop, const DecodedInstr *code,
                 std::size_t code_size, Interpreter::BlockResult *out)
{
    // Must match Opcode declaration order exactly; the static_assert
    // above guards the count.
    static const void *const table[] = {
        &&h_Nop,
        &&h_Li, &&h_Mov,
        &&h_Add, &&h_Sub, &&h_Mul, &&h_Divu, &&h_Remu,
        &&h_And, &&h_Or, &&h_Xor,
        &&h_Shl, &&h_Shr, &&h_Sar,
        &&h_SltU, &&h_SltS, &&h_Seq,
        &&h_Addi, &&h_Andi, &&h_Ori, &&h_Xori,
        &&h_Shli, &&h_Shri, &&h_Muli,
        &&h_Ld8, &&h_Ld16, &&h_Ld32, &&h_Ld64,
        &&h_St8, &&h_St16, &&h_St32, &&h_St64,
        &&h_Beq, &&h_Bne, &&h_BltU, &&h_BltS, &&h_BgeU, &&h_BgeS,
        &&h_Beqz, &&h_Bnez,
        &&h_Jmp, &&h_Jal, &&h_Jr,
        &&h_Cas, &&h_FetchAdd, &&h_Xchg,
        &&h_Syscall, &&h_Halt,
        &&h_fault, // Opcode::NumOpcodes: invalid encodings
    };
    static_assert(sizeof(table) / sizeof(table[0]) ==
                  static_cast<std::size_t>(Opcode::NumOpcodes) + 1);

    if (tc == nullptr)
        return table;

    PagedMemory &mem = *memp;
    std::uint64_t *const regs = tc->regs.data();
    std::uint64_t pc = tc->pc;
    std::uint64_t n = 0;
    const DecodedInstr *ip = nullptr;
    StepKind last = StepKind::Ok;

#define DP_IMM(i) static_cast<std::uint64_t>((i)->imm)
#define DP_NEXT()                                                       \
    do {                                                                \
        if (n == max)                                                   \
            goto stop_budget;                                           \
        if (pc >= code_size)                                            \
            goto pc_out_of_range;                                       \
        ip = code + pc;                                                 \
        if (ip->cls & stop)                                             \
            goto stop_class;                                            \
        goto *const_cast<void *>(ip->handler);                          \
    } while (0)

    // The first instruction checks its own mask (see runBlock's lead).
    if (max > 0 && pc < code_size && !(code[pc].cls & first_stop)) {
        ip = code + pc;
        goto *const_cast<void *>(ip->handler);
    }
    DP_NEXT();

h_Nop:
    ++pc; ++n; DP_NEXT();
h_Li:
    regs[ip->rd] = DP_IMM(ip);
    ++pc; ++n; DP_NEXT();
h_Mov:
    regs[ip->rd] = regs[ip->rs1];
    ++pc; ++n; DP_NEXT();

h_Add:
    regs[ip->rd] = regs[ip->rs1] + regs[ip->rs2];
    ++pc; ++n; DP_NEXT();
h_Sub:
    regs[ip->rd] = regs[ip->rs1] - regs[ip->rs2];
    ++pc; ++n; DP_NEXT();
h_Mul:
    regs[ip->rd] = regs[ip->rs1] * regs[ip->rs2];
    ++pc; ++n; DP_NEXT();
h_Divu:
    // RISC-V semantics: division by zero yields all ones.
    regs[ip->rd] = regs[ip->rs2] == 0 ? ~std::uint64_t{0}
                                      : regs[ip->rs1] / regs[ip->rs2];
    ++pc; ++n; DP_NEXT();
h_Remu:
    regs[ip->rd] = regs[ip->rs2] == 0 ? regs[ip->rs1]
                                      : regs[ip->rs1] % regs[ip->rs2];
    ++pc; ++n; DP_NEXT();
h_And:
    regs[ip->rd] = regs[ip->rs1] & regs[ip->rs2];
    ++pc; ++n; DP_NEXT();
h_Or:
    regs[ip->rd] = regs[ip->rs1] | regs[ip->rs2];
    ++pc; ++n; DP_NEXT();
h_Xor:
    regs[ip->rd] = regs[ip->rs1] ^ regs[ip->rs2];
    ++pc; ++n; DP_NEXT();
h_Shl:
    regs[ip->rd] = regs[ip->rs1] << (regs[ip->rs2] & 63);
    ++pc; ++n; DP_NEXT();
h_Shr:
    regs[ip->rd] = regs[ip->rs1] >> (regs[ip->rs2] & 63);
    ++pc; ++n; DP_NEXT();
h_Sar:
    regs[ip->rd] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(regs[ip->rs1]) >>
        (regs[ip->rs2] & 63));
    ++pc; ++n; DP_NEXT();
h_SltU:
    regs[ip->rd] = regs[ip->rs1] < regs[ip->rs2] ? 1 : 0;
    ++pc; ++n; DP_NEXT();
h_SltS:
    regs[ip->rd] = static_cast<std::int64_t>(regs[ip->rs1]) <
                           static_cast<std::int64_t>(regs[ip->rs2])
                       ? 1
                       : 0;
    ++pc; ++n; DP_NEXT();
h_Seq:
    regs[ip->rd] = regs[ip->rs1] == regs[ip->rs2] ? 1 : 0;
    ++pc; ++n; DP_NEXT();

h_Addi:
    regs[ip->rd] = regs[ip->rs1] + DP_IMM(ip);
    ++pc; ++n; DP_NEXT();
h_Andi:
    regs[ip->rd] = regs[ip->rs1] & DP_IMM(ip);
    ++pc; ++n; DP_NEXT();
h_Ori:
    regs[ip->rd] = regs[ip->rs1] | DP_IMM(ip);
    ++pc; ++n; DP_NEXT();
h_Xori:
    regs[ip->rd] = regs[ip->rs1] ^ DP_IMM(ip);
    ++pc; ++n; DP_NEXT();
h_Shli:
    regs[ip->rd] = regs[ip->rs1] << (DP_IMM(ip) & 63);
    ++pc; ++n; DP_NEXT();
h_Shri:
    regs[ip->rd] = regs[ip->rs1] >> (DP_IMM(ip) & 63);
    ++pc; ++n; DP_NEXT();
h_Muli:
    regs[ip->rd] = regs[ip->rs1] * DP_IMM(ip);
    ++pc; ++n; DP_NEXT();

h_Ld8:
    regs[ip->rd] = mem.read8(regs[ip->rs1] + DP_IMM(ip));
    ++pc; ++n; DP_NEXT();
h_Ld16:
    regs[ip->rd] = mem.read16(regs[ip->rs1] + DP_IMM(ip));
    ++pc; ++n; DP_NEXT();
h_Ld32:
    regs[ip->rd] = mem.read32(regs[ip->rs1] + DP_IMM(ip));
    ++pc; ++n; DP_NEXT();
h_Ld64:
    regs[ip->rd] = mem.read64(regs[ip->rs1] + DP_IMM(ip));
    ++pc; ++n; DP_NEXT();
h_St8:
    mem.write8(regs[ip->rs1] + DP_IMM(ip),
               static_cast<std::uint8_t>(regs[ip->rs2]));
    ++pc; ++n; DP_NEXT();
h_St16:
    mem.write16(regs[ip->rs1] + DP_IMM(ip),
                static_cast<std::uint16_t>(regs[ip->rs2]));
    ++pc; ++n; DP_NEXT();
h_St32:
    mem.write32(regs[ip->rs1] + DP_IMM(ip),
                static_cast<std::uint32_t>(regs[ip->rs2]));
    ++pc; ++n; DP_NEXT();
h_St64:
    mem.write64(regs[ip->rs1] + DP_IMM(ip), regs[ip->rs2]);
    ++pc; ++n; DP_NEXT();

h_Beq:
    pc = regs[ip->rs1] == regs[ip->rs2] ? DP_IMM(ip) : pc + 1;
    ++n; DP_NEXT();
h_Bne:
    pc = regs[ip->rs1] != regs[ip->rs2] ? DP_IMM(ip) : pc + 1;
    ++n; DP_NEXT();
h_BltU:
    pc = regs[ip->rs1] < regs[ip->rs2] ? DP_IMM(ip) : pc + 1;
    ++n; DP_NEXT();
h_BltS:
    pc = static_cast<std::int64_t>(regs[ip->rs1]) <
                 static_cast<std::int64_t>(regs[ip->rs2])
             ? DP_IMM(ip)
             : pc + 1;
    ++n; DP_NEXT();
h_BgeU:
    pc = regs[ip->rs1] >= regs[ip->rs2] ? DP_IMM(ip) : pc + 1;
    ++n; DP_NEXT();
h_BgeS:
    pc = static_cast<std::int64_t>(regs[ip->rs1]) >=
                 static_cast<std::int64_t>(regs[ip->rs2])
             ? DP_IMM(ip)
             : pc + 1;
    ++n; DP_NEXT();
h_Beqz:
    pc = regs[ip->rs1] == 0 ? DP_IMM(ip) : pc + 1;
    ++n; DP_NEXT();
h_Bnez:
    pc = regs[ip->rs1] != 0 ? DP_IMM(ip) : pc + 1;
    ++n; DP_NEXT();
h_Jmp:
    pc = DP_IMM(ip);
    ++n; DP_NEXT();
h_Jal:
    regs[ip->rd] = pc + 1;
    pc = DP_IMM(ip);
    ++n; DP_NEXT();
h_Jr:
    pc = regs[ip->rs1];
    ++n; DP_NEXT();

h_Cas: {
    std::uint64_t addr = regs[ip->rs1];
    std::uint64_t old = mem.read64(addr);
    if (old == regs[ip->rd])
        mem.write64(addr, regs[ip->rs2]);
    regs[ip->rd] = old;
    ++pc; ++n; DP_NEXT();
}
h_FetchAdd: {
    std::uint64_t addr = regs[ip->rs1];
    std::uint64_t old = mem.read64(addr);
    mem.write64(addr, old + regs[ip->rs2]);
    regs[ip->rd] = old;
    ++pc; ++n; DP_NEXT();
}
h_Xchg: {
    std::uint64_t addr = regs[ip->rs1];
    std::uint64_t old = mem.read64(addr);
    mem.write64(addr, regs[ip->rs2]);
    regs[ip->rd] = old;
    ++pc; ++n; DP_NEXT();
}

h_Syscall:
    // Unreachable in practice: runBlock always puts ClsSyscall in the
    // stop mask, so syscalls are caught at stop_class. Kept so the
    // table stays total.
    last = StepKind::SyscallTrap;
    goto write_back;

h_Halt:
    tc->state = RunState::Exited;
    tc->exitCode = regs[0];
    ++n;
    last = StepKind::Halted;
    goto write_back;

h_fault:
    tc->state = RunState::Exited;
    tc->exitCode = faultExitCode;
    ++n;
    last = StepKind::Fault;
    goto write_back;

pc_out_of_range:
    if (!(stop & ClsExit))
        goto h_fault;
    out->boundary = ClsExit;
    goto write_back;

stop_class:
    last = (ip->cls & ClsSyscall) ? StepKind::SyscallTrap : StepKind::Ok;
    out->boundary = ip->cls;
    goto write_back;

stop_budget:
    last = StepKind::Ok;

write_back:
    tc->pc = pc;
    tc->retired += n;
    out->instrs = n;
    out->last = last;
    return nullptr;

#undef DP_NEXT
#undef DP_IMM
}

} // namespace

const void *const *
interpDispatchTable()
{
    return threadedBlockRun(nullptr, nullptr, 0, 0, 0, nullptr, 0,
                            nullptr);
}

Interpreter::BlockResult
Interpreter::runBlock(ThreadContext &tc, PagedMemory &mem,
                      std::uint64_t max_instrs, std::uint8_t stop_mask,
                      bool lead) const
{
    dp_assert(tc.state == RunState::Runnable,
              "running a non-runnable thread ", tc.tid);

    const DecodedProgram &dec = ensureDecoded();
    // Syscalls always stop a block: only the OS can complete them.
    const std::uint8_t stop = stop_mask | ClsSyscall;
    const std::uint8_t first_stop =
        lead ? std::uint8_t{ClsSyscall} : stop;

    BlockResult out;
    threadedBlockRun(&tc, &mem, max_instrs, stop, first_stop,
                     dec.code.data(),
                     dec.code.size(), &out);
    return out;
}

StepKind
Interpreter::step(ThreadContext &tc, PagedMemory &mem) const
{
    // One instruction is a block of one: the budget stops after a
    // plain instruction (Ok), a syscall stops before executing
    // (SyscallTrap), Halt/Fault terminate inside the block.
    return runBlock(tc, mem, 1, 0).last;
}

} // namespace dp
