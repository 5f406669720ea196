/**
 * @file
 * The guest instruction interpreter.
 *
 * The interpreter is stateless apart from a memoized pointer to the
 * program's decoded form: all mutable guest state lives in the
 * ThreadContext and PagedMemory it is given, so the same Interpreter
 * can drive any number of concurrent epoch executions.
 *
 * Execution has two granularities sharing one implementation:
 *  - step(): exactly one instruction (the one boundary instruction an
 *    engine observes with per-instruction bookkeeping);
 *  - runBlock(): a tight threaded-dispatch loop that retires plain
 *    instructions until a boundary — budget, syscall, a class the
 *    caller must observe per-instruction (atomics, memory ops, thread
 *    exits), or thread termination. Both engines' slices and batches
 *    are built on this, so guest code does not pay one dispatch
 *    round-trip per instruction.
 *
 * Dispatch is computed-goto threaded code (a GNU extension; GCC and
 * Clang both support it).
 */

#ifndef DP_VM_INTERP_HH
#define DP_VM_INTERP_HH

#include <cstdint>
#include <memory>

#include "vm/context.hh"
#include "vm/decode.hh"
#include "vm/program.hh"

namespace dp
{

class PagedMemory;

/** Outcome of executing (or attempting) one instruction. */
enum class StepKind : std::uint8_t
{
    Ok,          ///< instruction retired normally
    SyscallTrap, ///< Syscall reached: OS must complete it (pc unchanged)
    Halted,      ///< Halt retired: thread exited with r0 as code
    Fault,       ///< invalid pc or opcode: thread exited with 0xdead
};

/** Interprets guest code for one program. */
class Interpreter
{
  public:
    explicit Interpreter(const GuestProgram &prog) : prog_(&prog) {}

    /**
     * Execute one instruction of @p tc against @p mem.
     *
     * On Ok, pc and tc.retired advance. On SyscallTrap, pc and retired
     * are left untouched: the OS layer completes the call, writes the
     * result to r0, and calls completeSyscall().
     *
     * Halt and Fault share one exit contract: the context is marked
     * Exited, the terminating attempt retires (pc frozen, retired
     * advanced by one), and the exit code is r0 for Halt and 0xdead
     * for Fault. The StepKind alone distinguishes them; callers treat
     * both as "thread finished this slice".
     */
    StepKind step(ThreadContext &tc, PagedMemory &mem) const;

    /** Why a runBlock() call stopped, and how much it retired. */
    struct BlockResult
    {
        /** Instructions retired by the block (includes a terminating
         *  Halt/Fault). */
        std::uint64_t instrs = 0;
        /**
         * Ok: stopped at the budget or before an instruction matching
         * the stop mask (pc at the unexecuted instruction).
         * SyscallTrap: stopped before a Syscall (never executed in a
         * block). Halted/Fault: the thread exited inside the block.
         */
        StepKind last = StepKind::Ok;
        /**
         * Class bits (decode.hh) of the instruction the block stopped
         * before: the boundary the caller handles next. 0 when the
         * budget ran out or the thread exited; ClsExit also for a pc
         * past the end of the code when ClsExit is in the stop mask.
         */
        std::uint8_t boundary = 0;
    };

    /**
     * Run @p tc to its next boundary: retire up to @p max_instrs
     * instructions in one tight dispatch loop, stopping *before* any
     * Syscall and before any instruction whose class intersects
     * @p stop_mask (ClsAtomic, ClsMem, ClsExit — see decode.hh). The
     * result names the boundary, so the caller handles that one
     * instruction with its per-instruction hooks and then re-enters.
     * Both schedulers run guest code through this one helper:
     * UniRunner::runSlice between its observed instructions, and
     * MultiCpuSim for the register-only stretches between a CPU's
     * shared-visible instructions. Signal delivery, sync-order
     * permits and cost accounting are the caller's business at
     * block boundaries; a block must only be entered when none of
     * those can trigger mid-block. With @p lead the first
     * instruction executes whatever its class (a syscall still
     * stops): the caller has already ordered it.
     */
    BlockResult runBlock(ThreadContext &tc, PagedMemory &mem,
                         std::uint64_t max_instrs, std::uint8_t stop_mask,
                         bool lead = false) const;

    /** Retire the trapped syscall: set the result and advance. */
    static void
    completeSyscall(ThreadContext &tc, std::uint64_t result)
    {
        tc.reg(Reg::r0) = result;
        ++tc.pc;
        ++tc.retired;
    }

    /** Opcode of the instruction @p tc will execute next (for
     *  sync-order classification); Nop if pc is out of range. */
    Opcode
    nextOpcode(const ThreadContext &tc) const
    {
        if (tc.pc >= prog_->code.size())
            return Opcode::Nop;
        return prog_->code[tc.pc].op;
    }

    /** Effective address of the atomic op at @p tc's pc. */
    std::uint64_t
    nextAtomicAddr(const ThreadContext &tc) const
    {
        const Instr &in = prog_->code[tc.pc];
        return tc.reg(in.rs1);
    }

    /** The instruction at @p tc's pc (which must be in range). */
    const Instr &
    instrAt(const ThreadContext &tc) const
    {
        return prog_->code[tc.pc];
    }

    /**
     * Effective address and write-ness of the memory instruction at
     * @p tc's pc; only meaningful when isMemOp(nextOpcode(tc)).
     */
    std::pair<std::uint64_t, bool>
    nextMemAccess(const ThreadContext &tc) const
    {
        const Instr &in = prog_->code[tc.pc];
        if (isAtomicOp(in.op))
            return {tc.reg(in.rs1), true};
        bool is_write = in.op >= Opcode::St8 && in.op <= Opcode::St64;
        return {tc.reg(in.rs1) + static_cast<std::uint64_t>(in.imm),
                is_write};
    }

    const GuestProgram &program() const { return *prog_; }

  private:
    /** The program's decoded code, revalidated against the code stamp
     *  so an invalidateCode() between runs is always honored. */
    const DecodedProgram &
    ensureDecoded() const
    {
        if (!decoded_ || decoded_->stamp != prog_->codeStamp())
            decoded_ = prog_->decoded();
        return *decoded_;
    }

    const GuestProgram *prog_;
    mutable std::shared_ptr<const DecodedProgram> decoded_;
};

} // namespace dp

#endif // DP_VM_INTERP_HH
