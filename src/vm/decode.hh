/**
 * @file
 * Decoded guest code: the interpreter's dispatch-ready form.
 *
 * The interpreter's inner loop should not re-derive anything per
 * instruction that is a pure function of the program text. Decoding
 * pre-resolves, per instruction:
 *  - the dispatch handler (a computed-goto label address),
 *  - a class bitmask (syscall / atomic / memory), so the block runner
 *    can test "must I stop here?" with one AND, and
 *  - the operands, widened to plain integers.
 *
 * A DecodedProgram is immutable once built and is memoized on its
 * GuestProgram keyed by the program's code stamp: re-assembling or
 * editing code bumps the stamp (GuestProgram::invalidateCode), so a
 * stale decode can never be dispatched — the interpreter re-checks
 * the stamp before every block (vm_test pins the resume-after-
 * reassembly case).
 */

#ifndef DP_VM_DECODE_HH
#define DP_VM_DECODE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "vm/isa.hh"

namespace dp
{

struct GuestProgram;

/** Instruction class bits (DecodedInstr::cls). A block run stops
 *  *before* any instruction whose class intersects its stop mask. */
enum : std::uint8_t
{
    ClsSyscall = 1, ///< traps to the OS; never executed in a block
    ClsAtomic = 2,  ///< guest sync op (always also ClsMem)
    ClsMem = 4,     ///< reads or writes guest memory
    /** Halt or an invalid encoding: ends the thread. A block whose
     *  stop mask holds it parks before the exit (and before a pc past
     *  the end of the code) instead of executing it inline. */
    ClsExit = 8,
};

/** One dispatch-ready instruction. */
struct DecodedInstr
{
    /** Threaded-dispatch target (label address inside the block
     *  runner). */
    const void *handler = nullptr;
    Opcode op = Opcode::Nop;
    std::uint8_t cls = 0;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    std::int64_t imm = 0;
};

/** Decoded form of one GuestProgram's code, tied to the code stamp it
 *  was built from. */
struct DecodedProgram
{
    std::uint64_t stamp = 0;
    std::vector<DecodedInstr> code;

    /** Decode @p prog's current code (records prog.codeStamp()). */
    static std::shared_ptr<const DecodedProgram>
    build(const GuestProgram &prog);
};

/** Class bitmask of @p op (see the Cls constants). */
std::uint8_t opcodeClass(Opcode op);

/**
 * Handler table of the threaded block runner, indexed by opcode, with
 * one extra trailing slot for invalid encodings. Defined in
 * interp.cc — the labels live in the block runner.
 */
const void *const *interpDispatchTable();

} // namespace dp

#endif // DP_VM_DECODE_HH
