/**
 * @file
 * Unit tests for the guest ISA: assembler label resolution,
 * interpreter semantics per opcode class, and the asmlib sync idioms.
 */

#include <gtest/gtest.h>

#include "mem/paged_memory.hh"
#include "os/simos.hh"
#include "os/uni_runner.hh"
#include "vm/asmlib.hh"
#include "vm/assembler.hh"
#include "vm/interp.hh"

namespace dp
{
namespace
{

using enum Reg;

/** Run a single-threaded program to completion; return the machine. */
Machine
runProgram(const GuestProgram &prog)
{
    Machine m(prog, {});
    SimOS os;
    UniRunner runner(m, os, {}, {});
    EXPECT_EQ(runner.run(), StopReason::AllExited);
    return m;
}

std::uint64_t
evalExit(const std::function<void(Assembler &)> &body)
{
    Assembler a;
    body(a);
    a.mov(r1, r15); // convention: tests leave the result in r15
    a.sys(Sys::Exit);
    Machine m = runProgram(a.finish("eval"));
    return m.threads[0].exitCode;
}

TEST(Interp, ArithmeticSemantics)
{
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.li(r1, 7);
                  a.li(r2, 5);
                  a.add(r15, r1, r2);
              }),
              12u);
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.li(r1, 7);
                  a.li(r2, 5);
                  a.sub(r15, r2, r1); // 5 - 7 wraps
              }),
              static_cast<std::uint64_t>(-2));
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.li(r1, 1);
                  a.li(r2, 40);
                  a.shl(r15, r1, r2);
              }),
              std::uint64_t{1} << 40);
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.li(r1, -16);
                  a.li(r2, 2);
                  a.sar(r15, r1, r2);
              }),
              static_cast<std::uint64_t>(-4));
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.li(r1, -16);
                  a.li(r2, 2);
                  a.shr(r15, r1, r2);
              }),
              (~std::uint64_t{0} - 15) >> 2);
}

TEST(Interp, DivisionByZeroFollowsRiscV)
{
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.li(r1, 99);
                  a.li(r2, 0);
                  a.divu(r15, r1, r2);
              }),
              ~std::uint64_t{0});
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.li(r1, 99);
                  a.li(r2, 0);
                  a.remu(r15, r1, r2);
              }),
              99u);
}

TEST(Interp, ComparisonsSignedAndUnsigned)
{
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.li(r1, -1); // max unsigned
                  a.li(r2, 1);
                  a.sltu(r15, r1, r2);
              }),
              0u);
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.li(r1, -1);
                  a.li(r2, 1);
                  a.slts(r15, r1, r2);
              }),
              1u);
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.li(r1, 3);
                  a.li(r2, 3);
                  a.seq(r15, r1, r2);
              }),
              1u);
}

TEST(Interp, LoadsZeroExtend)
{
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.li(r1, -1);
                  a.lia(r2, 0x100);
                  a.st64(r2, 0, r1);
                  a.ld8(r15, r2, 0);
              }),
              0xffu);
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.li(r1, -1);
                  a.lia(r2, 0x100);
                  a.st64(r2, 0, r1);
                  a.ld32(r15, r2, 0);
              }),
              0xffffffffu);
}

TEST(Interp, StoreNarrowingKeepsLowBits)
{
    Assembler a;
    a.li(r1, 0x1122334455667788);
    a.lia(r2, 0x200);
    a.st16(r2, 0, r1);
    a.ld64(r15, r2, 0);
    a.mov(r1, r15);
    a.sys(Sys::Exit);
    Machine m = runProgram(a.finish("store_narrow"));
    EXPECT_EQ(m.threads[0].exitCode, 0x7788u);
}

TEST(Interp, CasSemantics)
{
    // Successful CAS: memory updated, old value returned.
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.lia(r2, 0x300);
                  a.li(r1, 5);
                  a.st64(r2, 0, r1);
                  a.li(r15, 5);  // expected
                  a.li(r3, 9);   // desired
                  a.cas(r15, r2, r3);
                  a.ld64(r4, r2, 0);
                  a.muli(r4, r4, 100);
                  a.add(r15, r15, r4); // old(5) + 100*new(9)
              }),
              905u);
    // Failed CAS: memory unchanged, old value returned.
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.lia(r2, 0x300);
                  a.li(r1, 5);
                  a.st64(r2, 0, r1);
                  a.li(r15, 6); // wrong expectation
                  a.li(r3, 9);
                  a.cas(r15, r2, r3);
                  a.ld64(r4, r2, 0);
                  a.muli(r4, r4, 100);
                  a.add(r15, r15, r4); // old(5) + 100*mem(5)
              }),
              505u);
}

TEST(Interp, FetchAddAndXchg)
{
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.lia(r2, 0x400);
                  a.li(r1, 10);
                  a.st64(r2, 0, r1);
                  a.li(r3, 32);
                  a.fetchAdd(r15, r2, r3); // returns 10, mem = 42
                  a.ld64(r4, r2, 0);
                  a.add(r15, r15, r4); // 10 + 42
              }),
              52u);
    EXPECT_EQ(evalExit([](Assembler &a) {
                  a.lia(r2, 0x400);
                  a.li(r1, 7);
                  a.st64(r2, 0, r1);
                  a.li(r3, 11);
                  a.xchg(r15, r2, r3);
                  a.ld64(r4, r2, 0);
                  a.muli(r4, r4, 10);
                  a.add(r15, r15, r4); // 7 + 110
              }),
              117u);
}

TEST(Interp, JalAndJrImplementCalls)
{
    Assembler a;
    Label fn = a.newLabel();
    a.li(r10, 5);
    a.jal(r14, fn); // call
    a.mov(r1, r10);
    a.sys(Sys::Exit);
    a.bind(fn);
    a.muli(r10, r10, 3);
    a.jr(r14); // return
    Machine m = runProgram(a.finish("call"));
    EXPECT_EQ(m.threads[0].exitCode, 15u);
}

TEST(Interp, FaultOnPcOutOfRangeExitsThread)
{
    Assembler a;
    Label far = a.newLabel();
    a.jmp(far);
    a.nop();
    a.bind(far); // binds to one-past-last instruction
    GuestProgram prog = a.finish("fall_off");
    Machine m(prog, {});
    SimOS os;
    UniRunner runner(m, os, {}, {});
    EXPECT_EQ(runner.run(), StopReason::AllExited);
    EXPECT_EQ(m.threads[0].exitCode, 0xdeadu);
}

TEST(Interp, HaltExitsWithR0)
{
    Assembler a;
    a.li(r0, 77);
    a.halt();
    Machine m = runProgram(a.finish("halt"));
    EXPECT_EQ(m.threads[0].exitCode, 77u);
    EXPECT_EQ(m.threads[0].state, RunState::Exited);
}

TEST(Interp, RetiredCountsExactly)
{
    Assembler a;
    a.li(r1, 1);  // 1
    a.li(r2, 2);  // 2
    a.add(r3, r1, r2); // 3
    a.li(r1, 0);  // 4
    a.sys(Sys::Exit); // li(5) + syscall(6)
    Machine m = runProgram(a.finish("count"));
    EXPECT_EQ(m.threads[0].retired, 6u);
}

// Regression: out-of-range pc and invalid opcode share one exit
// contract — Exited, exit code 0xdead, the faulting attempt retired,
// StepKind::Fault. (Faults previously did not retire, so the thread's
// retired count disagreed with the slice's instruction count.)
TEST(Interp, FaultContractIsUniform)
{
    // Invalid opcode: hand-build a program the assembler refuses.
    GuestProgram bad;
    bad.name = "badop";
    bad.code.push_back({static_cast<Opcode>(0xee), r0, r0, r0, 0});
    {
        Machine m(bad, {});
        Interpreter interp(bad);
        EXPECT_EQ(interp.step(m.threads[0], m.mem), StepKind::Fault);
        EXPECT_EQ(m.threads[0].state, RunState::Exited);
        EXPECT_EQ(m.threads[0].exitCode, 0xdeadu);
        EXPECT_EQ(m.threads[0].retired, 1u);
    }

    // Out-of-range pc, through the engine: jmp (1) + fault (1).
    Assembler a;
    Label far = a.newLabel();
    a.jmp(far);
    a.nop();
    a.bind(far); // one past the last instruction
    GuestProgram prog = a.finish("fall_off_counted");
    Machine m(prog, {});
    SimOS os;
    UniRunner runner(m, os, {}, {});
    EXPECT_EQ(runner.run(), StopReason::AllExited);
    EXPECT_EQ(m.threads[0].exitCode, 0xdeadu);
    EXPECT_EQ(m.threads[0].retired, 2u);
}

TEST(Interp, RunBlockStopsAtBoundaries)
{
    Assembler a;
    a.li(r1, 1);           // 0
    a.li(r9, 0x1000);      // 1
    a.fetchAdd(r4, r9, r1); // 2: atomic
    a.li(r5, 7);           // 3
    a.sys(Sys::Exit);      // 4: li r0, 5: syscall
    GuestProgram prog = a.finish("boundaries");
    Machine m(prog, {});
    Interpreter interp(prog);
    ThreadContext &tc = m.threads[0];

    // Budget stop: one instruction, pc at the next one.
    auto b = interp.runBlock(tc, m.mem, 1, 0);
    EXPECT_EQ(b.instrs, 1u);
    EXPECT_EQ(b.last, StepKind::Ok);
    EXPECT_EQ(tc.pc, 1u);
    EXPECT_EQ(tc.retired, 1u);

    // Class stop: halts before the atomic without executing it.
    b = interp.runBlock(tc, m.mem, 100, ClsAtomic);
    EXPECT_EQ(b.instrs, 1u);
    EXPECT_EQ(b.last, StepKind::Ok);
    EXPECT_EQ(tc.pc, 2u);

    // No mask: runs the atomic but still stops before the syscall.
    b = interp.runBlock(tc, m.mem, 100, 0);
    EXPECT_EQ(b.instrs, 3u);
    EXPECT_EQ(b.last, StepKind::SyscallTrap);
    EXPECT_EQ(tc.pc, 5u);
    EXPECT_EQ(tc.retired, 5u);
    EXPECT_EQ(m.mem.read64(0x1000), 1u);

    // Halt retires inside the block and freezes pc on it.
    Assembler h;
    h.li(r0, 42);
    h.halt();
    GuestProgram hprog = h.finish("halts");
    Machine hm(hprog, {});
    Interpreter hinterp(hprog);
    b = hinterp.runBlock(hm.threads[0], hm.mem, 100, 0);
    EXPECT_EQ(b.instrs, 2u);
    EXPECT_EQ(b.last, StepKind::Halted);
    EXPECT_EQ(hm.threads[0].exitCode, 42u);
    EXPECT_EQ(hm.threads[0].retired, 2u);
    EXPECT_EQ(hm.threads[0].pc, 1u);
}

TEST(Interp, DecodedProgramIsMemoizedPerStamp)
{
    Assembler a;
    a.li(r0, 5);
    a.halt();
    GuestProgram prog = a.finish("memo");
    auto d1 = prog.decoded();
    auto d2 = prog.decoded();
    EXPECT_EQ(d1.get(), d2.get());
    EXPECT_EQ(d1->stamp, prog.codeStamp());
    ASSERT_EQ(d1->code.size(), prog.code.size());
    EXPECT_EQ(d1->code[0].op, Opcode::Li);
    EXPECT_EQ(d1->code[0].cls, 0);
    EXPECT_EQ(opcodeClass(Opcode::Syscall), ClsSyscall);
    EXPECT_EQ(opcodeClass(Opcode::Cas), ClsAtomic | ClsMem);
    EXPECT_EQ(opcodeClass(Opcode::Ld32), ClsMem);

    const std::uint64_t old_stamp = prog.codeStamp();
    prog.invalidateCode();
    EXPECT_NE(prog.codeStamp(), old_stamp);
    auto d3 = prog.decoded();
    EXPECT_NE(d3.get(), d1.get());
    EXPECT_EQ(d3->stamp, prog.codeStamp());
}

// The `record --resume` scenario: code is re-assembled in place while
// an Interpreter that already memoized the old decode is still alive.
// A stale cache would execute the old immediate and this test fails.
TEST(Interp, CodeEditAfterInvalidateIsPickedUp)
{
    Assembler a;
    a.li(r0, 5);
    a.halt();
    GuestProgram prog = a.finish("patched");
    Interpreter interp(prog);

    Machine m1(prog, {});
    auto b = interp.runBlock(m1.threads[0], m1.mem, 10, 0);
    EXPECT_EQ(b.last, StepKind::Halted);
    EXPECT_EQ(m1.threads[0].exitCode, 5u);

    prog.code[0].imm = 9; // the re-assembly
    prog.invalidateCode();

    Machine m2(prog, {});
    b = interp.runBlock(m2.threads[0], m2.mem, 10, 0);
    EXPECT_EQ(b.last, StepKind::Halted);
    EXPECT_EQ(m2.threads[0].exitCode, 9u);

    // And through a fresh engine (the actual resume path).
    prog.code[0].imm = 13;
    prog.invalidateCode();
    Machine m3(prog, {});
    SimOS os;
    UniRunner runner(m3, os, {}, {});
    EXPECT_EQ(runner.run(), StopReason::AllExited);
    EXPECT_EQ(m3.threads[0].exitCode, 13u);
}

TEST(Assembler, ForwardAndBackwardLabels)
{
    Assembler a;
    Label fwd = a.newLabel();
    a.li(r1, 0);
    Label back = a.hereLabel();
    a.addi(r1, r1, 1);
    a.li(r2, 3);
    a.bltu(r1, r2, back);
    a.jmp(fwd);
    a.nop();
    a.bind(fwd);
    a.mov(r15, r1);
    a.mov(r1, r15);
    a.sys(Sys::Exit);
    Machine m = runProgram(a.finish("labels"));
    EXPECT_EQ(m.threads[0].exitCode, 3u);
}

TEST(Assembler, UnboundLabelIsFatal)
{
    Assembler a;
    Label never = a.newLabel();
    a.jmp(never);
    EXPECT_DEATH((void)a.finish("bad"), "never bound");
}

TEST(Assembler, DataSegmentsLoad)
{
    Assembler a;
    a.dataU64(0x1000, 0xfeedface);
    std::vector<std::uint64_t> words{1, 2, 3};
    a.dataU64s(0x2000, words);
    a.lia(r2, 0x2000);
    a.ld64(r1, r2, 16);
    a.sys(Sys::Exit); // exit(words[2])
    Machine m = runProgram(a.finish("data"));
    EXPECT_EQ(m.threads[0].exitCode, 3u);
    EXPECT_EQ(m.mem.read64(0x1000), 0xfeedfaceu);
}

TEST(Asmlib, LockExcludesAndFutexParksWaiters)
{
    // Covered end-to-end by the workload tests; here check the lock
    // leaves the word in the expected states.
    Assembler a;
    a.lia(r9, 0x1000);
    asmlib::lockAcquire(a, r9, r3);
    a.ld64(r14, r9, 0); // held: word == 1
    asmlib::lockRelease(a, r9, r3);
    a.ld64(r15, r9, 0); // released: word == 0
    a.muli(r14, r14, 10);
    a.add(r1, r14, r15);
    a.sys(Sys::Exit);
    Machine m = runProgram(a.finish("lock_states"));
    EXPECT_EQ(m.threads[0].exitCode, 10u);
}

TEST(Isa, ClassificationPredicates)
{
    EXPECT_TRUE(isAtomicOp(Opcode::Cas));
    EXPECT_TRUE(isAtomicOp(Opcode::FetchAdd));
    EXPECT_TRUE(isAtomicOp(Opcode::Xchg));
    EXPECT_FALSE(isAtomicOp(Opcode::Ld64));
    EXPECT_TRUE(isMemOp(Opcode::Ld8));
    EXPECT_TRUE(isMemOp(Opcode::St64));
    EXPECT_TRUE(isMemOp(Opcode::Xchg));
    EXPECT_FALSE(isMemOp(Opcode::Add));
    EXPECT_EQ(opcodeName(Opcode::FetchAdd), "fetchadd");
    EXPECT_EQ(syscallName(Sys::FutexWait), "futex_wait");
}

} // namespace
} // namespace dp
