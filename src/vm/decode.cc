#include "vm/decode.hh"

#include "vm/program.hh"

namespace dp
{

std::uint8_t
opcodeClass(Opcode op)
{
    if (op == Opcode::Syscall)
        return ClsSyscall;
    if (op == Opcode::Halt || op >= Opcode::NumOpcodes)
        return ClsExit;
    if (isAtomicOp(op))
        return ClsAtomic | ClsMem;
    if (isMemOp(op))
        return ClsMem;
    return 0;
}

std::shared_ptr<const DecodedProgram>
DecodedProgram::build(const GuestProgram &prog)
{
    const void *const *table = interpDispatchTable();
    auto dec = std::make_shared<DecodedProgram>();
    dec->stamp = prog.codeStamp();
    dec->code.reserve(prog.code.size());
    for (const Instr &in : prog.code) {
        DecodedInstr d;
        d.op = in.op;
        d.cls = opcodeClass(in.op);
        d.rd = static_cast<std::uint8_t>(in.rd);
        d.rs1 = static_cast<std::uint8_t>(in.rs1);
        d.rs2 = static_cast<std::uint8_t>(in.rs2);
        d.imm = in.imm;
        // Out-of-enum encodings resolve to the fault handler (the
        // trailing table slot), so the hot loop never range-checks.
        auto idx = static_cast<std::size_t>(in.op);
        if (idx > static_cast<std::size_t>(Opcode::NumOpcodes))
            idx = static_cast<std::size_t>(Opcode::NumOpcodes);
        d.handler = table[idx];
        dec->code.push_back(d);
    }
    return dec;
}

} // namespace dp
