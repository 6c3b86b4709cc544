/**
 * @file
 * A small load/store RISC ISA used by the synthetic CPU substrate.
 *
 * The ISA is deliberately Arm-flavoured (scalar ALU ops, MUL/DIV, SIMD
 * vector ops over 4x64-bit lanes, loads/stores with base+offset
 * addressing, compare-and-branch) so that GA-generated micro-benchmarks
 * and the handcrafted Table-4 suite exercise the same kinds of functional
 * units the paper's proxies concentrate in (Issue, Vector Execution,
 * Load/Store, clock gates).
 */

#ifndef APOLLO_ISA_INSTRUCTION_HH
#define APOLLO_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

namespace apollo {

/** Number of scalar architectural registers (x0..x31). */
constexpr int numScalarRegs = 32;
/** Number of vector architectural registers (v0..v15). */
constexpr int numVectorRegs = 16;
/** 64-bit lanes per vector register. */
constexpr int vectorLanes = 4;

/** Operation kinds. */
enum class Opcode : uint8_t
{
    Nop,
    // Scalar ALU, register-register.
    Add, Sub, And, Orr, Eor, Lsl, Lsr,
    // Scalar ALU, register-immediate.
    AddI, SubI, AndI, OrrI, EorI, LslI, MovI,
    // Long-latency integer.
    Mul, Div,
    // Memory.
    Ldr, Str, Prfm,
    // Vector (SIMD) over 4x64-bit lanes.
    VAdd, VMul, VFma, VAndNot, VLdr, VStr,
    // Control flow: branch backwards/forwards by imm if x[rn] != 0 (Bnez)
    // or unconditionally (B).
    Bnez, B,
    NumOpcodes,
};

/** Functional-unit class an opcode executes in (timing domain). */
enum class ExecClass : uint8_t
{
    Alu,       ///< single-cycle integer
    MulDiv,    ///< long-latency integer
    Vector,    ///< SIMD pipes
    Mem,       ///< loads/stores/prefetch (incl. vector ld/st)
    Branch,    ///< control flow (resolved on an ALU port)
    None,      ///< Nop
};

/**
 * One machine instruction. rd/rn/rm index the scalar or vector register
 * file depending on the opcode; imm is an immediate operand (shift
 * amount, address offset, branch displacement in instructions, or move
 * immediate).
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    uint8_t rd = 0;
    uint8_t rn = 0;
    uint8_t rm = 0;
    int32_t imm = 0;

    /** Execution class of this opcode. */
    ExecClass execClass() const { return execClassOf(op); }

    /** True for Ldr/Str/VLdr/VStr/Prfm. */
    bool isMemory() const { return execClassOf(op) == ExecClass::Mem; }

    /** True for Bnez/B. */
    bool isBranch() const { return execClassOf(op) == ExecClass::Branch; }

    /** True when operands index the vector register file. */
    bool isVector() const;

    /** Static opcode → class mapping. */
    static ExecClass execClassOf(Opcode op);

    /** Mnemonic for an opcode. */
    static const char *mnemonic(Opcode op);

    /** Human-readable disassembly, e.g. "add x3, x1, x2". */
    std::string toString() const;
};

/** Convenience constructors (assembler-style helpers). */
namespace asm_helpers {

Instruction add(int rd, int rn, int rm);
Instruction sub(int rd, int rn, int rm);
Instruction and_(int rd, int rn, int rm);
Instruction orr(int rd, int rn, int rm);
Instruction eor(int rd, int rn, int rm);
Instruction lsl(int rd, int rn, int rm);
Instruction addi(int rd, int rn, int32_t imm);
Instruction subi(int rd, int rn, int32_t imm);
Instruction movi(int rd, int32_t imm);
Instruction mul(int rd, int rn, int rm);
Instruction div(int rd, int rn, int rm);
Instruction ldr(int rd, int rn, int32_t offset);
Instruction str(int rd, int rn, int32_t offset);
Instruction prfm(int rn, int32_t offset);
Instruction vadd(int vd, int vn, int vm);
Instruction vmul(int vd, int vn, int vm);
Instruction vfma(int vd, int vn, int vm);
Instruction vldr(int vd, int rn, int32_t offset);
Instruction vstr(int vd, int rn, int32_t offset);
Instruction bnez(int rn, int32_t disp);
Instruction nop();

} // namespace asm_helpers

} // namespace apollo

#endif // APOLLO_ISA_INSTRUCTION_HH
