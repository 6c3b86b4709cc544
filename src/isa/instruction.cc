#include "isa/instruction.hh"

#include <cstdio>

namespace apollo {

ExecClass
Instruction::execClassOf(Opcode op)
{
    switch (op) {
      case Opcode::Nop:
        return ExecClass::None;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Orr:
      case Opcode::Eor:
      case Opcode::Lsl:
      case Opcode::Lsr:
      case Opcode::AddI:
      case Opcode::SubI:
      case Opcode::AndI:
      case Opcode::OrrI:
      case Opcode::EorI:
      case Opcode::LslI:
      case Opcode::MovI:
        return ExecClass::Alu;
      case Opcode::Mul:
      case Opcode::Div:
        return ExecClass::MulDiv;
      case Opcode::Ldr:
      case Opcode::Str:
      case Opcode::Prfm:
      case Opcode::VLdr:
      case Opcode::VStr:
        return ExecClass::Mem;
      case Opcode::VAdd:
      case Opcode::VMul:
      case Opcode::VFma:
      case Opcode::VAndNot:
        return ExecClass::Vector;
      case Opcode::Bnez:
      case Opcode::B:
        return ExecClass::Branch;
      default:
        return ExecClass::None;
    }
}

bool
Instruction::isVector() const
{
    switch (op) {
      case Opcode::VAdd:
      case Opcode::VMul:
      case Opcode::VFma:
      case Opcode::VAndNot:
      case Opcode::VLdr:
      case Opcode::VStr:
        return true;
      default:
        return false;
    }
}

const char *
Instruction::mnemonic(Opcode op)
{
    switch (op) {
      case Opcode::Nop: return "nop";
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::And: return "and";
      case Opcode::Orr: return "orr";
      case Opcode::Eor: return "eor";
      case Opcode::Lsl: return "lsl";
      case Opcode::Lsr: return "lsr";
      case Opcode::AddI: return "addi";
      case Opcode::SubI: return "subi";
      case Opcode::AndI: return "andi";
      case Opcode::OrrI: return "orri";
      case Opcode::EorI: return "eori";
      case Opcode::LslI: return "lsli";
      case Opcode::MovI: return "movi";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::Ldr: return "ldr";
      case Opcode::Str: return "str";
      case Opcode::Prfm: return "prfm";
      case Opcode::VAdd: return "vadd";
      case Opcode::VMul: return "vmul";
      case Opcode::VFma: return "vfma";
      case Opcode::VAndNot: return "vandn";
      case Opcode::VLdr: return "vldr";
      case Opcode::VStr: return "vstr";
      case Opcode::Bnez: return "bnez";
      case Opcode::B: return "b";
      default: return "?";
    }
}

std::string
Instruction::toString() const
{
    char buf[96];
    const char *m = mnemonic(op);
    const char reg = isVector() ? 'v' : 'x';
    switch (execClassOf(op)) {
      case ExecClass::None:
        std::snprintf(buf, sizeof(buf), "%s", m);
        break;
      case ExecClass::Branch:
        if (op == Opcode::B)
            std::snprintf(buf, sizeof(buf), "b %+d", imm);
        else
            std::snprintf(buf, sizeof(buf), "bnez x%d, %+d", rn, imm);
        break;
      case ExecClass::Mem:
        if (op == Opcode::Prfm)
            std::snprintf(buf, sizeof(buf), "prfm [x%d, #%d]", rn, imm);
        else
            std::snprintf(buf, sizeof(buf), "%s %c%d, [x%d, #%d]", m, reg,
                          rd, rn, imm);
        break;
      default:
        switch (op) {
          case Opcode::MovI:
            std::snprintf(buf, sizeof(buf), "movi x%d, #%d", rd, imm);
            break;
          case Opcode::AddI:
          case Opcode::SubI:
          case Opcode::AndI:
          case Opcode::OrrI:
          case Opcode::EorI:
          case Opcode::LslI:
            std::snprintf(buf, sizeof(buf), "%s x%d, x%d, #%d", m, rd, rn,
                          imm);
            break;
          default:
            std::snprintf(buf, sizeof(buf), "%s %c%d, %c%d, %c%d", m, reg,
                          rd, reg, rn, reg, rm);
            break;
        }
        break;
    }
    return buf;
}

namespace asm_helpers {

namespace {

Instruction
make(Opcode op, int rd, int rn, int rm, int32_t imm)
{
    Instruction inst;
    inst.op = op;
    inst.rd = static_cast<uint8_t>(rd);
    inst.rn = static_cast<uint8_t>(rn);
    inst.rm = static_cast<uint8_t>(rm);
    inst.imm = imm;
    return inst;
}

} // namespace

Instruction add(int rd, int rn, int rm)
{ return make(Opcode::Add, rd, rn, rm, 0); }
Instruction sub(int rd, int rn, int rm)
{ return make(Opcode::Sub, rd, rn, rm, 0); }
Instruction and_(int rd, int rn, int rm)
{ return make(Opcode::And, rd, rn, rm, 0); }
Instruction orr(int rd, int rn, int rm)
{ return make(Opcode::Orr, rd, rn, rm, 0); }
Instruction eor(int rd, int rn, int rm)
{ return make(Opcode::Eor, rd, rn, rm, 0); }
Instruction lsl(int rd, int rn, int rm)
{ return make(Opcode::Lsl, rd, rn, rm, 0); }
Instruction addi(int rd, int rn, int32_t imm)
{ return make(Opcode::AddI, rd, rn, 0, imm); }
Instruction subi(int rd, int rn, int32_t imm)
{ return make(Opcode::SubI, rd, rn, 0, imm); }
Instruction movi(int rd, int32_t imm)
{ return make(Opcode::MovI, rd, 0, 0, imm); }
Instruction mul(int rd, int rn, int rm)
{ return make(Opcode::Mul, rd, rn, rm, 0); }
Instruction div(int rd, int rn, int rm)
{ return make(Opcode::Div, rd, rn, rm, 0); }
Instruction ldr(int rd, int rn, int32_t offset)
{ return make(Opcode::Ldr, rd, rn, 0, offset); }
Instruction str(int rd, int rn, int32_t offset)
{ return make(Opcode::Str, rd, rn, 0, offset); }
Instruction prfm(int rn, int32_t offset)
{ return make(Opcode::Prfm, 0, rn, 0, offset); }
Instruction vadd(int vd, int vn, int vm)
{ return make(Opcode::VAdd, vd, vn, vm, 0); }
Instruction vmul(int vd, int vn, int vm)
{ return make(Opcode::VMul, vd, vn, vm, 0); }
Instruction vfma(int vd, int vn, int vm)
{ return make(Opcode::VFma, vd, vn, vm, 0); }
Instruction vldr(int vd, int rn, int32_t offset)
{ return make(Opcode::VLdr, vd, rn, 0, offset); }
Instruction vstr(int vd, int rn, int32_t offset)
{ return make(Opcode::VStr, vd, rn, 0, offset); }
Instruction bnez(int rn, int32_t disp)
{ return make(Opcode::Bnez, 0, rn, 0, disp); }
Instruction nop()
{ return make(Opcode::Nop, 0, 0, 0, 0); }

} // namespace asm_helpers

} // namespace apollo
