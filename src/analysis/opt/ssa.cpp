//===- analysis/opt/ssa.cpp - Liveness and SSA renaming -------------------===//

#include "analysis/opt/ssa.h"

#include <cassert>

using namespace enerj;
using namespace enerj::analysis;
using namespace enerj::analysis::opt;

namespace {

struct OptLivenessDomain {
  using Value = BitVec;

  const OptProgram &P;

  Value init() const { return BitVec(NumFlatRegs); }
  Value boundary() const {
    BitVec All(NumFlatRegs);
    All.setAll();
    return All;
  }
  bool join(Value &Into, const Value &From) const {
    return Into.uniteWith(From);
  }
  Value transfer(unsigned Block, const Value &LiveOut) const {
    BitVec Live = LiveOut;
    if (Block == P.exitId())
      return Live;
    const OptBlock &B = P.Blocks[Block];
    std::optional<RegRef> Def;
    std::vector<RegRef> Uses;
    auto Step = [&](const isa::Instruction &I) {
      registerOperands(I, Def, Uses);
      if (Def)
        Live.clear(Def->flat());
      for (const RegRef &Use : Uses)
        Live.set(Use.flat());
    };
    if (B.Term)
      Step(*B.Term);
    for (size_t Index = B.Body.size(); Index-- > 0;)
      Step(B.Body[Index]);
    return Live;
  }
};

} // namespace

OptLiveness enerj::analysis::opt::computeLiveness(const OptProgram &Program) {
  OptLivenessDomain Dom{Program};
  DataflowResult<OptLivenessDomain> R =
      solveDataflow(Program, Direction::Backward, Dom);
  OptLiveness Out;
  Out.LiveIn = std::move(R.In);
  Out.LiveOut = std::move(R.Out);
  return Out;
}

SsaForm enerj::analysis::opt::buildSsa(const OptProgram &Program,
                                       const DomTree &T,
                                       const OptLiveness &Live,
                                       bool Pruned) {
  unsigned N = Program.blockCount();
  SsaForm S;
  S.BlockPhis.resize(N);
  S.EntryDef.resize(N);
  for (auto &Row : S.EntryDef)
    Row.fill(InvalidId);
  S.InstrDef.resize(N);
  S.InstrUses.resize(N);
  S.TermUses.assign(N, {InvalidId, InvalidId});

  // Entry defs: the machine zero-initializes both register files, so
  // every register carries an architected def at the virtual entry.
  for (unsigned Reg = 0; Reg < NumFlatRegs; ++Reg) {
    S.Defs.push_back({SsaForm::DefSite::Entry, 0, 0, Reg});
    S.PhiArgs.emplace_back();
  }

  // Definition blocks per register; block 0 counts for every register
  // (the virtual entry def lives there).
  std::vector<std::vector<unsigned>> DefBlocks(NumFlatRegs);
  for (unsigned Reg = 0; Reg < NumFlatRegs; ++Reg)
    DefBlocks[Reg].push_back(0);
  std::optional<RegRef> Def;
  std::vector<RegRef> Uses;
  for (unsigned Block = 0; Block < Program.Blocks.size(); ++Block)
    for (const isa::Instruction &I : Program.Blocks[Block].Body) {
      registerOperands(I, Def, Uses);
      if (Def)
        DefBlocks[Def->flat()].push_back(Block);
    }

  // Pruned phi placement.
  std::vector<std::vector<unsigned>> Df = dominanceFrontiers(Program, T);
  for (unsigned Reg = 0; Reg < NumFlatRegs; ++Reg) {
    std::vector<bool> LiveIn;
    if (Pruned) {
      LiveIn.assign(N, false);
      for (unsigned Block = 0; Block < N; ++Block)
        LiveIn[Block] = Live.LiveIn[Block].test(Reg);
    }
    for (unsigned Block :
         placePhis(Program, T, Df, DefBlocks[Reg], LiveIn)) {
      unsigned Id = static_cast<unsigned>(S.Defs.size());
      S.Defs.push_back({SsaForm::DefSite::Phi, Block, 0, Reg});
      S.PhiArgs.emplace_back(Program.preds(Block).size(), InvalidId);
      S.BlockPhis[Block].push_back({Reg, Id});
    }
  }

  // Renaming: DFS over the dominator tree with per-register def stacks.
  std::vector<std::vector<unsigned>> Stack(NumFlatRegs);
  for (unsigned Reg = 0; Reg < NumFlatRegs; ++Reg)
    Stack[Reg].push_back(Reg); // The entry def.

  struct Frame {
    unsigned Block;
    size_t NextChild = 0;
    std::vector<unsigned> Pushed; ///< Registers pushed, for unwinding.
  };

  auto PredIndex = [&](unsigned Succ, unsigned Pred) -> unsigned {
    const std::vector<unsigned> &Preds = Program.preds(Succ);
    for (unsigned Index = 0; Index < Preds.size(); ++Index)
      if (Preds[Index] == Pred)
        return Index;
    assert(false && "pred edge missing");
    return InvalidId;
  };

  std::vector<Frame> Dfs;
  auto Enter = [&](unsigned Block) {
    Frame F{Block, 0, {}};
    if (Block != Program.exitId()) {
      const OptBlock &B = Program.Blocks[Block];
      for (auto &[Reg, Id] : S.BlockPhis[Block]) {
        Stack[Reg].push_back(Id);
        F.Pushed.push_back(Reg);
      }
      for (unsigned Reg = 0; Reg < NumFlatRegs; ++Reg)
        S.EntryDef[Block][Reg] = Stack[Reg].back();
      S.InstrDef[Block].assign(B.Body.size(), InvalidId);
      S.InstrUses[Block].assign(B.Body.size(), {InvalidId, InvalidId});
      for (size_t Index = 0; Index < B.Body.size(); ++Index) {
        registerOperands(B.Body[Index], Def, Uses);
        for (size_t Use = 0; Use < Uses.size() && Use < 2; ++Use)
          S.InstrUses[Block][Index][Use] = Stack[Uses[Use].flat()].back();
        if (Def) {
          unsigned Id = static_cast<unsigned>(S.Defs.size());
          S.Defs.push_back({SsaForm::DefSite::Instr, Block,
                            static_cast<unsigned>(Index), Def->flat()});
          S.PhiArgs.emplace_back();
          Stack[Def->flat()].push_back(Id);
          F.Pushed.push_back(Def->flat());
          S.InstrDef[Block][Index] = Id;
        }
      }
      if (B.Term) {
        registerOperands(*B.Term, Def, Uses);
        for (size_t Use = 0; Use < Uses.size() && Use < 2; ++Use)
          S.TermUses[Block][Use] = Stack[Uses[Use].flat()].back();
      }
      // Feed this block's exit values into successors' phis.
      for (unsigned Succ : Program.Blocks[Block].Succs) {
        if (Succ == Program.exitId())
          continue;
        unsigned Slot = PredIndex(Succ, Block);
        for (auto &[Reg, Id] : S.BlockPhis[Succ])
          S.PhiArgs[Id][Slot] = Stack[Reg].back();
      }
    }
    Dfs.push_back(std::move(F));
  };

  Enter(0);
  while (!Dfs.empty()) {
    Frame &F = Dfs.back();
    if (F.NextChild < T.Children[F.Block].size()) {
      Enter(T.Children[F.Block][F.NextChild++]);
      continue;
    }
    for (auto Reg = F.Pushed.rbegin(); Reg != F.Pushed.rend(); ++Reg)
      Stack[*Reg].pop_back();
    Dfs.pop_back();
  }
  return S;
}
