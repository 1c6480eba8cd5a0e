// Superblock translator: classifies decoded instructions into tier
// micro-ops with static cycle prefix sums and pre-masked branch targets.
// Classification is conservative — anything whose data effects cannot be
// proven equivalent to a plain-RAM access at translate time either tests
// the dispatch map at run time (and side-exits to the interpreter) or
// ends the block before the instruction.
#include "avr/tier.hpp"

#include <algorithm>

#include "avr/decode.hpp"
#include "avr/instr.hpp"
#include "avr/io.hpp"
#include "avr/mcu.hpp"

namespace mavr::avr {

namespace {

/// Block size cap. Generated firmware bodies rarely exceed ~30 straight
/// instructions between control transfers; the cap bounds worst_cycles so
/// the dispatcher's deadline guard stays tight (a huge bound would force
/// needless single-stepping near timer deadlines).
constexpr std::uint32_t kMaxBlockOps = 64;

/// Packed (first, second) kind key for the pair-fusion table.
constexpr std::uint16_t pk(TierOpKind x, TierOpKind y) {
  return static_cast<std::uint16_t>((static_cast<std::uint16_t>(x) << 8) |
                                    static_cast<std::uint16_t>(y));
}

/// The fused kind for an adjacent pair (MAVR_FUSED_PAIRS), or kNop as the
/// "no fusion" sentinel (no pattern ever *produces* kNop).
TierOpKind pair_kind(TierOpKind x, TierOpKind y) {
  switch (pk(x, y)) {
#define MAVR_TIER_PAIR_CASE(fused, first, second)           \
  case pk(TierOpKind::k##first, TierOpKind::k##second): \
    return TierOpKind::k##fused;
    MAVR_FUSED_PAIRS(MAVR_TIER_PAIR_CASE)
#undef MAVR_TIER_PAIR_CASE
    default: return TierOpKind::kNop;
  }
}

/// Peephole pass over a freshly translated block. Greedy left-to-right:
/// each op fuses with at most one successor. The fused op keeps its slot
/// (and the first half's pc_abs/cyc_before/ins_before); the second half
/// stays in place as the fused op's operand record, skipped by dispatch.
void fuse_pairs(TierOp* ops, std::uint32_t n, TierStats& stats) {
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    const TierOpKind f = pair_kind(ops[i].kind, ops[i + 1].kind);
    if (f == TierOpKind::kNop) continue;
    ops[i].kind = f;
    ++stats.fused_pairs;
    ++i;
  }
}

}  // namespace

const TierBlock& SuperblockCache::translate(const ProgramMemory& flash,
                                            const std::uint8_t* dispatch,
                                            std::uint32_t head_pc,
                                            std::uint32_t pc_mask,
                                            std::uint32_t data_size,
                                            std::uint8_t push_bytes) {
  TierBlock blk;
  blk.head_pc = head_pc;
  blk.first_op = static_cast<std::uint32_t>(arena.size());
  const auto& cycles = isa::op_cycles(push_bytes);

  std::uint32_t pc = head_pc;
  std::uint32_t cyc_before = 0;
  std::uint32_t worst_term = 0;
  std::uint32_t worst_cond = 0;  ///< worst prefix ending in a taken cond exit
  bool open = true;

  // Appends an op with the running prefix sums. Every emitted op retires
  // exactly one instruction; the fusion pass keeps the prefix counts.
  const auto emit = [&](TierOp op) {
    op.pc_abs = pc;
    op.cyc_before = cyc_before;
    op.ins_before = static_cast<std::uint16_t>(blk.num_ops);
    arena.push_back(op);
    ++blk.num_ops;
  };
  // Advances the prefix sums past an op that continues the block at `to`.
  const auto advance = [&](std::uint32_t cost, std::uint32_t to) {
    cyc_before += cost;
    pc = to;
  };
  // Terminator: the block ends with this op, taken-path cost `cyc`.
  const auto term = [&](TierOpKind kind, const Instr& in, std::uint8_t cyc,
                        std::uint32_t target2, std::uint16_t k = 0) {
    emit(TierOp{.kind = kind, .a = in.rd, .b = in.bit, .cyc = cyc, .k = k,
                .target2 = target2});
    worst_term = cyc;
    open = false;
  };
  // Straight-line op. `target` holds the successor pc, so a
  // dispatched-I/O op can retire mid-block and exit at its own boundary.
  const auto straight = [&](TierOpKind kind, const Instr& in, std::uint8_t b,
                            std::uint16_t k) {
    const std::uint32_t next = (pc + in.size_words) & pc_mask;
    if (kind == TierOpKind::kBset && b == kI) {
      // SEI re-enables interrupt delivery: the interpreter polls the
      // lines right after this instruction, so the block must end here
      // for the post-block poll to land at the same boundary.
      term(TierOpKind::kTermBsetI, in, cycles[static_cast<std::size_t>(in.op)],
           next);
      return;
    }
    emit(TierOp{.kind = kind, .a = in.rd, .b = b,
                .cyc = cycles[static_cast<std::size_t>(in.op)], .k = k,
                .target = next});
    advance(cycles[static_cast<std::size_t>(in.op)], next);
  };
  // Ends the block *before* the instruction at `pc`: a pseudo-exit that
  // retires nothing and lets the dispatcher re-enter (usually via a
  // single-step fallback for an untranslatable head).
  const auto end_before = [&] {
    emit(TierOp{.kind = TierOpKind::kTermFall, .target = pc});
    worst_term = 0;
    open = false;
  };
  // A followed static call also lands on a translate-time return stack so
  // a later RET can be followed as a predicted continuation (kCondRet).
  std::uint32_t ret_stack[kMaxBlockOps];
  std::uint32_t ret_depth = 0;

  while (open) {
    if (blk.num_ops + 1 >= kMaxBlockOps) {
      end_before();
      break;
    }
    const Instr in =
        decode(flash.word(pc), flash.word((pc + 1) & pc_mask));
    const std::uint8_t cost = cycles[static_cast<std::size_t>(in.op)];
    const std::uint32_t next = (pc + in.size_words) & pc_mask;
    // Conditional mid-block exit: taken leaves for `taken` (one cycle
    // more), not-taken continues inside the block.
    const auto cond = [&](TierOpKind kind, std::uint8_t b, std::uint16_t k,
                          std::uint32_t taken) {
      emit(TierOp{.kind = kind, .a = in.rd, .b = b,
                  .cyc = static_cast<std::uint8_t>(cost + 1), .k = k,
                  .target = taken, .target2 = next});
      worst_cond = std::max(worst_cond, cyc_before + cost + 1);
      advance(cost, next);
    };
    // Skip target resolved at translate time: flash is immutable for the
    // life of this translation (reprogramming invalidates the block).
    const auto skip = [&] { return isa::skip_target(flash, next, pc_mask); };
    const auto io = static_cast<std::uint16_t>(kIoBase + in.k);
    // Static-address access: resolved against the dispatch map (sync()
    // invalidates on any later handler registration). Unhandled I/O-region
    // addresses are plain RAM and fusable.
    const auto static_access = [&](std::uint16_t addr, bool store) {
      const std::uint8_t handled =
          store ? IoBus::kHandlesWrite : IoBus::kHandlesRead;
      if (addr == kAddrSreg) {
        // A read takes the live SREG; a wholesale write ends the block.
        if (store) {
          end_before();
        } else {
          straight(TierOpKind::kLdsSreg, in, in.rr, addr);
        }
      } else if (addr < kExtIoEnd && (dispatch[addr] & handled)) {
        straight(store ? TierOpKind::kStsLow : TierOpKind::kLdsLow, in, in.rr,
                 addr);
      } else if (addr < data_size) {
        straight(store ? TierOpKind::kStsRam : TierOpKind::kLdsRam, in, in.rr,
                 addr);
      } else {
        end_before();  // wraps through the data-space modulo
      }
    };

    switch (in.op) {
      // --- untranslatable heads: leave them to the interpreter ---------
      case Op::Invalid:  // faults with FaultInfo bookkeeping
      case Op::Break:    // stops the core
        end_before();
        break;

#define MAVR_TIER_STRAIGHT(name, cyc, b) \
  case Op::name:                         \
    straight(TierOpKind::k##name, in, in.b, in.k); \
    break;
      MAVR_REG_OPS(MAVR_TIER_STRAIGHT)
#undef MAVR_TIER_STRAIGHT
#define MAVR_TIER_STRAIGHT(name, ...) \
  case Op::name:                      \
    straight(TierOpKind::k##name, in, in.rr, in.k); \
    break;
      MAVR_PTR_OPS(MAVR_TIER_STRAIGHT)
      MAVR_FLASH_OPS(MAVR_TIER_STRAIGHT)
#undef MAVR_TIER_STRAIGHT
      case Op::Sleep:
      case Op::Wdr:
      case Op::Spm:
        straight(TierOpKind::kNop, in, in.rr, in.k);
        break;

      // --- static-address data transfer ---------------------------------
      case Op::Lds: static_access(in.k, false); break;
      case Op::Sts: static_access(in.k, true); break;
      case Op::In: static_access(io, false); break;
      case Op::Out:
        if (io == kAddrSreg) {
          // Can set the I flag — same block-boundary rule as SEI.
          term(TierOpKind::kTermOutSreg, in, cost, next, io);
        } else {
          static_access(io, true);
        }
        break;
      case Op::Sbi: straight(TierOpKind::kSbi, in, in.bit, io); break;
      case Op::Cbi: straight(TierOpKind::kCbi, in, in.bit, io); break;

      // --- control flow -------------------------------------------------
      // Followed unconditional jump: retires as a do-nothing op and the
      // block continues at the target — straight-line regions span jumps.
      case Op::Rjmp:
      case Op::Jmp: {
        const std::uint32_t to = isa::static_target(in, pc) & pc_mask;
        emit(TierOp{.kind = TierOpKind::kNop, .cyc = cost, .target = to});
        advance(cost, to);
        break;
      }
      // Followed static call: pushes the return address and continues
      // into the callee, inlining its body up to the size cap.
      case Op::Rcall:
      case Op::Call: {
        const std::uint32_t to = isa::static_target(in, pc) & pc_mask;
        emit(TierOp{.kind = TierOpKind::kCallPush, .cyc = cost,
                    .target = to, .target2 = next});
        ret_stack[ret_depth++] = next;
        advance(cost, to);
        break;
      }
      case Op::Ijmp: term(TierOpKind::kTermIjmp, in, cost, next); break;
      case Op::Eijmp: term(TierOpKind::kTermEijmp, in, cost, next); break;
      case Op::Icall: term(TierOpKind::kTermIcall, in, cost, next); break;
      case Op::Eicall: term(TierOpKind::kTermEicall, in, cost, next); break;
      case Op::Ret:
        if (ret_depth > 0) {
          // The matching call was followed in this very block, so the
          // popped address is known unless the callee unbalanced the
          // stack; the executor verifies and exits on a mismatch. Both
          // paths cost the full RET latency, folded into the prefix sums.
          const std::uint32_t ret = ret_stack[--ret_depth];
          emit(TierOp{.kind = TierOpKind::kCondRet, .cyc = cost,
                      .target = ret, .target2 = ret});
          worst_cond = std::max(worst_cond, cyc_before + cost);
          advance(cost, ret);
        } else {
          term(TierOpKind::kTermRet, in, cost, 0);
        }
        break;
      case Op::Reti: term(TierOpKind::kTermReti, in, cost, 0); break;
      case Op::Brbs:
        cond(TierOpKind::kCondBrbs, in.bit, in.k,
             isa::rel_target(in, pc) & pc_mask);
        break;
      case Op::Brbc:
        cond(TierOpKind::kCondBrbc, in.bit, in.k,
             isa::rel_target(in, pc) & pc_mask);
        break;
      case Op::Cpse: cond(TierOpKind::kCondCpse, in.rr, in.k, skip()); break;
      case Op::Sbrc: cond(TierOpKind::kCondSbrc, in.bit, in.k, skip()); break;
      case Op::Sbrs: cond(TierOpKind::kCondSbrs, in.bit, in.k, skip()); break;
      case Op::Sbic: cond(TierOpKind::kCondSbic, in.bit, io, skip()); break;
      case Op::Sbis: cond(TierOpKind::kCondSbis, in.bit, io, skip()); break;
    }
  }

  fuse_pairs(arena.data() + blk.first_op, blk.num_ops, stats);

  blk.worst_cycles = std::max(cyc_before + worst_term, worst_cond);
  blk.interp_only = blk.num_ops == 1 &&
                    arena[blk.first_op].kind == TierOpKind::kTermFall &&
                    arena[blk.first_op].target == head_pc;
  ++stats.blocks_translated;
  map[head_pc] = (epoch << 32) | static_cast<std::uint32_t>(blocks.size());
  blocks.push_back(blk);
  return blocks.back();
}

}  // namespace mavr::avr
