// Superblock translator and executor. The translator classifies decoded
// instructions into tier micro-ops with static cycle prefix sums and
// pre-masked branch targets. Classification is conservative — anything
// whose data effects cannot be proven equivalent to a plain-RAM access at
// translate time either tests the dispatch map at run time (and
// side-exits to the interpreter) or ends the block before the
// instruction. The executor, Cpu::run_tier, lives here rather than beside
// the interpreter in cpu.cpp: with both of its instantiations in that
// translation unit GCC stopped inlining the interpreter's memory accesses
// and the executor's dispatch prologue.
#include "avr/tier.hpp"

#include <algorithm>

#include "avr/cpu.hpp"
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
  // SP range of the open segment (TierBlock): relative SP now, lowest and
  // highest seen, and the call/ret op that opened it (kHead: the block).
  constexpr std::uint32_t kHead = ~std::uint32_t{0};
  int seg_sp = 0, seg_down = 0, seg_up = 0;
  std::uint32_t seg_owner = kHead;
  const auto close_segment = [&] {
    const auto down = static_cast<std::uint8_t>(seg_down);
    const auto up = static_cast<std::uint8_t>(seg_up);
    if (seg_owner == kHead) {
      blk.sp_down = down;
      blk.sp_up = up;
    } else {
      arena[seg_owner].a = down;
      arena[seg_owner].b = up;
    }
  };
  // The op just emitted moves SP by a full return address; the segment
  // after it is measured from the SP it leaves.
  const auto open_segment = [&] {
    close_segment();
    seg_owner = static_cast<std::uint32_t>(arena.size() - 1);
    seg_sp = seg_down = seg_up = 0;
  };

  while (open) {
    // A breakpoint is always a block head, and an untranslatable one: the
    // traced interpreter fires it (a breakpoint head becomes interp_only).
    if (blk.num_ops + 1 >= kMaxBlockOps || key.breakpoints.contains(pc)) {
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
      } else if (store && key.sp_stores_end &&
                 (addr == kAddrSpl || addr == kAddrSph)) {
        end_before();  // the interpreter reports the SP move
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
        open_segment();
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
          open_segment();
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
    if (in.op == Op::Push || in.op == Op::Pop) {
      seg_sp += in.op == Op::Pop ? 1 : -1;
      seg_down = std::max(seg_down, -seg_sp);
      seg_up = std::max(seg_up, seg_sp);
    }
  }
  close_segment();

  fuse_pairs(arena.data() + blk.first_op, blk.num_ops, stats);

  blk.worst_cycles = std::max(cyc_before + worst_term, worst_cond);
  blk.interp_only = blk.num_ops == 1 &&
                    arena[blk.first_op].kind == TierOpKind::kTermFall &&
                    arena[blk.first_op].target == head_pc;
  ++stats.blocks_translated;
  map[head_pc] = (epoch << 32) | static_cast<std::uint32_t>(blocks.size());
  map.touch(head_pc);
  blocks.push_back(blk);
  return blocks.back();
}

using isa::fb;

#if defined(__GNUC__) || defined(__clang__)

/// Advance to the next micro-op of the current block (computed goto —
/// each handler ends with its own indirect jump, so the branch predictor
/// sees one distinct jump site per opcode instead of a shared dispatch).
#define MAVR_TIER_NEXT() \
  do {                   \
    ++op;                \
    goto* kJump[static_cast<std::size_t>(op->kind)]; \
  } while (0)

/// Dispatched-I/O access inside a block: run it through the full bus path
/// and — when the handler provably could not affect anything the rest of
/// the block observes (interrupt hint and tick deadline both untouched) —
/// keep executing the block. Otherwise fall through to the caller's
/// block-exit code, which retires this op through the interpreter-exact
/// boundary sequence. A handler cannot reflash: run() rejects that.
#define MAVR_TIER_IO_CALL(access)                                           \
  dispatch_at();                                                            \
  const bool hint0 = io_.irq_hint();                                        \
  const std::uint64_t dl0 = io_.next_deadline();                            \
  access;                                                                   \
  if (io_.irq_hint() == hint0 && io_.next_deadline() == dl0) [[likely]] {   \
    MAVR_TIER_NEXT();                                                       \
  }

/// Same, for a dispatched skip-test (SBIC/SBIS): the taken (skip) path
/// always exits at this boundary, the not-taken path continues in the
/// block only for a benign handler.
#define MAVR_TIER_IO_CALL_COND(access, taken_expr)                 \
  dispatch_at();                                                   \
  const bool hint0 = io_.irq_hint();                               \
  const std::uint64_t dl0 = io_.next_deadline();                   \
  access;                                                          \
  const bool benign =                                              \
      io_.irq_hint() == hint0 && io_.next_deadline() == dl0;       \
  if (taken_expr) {                                                \
    next_pc = op->target;                                          \
    term_cyc = op->cyc;                                            \
  } else {                                                         \
    if (benign) [[likely]] MAVR_TIER_NEXT();                       \
    next_pc = op->target2;                                         \
    term_cyc = 1;                                                  \
  }

// GCC's cross-jumping would merge the identical dispatch tails of the
// table-generated handlers into a few shared indirect jumps, taking away
// the per-opcode jump sites MAVR_TIER_NEXT exists for (with it on, GCC
// leaves 6-8 indirect jumps in each instantiation instead of 98). The
// optimize attribute that turns it off sits on the declaration in
// cpu.hpp: on this out-of-class template definition GCC ignores it.
template <bool kEvents>
void Cpu::run_tier(std::uint64_t deadline) {
  if (state_ != CpuState::Running) return;

  // Loop-invariant locals: byte stores through `ram` may alias any member
  // (char-type aliasing), so members read inside handlers would be
  // reloaded after every store. Locals are immune.
  std::uint8_t* const ram = ram_;
  // `restrict` holds for the same reason as the op arena below: handler
  // registration (the only dispatch-map writer) happens during board
  // construction, never from inside a running simulation.
  const std::uint8_t* const __restrict disp = io_.dispatch_map();
  const std::uint32_t mask = pc_mask_;
  const std::uint32_t data_size = data_size_;
  const std::uint32_t ram_span = data_size_ - kExtIoEnd;
  const unsigned push_n = push_bytes_;
  const isa::RamPort plain{ram};

  // Cache geometry, also hoisted: the map pointer and epoch are stable for
  // the whole run (sync() sizes the map once; translate() never resizes
  // it, and flash cannot change inside run()), the block/op arrays are
  // re-hoisted after a translate().
  tier_.sync(flash_, io_.handler_generation(), trace_key_);
  const std::uint64_t* const tmap = tier_.map.data();
  const std::uint64_t tepoch = tier_.epoch;
  const TierBlock* tblocks = tier_.blocks.data();
  const TierOp* tarena = tier_.arena.data();

  std::uint32_t pc = pc_;
  std::uint64_t cycles = cycles_;
  std::uint64_t retired = retired_;

  std::uint64_t stat_blocks = 0, stat_insns = 0, stat_sides = 0,
                stat_io = 0, stat_self = 0, stat_steps = 0;
  const auto flush_stats = [&] {
    tier_.stats.blocks_executed += stat_blocks;
    tier_.stats.block_instructions += stat_insns;
    tier_.stats.side_exits += stat_sides;
    tier_.stats.io_dispatches += stat_io;
    tier_.stats.self_loops += stat_self;
    tier_.stats.interp_steps += stat_steps;
  };
  // One cycle-exact interpreter step (its own tick check and IRQ poll
  // included) with the members synced around it — traced under kEvents,
  // so every fallback delivers every hook and fires breakpoints.
  const auto interp_one = [&] {
    pc_ = pc;
    cycles_ = cycles;
    retired_ = retired;
    step_impl<kEvents>(deadline, /*single=*/true);
    pc = pc_;
    cycles = cycles_;
    retired = retired_;
    ++stat_steps;
  };

  // kEvents: the hook classes are fixed for the run; the SP window is
  // re-read wherever a hook may have moved it.
  [[maybe_unused]] bool ev_call = false, ev_ret = false, ev_sp = false;
  if constexpr (kEvents) {
    const unsigned events = tracer_->interest().events;
    ev_call = (events & kTraceCall) != 0;
    ev_ret = (events & kTraceRet) != 0;
    ev_sp = (events & kTraceSpChange) != 0;
  }
  const auto sp_now = [&] {
    return static_cast<std::uint16_t>(ram[kAddrSpl] | ram[kAddrSph] << 8);
  };
  // Every SP in [sp - down, sp + up] lies inside the tracer's window, so
  // a segment with that range owes it no on_sp_change.
  [[maybe_unused]] const auto sp_fits = [&](unsigned down, unsigned up) {
    const TraceInterest& w = tracer_->interest();
    const int sp = sp_now();
    return sp - static_cast<int>(down) >= w.sp_lo &&
           sp + static_cast<int>(up) <= w.sp_hi;
  };

  try {
    while (state_ == CpuState::Running && cycles < deadline &&
           !(kEvents && stop_)) {
      // A pending interrupt must be delivered at the very next instruction
      // boundary — blocks only poll at their end, so step the interpreter
      // (which polls after every instruction) until the gate drops.
      if ((ram[kAddrSreg] & fb(kI)) != 0 && io_.irq_hint() &&
          !irq_lines_.empty()) {
        interp_one();
        continue;
      }
      const std::uint64_t slot = tmap[pc];
      const TierBlock* bp;
      if ((slot >> 32) != tepoch) [[unlikely]] {
        bp = &tier_.translate(flash_, disp, pc, mask, data_size, push_bytes_);
        tblocks = tier_.blocks.data();
        tarena = tier_.arena.data();
      } else {
        bp = tblocks + static_cast<std::uint32_t>(slot);
      }
      if (bp->interp_only) [[unlikely]] {
        interp_one();
        continue;
      }
      if constexpr (kEvents) {
        // A block whose SP could leave the window runs on the traced
        // interpreter, which reports every move.
        if (ev_sp && !sp_fits(bp->sp_down, bp->sp_up)) {
          interp_one();
          continue;
        }
      }
      // Hot block fields in registers: byte stores through `ram` may alias
      // the block array, so member reads after a store would reload.
      const std::uint32_t blk_head = bp->head_pc;
      const std::uint32_t blk_worst = bp->worst_cycles;
      // The interpreter checks the run deadline and the I/O tick deadline
      // after every instruction; a block may only run whole if neither can
      // trigger inside it. worst_cycles bounds every prefix, so past this
      // guard the block is indistinguishable from single-stepping.
      {
        const std::uint64_t io_deadline = io_.next_deadline();
        const std::uint64_t stop =
            io_deadline < deadline ? io_deadline : deadline;
        if (cycles + blk_worst >= stop) [[unlikely]] {
          // Batch through the interpreter until just past the blocking
          // deadline — single-stepping here would re-fail this guard at
          // every boundary in the window, and the interpreter runs the
          // tick/poll sequence itself, cycle-exactly.
          std::uint64_t target = stop < deadline ? stop + 1 : deadline;
          if (target <= cycles) target = cycles + 1;
          pc_ = pc;
          cycles_ = cycles;
          retired_ = retired;
          const std::uint64_t retired0 = retired;
          step_impl<kEvents>(target, /*single=*/false);
          pc = pc_;
          cycles = cycles_;
          retired = retired_;
          stat_steps += retired - retired0;
          continue;
        }
      }

      // `restrict`: block stores go through `ram` (a char* that formally
      // aliases everything), but the op arena is never written while a
      // block runs — translate() happens only between blocks — so
      // the compiler may cache op fields across those stores.
      const TierOp* const __restrict base = tarena + bp->first_op;
      const TierOp* __restrict op = base;
      // SREG cached in a register for the whole block: every op that could
      // observe it through memory is either special-cased (IN/LDS 0x5F) or
      // ends the block (OUT/STS 0x5F), and it is written back at every
      // exit before any interpreter code can run.
      std::uint8_t sreg = ram[kAddrSreg];
      std::uint32_t next_pc = 0;
      std::uint32_t term_cyc = 0;
      // Prologue for an in-block access that must go through the full bus
      // path: publish the clock handlers would read under the interpreter
      // (set after the previous instruction) and sync the members so a
      // throwing handler reports instruction-exact state.
      const auto dispatch_at = [&] {
        ++stat_io;
        ram[kAddrSreg] = sreg;
        const std::uint64_t at = cycles + op->cyc_before;
        io_.set_now(at);
        pc_ = op->pc_abs;
        cycles_ = at;
        retired_ = retired + op->ins_before;
      };
      // kEvents: the hooks of the call/ret op at `op`, in the traced
      // interpreter's order and with its member state — the edge, then
      // on_sp_change when the old SP `sp0` or the new one lies outside the
      // window published as the op began. Returns whether the segment
      // after the op (its a/b range) fits the window as the hooks left it.
      [[maybe_unused]] const auto op_events = [&](std::uint16_t sp0,
                                                  bool edge_wanted,
                                                  auto&& edge) {
        ram[kAddrSreg] = sreg;
        pc_ = op->pc_abs;
        cycles_ = cycles + op->cyc_before;
        retired_ = retired + op->ins_before;
        const std::uint16_t sp1 = sp_now();
        const TraceInterest& w = tracer_->interest();
        const bool moved = ev_sp && (w.sp_outside(sp0) || w.sp_outside(sp1));
        if (edge_wanted) edge();
        if (moved) tracer_->on_sp_change(*this, sp0, sp1);
        return !ev_sp || sp_fits(op->a, op->b);
      };

      static const void* const kJump[] = {
#define MAVR_TIER_LABEL(name, ...) &&L_##name,
          MAVR_TIER_KINDS(MAVR_TIER_LABEL)
#undef MAVR_TIER_LABEL
      };
      static_assert(sizeof(kJump) / sizeof(kJump[0]) == kTierOpKinds,
                    "dispatch table must cover every TierOpKind");
    exec_entry:
      goto* kJump[static_cast<std::size_t>(op->kind)];

    // --- register ops and plain-RAM moves: the shared semantics ---------
#define MAVR_TIER_REG(name, ...)                     \
    L_##name:                                        \
      isa::name(ram, sreg, op->a, op->b, op->k);     \
      MAVR_TIER_NEXT();
      MAVR_REG_OPS(MAVR_TIER_REG)
      MAVR_TIER_REG(LdsRam)
      MAVR_TIER_REG(StsRam)
#undef MAVR_TIER_REG

    // --- fused pairs: the two halves' semantics back to back, the second
    // half's operands read from the next slot (which dispatch then skips).
#define MAVR_TIER_FUSED(fused, first, second)         \
    L_##fused:                                        \
      isa::first(ram, sreg, op->a, op->b, op->k);     \
      ++op;                                           \
      isa::second(ram, sreg, op->a, op->b, op->k);    \
      MAVR_TIER_NEXT();
      MAVR_FUSED_PAIRS(MAVR_TIER_FUSED)
#undef MAVR_TIER_FUSED

    // --- pointer-addressed transfer, PUSH/POP ----------------------------
    // Address computed first, then guarded against the plain-RAM window
    // [kExtIoEnd, data_size): anything below (register file, I/O, SP/SREG
    // aliasing) or wrapping side-exits before architectural state moves.
#define MAVR_TIER_PTR(name, cyc, ptr, mode, store, port)                  \
    L_##name: {                                                           \
      const std::uint32_t a =                                             \
          isa::ptr_addr<ptr, isa::PtrMode::mode>(ram, op->k);             \
      if (a - kExtIoEnd >= ram_span) goto side_exit;                      \
      isa::ptr_access<ptr, isa::PtrMode::mode, store>(                    \
          plain, ram, op->a, static_cast<std::uint16_t>(a));              \
    }                                                                     \
      MAVR_TIER_NEXT();
      MAVR_PTR_OPS(MAVR_TIER_PTR)
#undef MAVR_TIER_PTR
#define MAVR_TIER_FLASH(name, cyc, ext, r0, inc)                \
    L_##name:                                                   \
      isa::flash_load<ext, r0, inc>(ram, flash_, op->a);        \
      MAVR_TIER_NEXT();
      MAVR_FLASH_OPS(MAVR_TIER_FLASH)
#undef MAVR_TIER_FLASH

    // --- static-address access in the I/O region ------------------------
    // Device-dispatched access: perform it through the full bus path and
    // retire this op as the block's last — the subsequent block_done runs
    // the interpreter's exact post-instruction sequence (set_now, tick on
    // crossed deadline, IRQ poll), so a handler that reprograms the timer
    // or raises the hint is observed at the same boundary it would be
    // under single-stepping. `dispatch_at` publishes the clock the
    // interpreter's handlers would read (set after the *previous*
    // instruction) and syncs members for exception context. `effect`
    // names its memory port `port`: the bus here, plain RAM otherwise.
#define MAVR_TIER_IO(handles, effect)                                     \
      if (disp[op->k] & (handles)) [[unlikely]] {                         \
        MAVR_TIER_IO_CALL({                                               \
          DataMemory& port = data_;                                       \
          effect;                                                         \
        });                                                               \
        goto exit_taken;                                                  \
      }                                                                   \
      {                                                                   \
        const isa::RamPort& port = plain;                                 \
        effect;                                                           \
      }                                                                   \
      MAVR_TIER_NEXT()
    L_LdsLow:
      MAVR_TIER_IO(IoBus::kHandlesRead,
                   isa::load_reg(port, ram, op->a, op->k));
    L_StsLow:
      MAVR_TIER_IO(IoBus::kHandlesWrite,
                   isa::store_reg(port, ram, op->a, op->k));
    L_Sbi:
      // The interpreter performs a dispatched load *and* store; route
      // both through the bus if a device handles either side.
      MAVR_TIER_IO(IoBus::kHandlesRead | IoBus::kHandlesWrite,
                   isa::write_io_bit(port, op->k, op->b, true));
    L_Cbi:
      MAVR_TIER_IO(IoBus::kHandlesRead | IoBus::kHandlesWrite,
                   isa::write_io_bit(port, op->k, op->b, false));
#undef MAVR_TIER_IO
    L_LdsSreg:
      if (disp[op->k] & IoBus::kHandlesRead) goto side_exit;
      ram[op->a] = sreg;  // the live value; ram[0x5F] may be stale in-block
      MAVR_TIER_NEXT();

    // --- followed static call: push and keep executing ------------------
    L_CallPush: {
      [[maybe_unused]] const std::uint16_t sp0 = kEvents ? sp_now() : 0;
      if (!isa::push_ret(ram, data_size, push_n, op->target2)) goto side_exit;
      if constexpr (kEvents) {
        if (!op_events(sp0, ev_call, [&] {
              tracer_->on_call(*this, op->pc_abs, op->target, op->target2);
            })) {
          next_pc = op->target;
          goto exit_to;
        }
      }
      MAVR_TIER_NEXT();
    }

    // --- conditional mid-block exits ------------------------------------
    L_CondBrbs:
      if (isa::bit_taken(Op::Brbs, sreg, op->b)) goto exit_taken;
      MAVR_TIER_NEXT();
    L_CondBrbc:
      if (isa::bit_taken(Op::Brbc, sreg, op->b)) goto exit_taken;
      MAVR_TIER_NEXT();
    L_CondCpse:
      if (ram[op->a] == ram[op->b]) goto exit_taken;
      MAVR_TIER_NEXT();
    L_CondSbrc:
      if (isa::bit_taken(Op::Sbrc, ram[op->a], op->b)) goto exit_taken;
      MAVR_TIER_NEXT();
    L_CondSbrs:
      if (isa::bit_taken(Op::Sbrs, ram[op->a], op->b)) goto exit_taken;
      MAVR_TIER_NEXT();
    // A dispatched skip-test read ends the block at this boundary whichever
    // way the test goes — the handler may have scheduled work.
#define MAVR_TIER_COND_IO(test)                                           \
      if (disp[op->k] & IoBus::kHandlesRead) [[unlikely]] {               \
        std::uint8_t v;                                                   \
        MAVR_TIER_IO_CALL_COND(v = data_.load(op->k),                     \
                               isa::bit_taken(test, v, op->b));           \
        goto block_done;                                                  \
      }                                                                   \
      if (isa::bit_taken(test, ram[op->k], op->b)) goto exit_taken;       \
      MAVR_TIER_NEXT()
    L_CondSbic:
      MAVR_TIER_COND_IO(Op::Sbic);
    L_CondSbis:
      MAVR_TIER_COND_IO(Op::Sbis);
#undef MAVR_TIER_COND_IO
    L_CondRet: {
      // The architectural pop, then a compare against the translate-time
      // prediction: a match continues in-block, a mismatch (callee
      // unbalanced the stack) exits with the popped destination.
      [[maybe_unused]] const std::uint16_t sp0 = kEvents ? sp_now() : 0;
      std::uint32_t raw;
      if (!isa::pop_ret(ram, data_size, push_n, raw)) goto side_exit;
      note_ret(raw);
      next_pc = raw & mask;
      if constexpr (kEvents) {
        if (!op_events(sp0, ev_ret, [&] {
              tracer_->on_ret(*this, op->pc_abs, next_pc, raw, false);
            })) {
          goto exit_to;
        }
      }
      if (next_pc == op->target) [[likely]] MAVR_TIER_NEXT();
      goto exit_to;
    }

    // --- terminators ---------------------------------------------------
    L_TermIjmp:
      next_pc = isa::z_target(ram) & mask;
      goto exit_to;
    L_TermEijmp:
      next_pc = isa::eind_target(ram) & mask;
      goto exit_to;
#define MAVR_TIER_ICALL(name, target)                                     \
    L_##name: {                                                           \
      [[maybe_unused]] const std::uint16_t sp0 = kEvents ? sp_now() : 0;                \
      if (!isa::push_ret(ram, data_size, push_n, op->target2)) {          \
        goto side_exit;                                                   \
      }                                                                   \
      next_pc = (target) & mask;                                          \
      if constexpr (kEvents) {                                            \
        op_events(sp0, ev_call, [&] {                                     \
          tracer_->on_call(*this, op->pc_abs, next_pc, op->target2);      \
        });                                                               \
      }                                                                   \
      goto exit_to;                                                       \
    }
      MAVR_TIER_ICALL(TermIcall, isa::z_target(ram))
      MAVR_TIER_ICALL(TermEicall, isa::eind_target(ram))
#undef MAVR_TIER_ICALL
    L_TermRet:
    L_TermReti: {
      [[maybe_unused]] const std::uint16_t sp0 = kEvents ? sp_now() : 0;
      std::uint32_t raw;
      if (!isa::pop_ret(ram, data_size, push_n, raw)) goto side_exit;
      note_ret(raw);
      const bool reti = op->kind == TierOpKind::kTermReti;
      if (reti) sreg = isa::reti_sreg(sreg);
      next_pc = raw & mask;
      if constexpr (kEvents) {
        op_events(sp0, ev_ret, [&] {
          tracer_->on_ret(*this, op->pc_abs, next_pc, raw, reti);
        });
      }
      goto exit_to;
    }
    L_TermBsetI:
      isa::Bset(ram, sreg, op->a, op->b, op->k);
      next_pc = op->target2;
      goto exit_to;
    L_TermOutSreg:
      if (disp[op->k] & IoBus::kHandlesWrite) goto side_exit;
      sreg = ram[op->a];
      next_pc = op->target2;
      goto exit_to;
    L_TermFall:
      // Pseudo-exit: retires nothing itself. The tick/poll that the
      // interpreter would run after the last real op cannot be due here —
      // the deadline guard covered the whole prefix and no in-block op
      // can raise the interrupt gate — so publishing the clock suffices.
      ram[kAddrSreg] = sreg;
      pc = op->target;
      cycles += op->cyc_before;
      retired += op->ins_before;
      stat_insns += op->ins_before;
      ++stat_blocks;
      io_.set_now(cycles);
      continue;

    exit_taken:  // the op's static target, at its taken-path cost
      next_pc = op->target;
    exit_to:  // next_pc set by the op, taken-path cost
      term_cyc = op->cyc;
    block_done:
      ram[kAddrSreg] = sreg;
      pc = next_pc;
      cycles += op->cyc_before + term_cyc;
      retired += static_cast<std::uint64_t>(op->ins_before) + 1;
      stat_insns += static_cast<std::uint64_t>(op->ins_before) + 1;
      ++stat_blocks;
      // Exactly the interpreter's post-instruction sequence for the
      // terminator: publish the clock, tick on a crossed deadline, then
      // poll interrupt lines (the terminator may have set I).
      io_.set_now(cycles);
      if (cycles >= io_.next_deadline()) [[unlikely]] io_.tick(cycles);
      if ((ram[kAddrSreg] & fb(kI)) != 0 && io_.irq_hint() &&
          !irq_lines_.empty()) {
        if constexpr (kEvents) retired_ = retired;  // the poll syncs pc/cycles
        poll_irq_lines<kEvents>(pc, cycles);
      }
      // Self-loop fast path: a hot loop whose backward branch targets its
      // own head (dec/brne spins, polling loops) re-enters the same block
      // without going back through the lookup — only the guards that can
      // change between iterations are rechecked.
      if (pc == blk_head && state_ == CpuState::Running) {
        const std::uint64_t io_deadline = io_.next_deadline();
        const std::uint64_t stop =
            io_deadline < deadline ? io_deadline : deadline;
        if (cycles + blk_worst < stop &&
            !((ram[kAddrSreg] & fb(kI)) != 0 && io_.irq_hint() &&
              !irq_lines_.empty()) &&
            (!kEvents || !ev_sp || sp_fits(bp->sp_down, bp->sp_up))) {
          op = base;
          sreg = ram[kAddrSreg];
          ++stat_self;
          goto exec_entry;
        }
      }
      continue;

    side_exit:
      // The op at `op` has not touched any architectural state. Restore
      // the exact pre-op machine state and hand the instruction to the
      // interpreter, which redoes it with full dispatch/wrap semantics.
      ram[kAddrSreg] = sreg;
      pc = op->pc_abs;
      cycles += op->cyc_before;
      retired += op->ins_before;
      stat_insns += op->ins_before;
      ++stat_sides;
      io_.set_now(cycles);
      interp_one();
      continue;
    }
  } catch (...) {
    pc_ = pc;
    cycles_ = cycles;
    retired_ = retired;
    flush_stats();
    throw;
  }
  pc_ = pc;
  cycles_ = cycles;
  retired_ = retired;
  flush_stats();
}

#undef MAVR_TIER_NEXT

#else  // !(__GNUC__ || __clang__)

// Without computed goto the tier has no fast dispatch to offer; fall
// through to the interpreter, which is bit-identical by definition.
template <bool kEvents>
void Cpu::run_tier(std::uint64_t deadline) {
  step_impl<kEvents>(deadline, /*single=*/false);
}

#endif

template void Cpu::run_tier<false>(std::uint64_t);
template void Cpu::run_tier<true>(std::uint64_t);

}  // namespace mavr::avr
