#include "avr/cpu.hpp"

#include <algorithm>
#include <bit>

#include "avr/isa.hpp"
#include "support/hexdump.hpp"

namespace mavr::avr {

using isa::fb;

namespace {
/// Decode-cache sentinel: size_words == 0 never comes out of decode().
constexpr Instr kUndecoded{.op = Op::Invalid,
                           .rd = 0,
                           .rr = 0,
                           .bit = 0,
                           .k = 0,
                           .target = 0,
                           .size_words = 0};
}  // namespace

Cpu::Cpu(const McuSpec& spec)
    : spec_(spec),
      flash_(spec),
      data_(spec, io_),
      eeprom_(spec),
      ram_(data_.raw_data()),
      data_size_(spec.data_space_bytes()),
      push_bytes_(static_cast<std::uint8_t>(spec.pc_push_bytes)),
      pc_mask_(spec.flash_words() - 1),
      cache_(spec.flash_words(), kUndecoded) {
  MAVR_CHECK(std::has_single_bit(spec.flash_words()),
             "flash word count must be a power of two for PC wrapping");
  io_.bind_backing(data_.raw_data());
  cache_generation_ = flash_.generation();
  reset();
}

void Cpu::reset() {
  data_.clear();
  io_.restore_latches();
  pc_ = 0;
  set_sp(static_cast<std::uint16_t>(spec_.ramend()));
  state_ = CpuState::Running;
  fault_ = FaultInfo{};
  last_ret_raw_words_ = 0;
  last_ret_wrapped_ = false;
}

const Instr& Cpu::decoded(std::uint32_t word_addr) {
  Instr& in = cache_[word_addr];
  if (in.size_words == 0) [[unlikely]] {
    in = decode(flash_.word(word_addr),
                flash_.word((word_addr + 1) & pc_mask_));
  }
  return in;
}

void Cpu::sync_decode_cache() {
  if (cache_generation_ != flash_.generation()) {
    std::fill(cache_.begin(), cache_.end(), kUndecoded);
    cache_generation_ = flash_.generation();
  }
}

void Cpu::set_flag(SregBit bit, bool value) {
  std::uint8_t s = sreg();
  if (value) {
    s |= static_cast<std::uint8_t>(1u << bit);
  } else {
    s &= static_cast<std::uint8_t>(~(1u << bit));
  }
  set_sreg(s);
}

void Cpu::push_byte(std::uint8_t value) {
  // Stack traffic is deliberately not routed through load_mem/store_mem:
  // tracers observe it via on_sp_change / on_call / on_ret instead, keeping
  // on_load/on_store scoped to the program's explicit data accesses.
  const std::uint16_t sp_now = sp();
  data_.store(sp_now, value);
  set_sp(static_cast<std::uint16_t>(sp_now - 1));
}

std::uint8_t Cpu::pop_byte() {
  const std::uint16_t sp_now = static_cast<std::uint16_t>(sp() + 1);
  set_sp(sp_now);
  return data_.load(sp_now);
}

void Cpu::push_pc(std::uint32_t ret_words) {
  // isa::push_ret batches the bytes when the whole frame sits in plain
  // RAM. A stack pivoted into the I/O region or off the end takes the
  // general path, which re-reads SP between bytes (a push that rewrites
  // SPL redirects the bytes that follow, and the ROP payloads depend on
  // that). Hardware pushes the LSB first.
  if (isa::push_ret(ram_, data_size_, push_bytes_, ret_words)) [[likely]] {
    return;
  }
  push_byte(static_cast<std::uint8_t>(ret_words & 0xFF));
  push_byte(static_cast<std::uint8_t>((ret_words >> 8) & 0xFF));
  if (push_bytes_ == 3) {
    push_byte(static_cast<std::uint8_t>((ret_words >> 16) & 0xFF));
  }
}

std::uint32_t Cpu::pop_pc() {
  // Returns the raw popped value; callers apply pc_mask_. Preserving the
  // unmasked bytes lets a wild return from a smashed stack be diagnosed
  // instead of silently wrapping into valid flash.
  std::uint32_t value = 0;
  if (isa::pop_ret(ram_, data_size_, push_bytes_, value)) [[likely]] {
    return value;
  }
  if (push_bytes_ == 3) value = pop_byte();
  value = (value << 8) | pop_byte();
  value = (value << 8) | pop_byte();
  return value;
}

void Cpu::fault_now(std::uint32_t pc_words, std::uint16_t opcode,
                    std::string reason) {
  state_ = CpuState::Faulted;
  fault_.pc_words = pc_words;
  fault_.opcode = opcode;
  fault_.reason = std::move(reason);
  fault_.cycle = cycles_;
  fault_.last_ret_raw_words = last_ret_raw_words_;
  fault_.last_ret_wrapped = last_ret_wrapped_;
}

template <bool kTraced>
std::uint8_t Cpu::load_mem(std::uint32_t addr) {
  const std::uint8_t value = data_.load(addr);
  if constexpr (kTraced) tracer_->on_load(*this, addr, value);
  return value;
}

template <bool kTraced>
void Cpu::store_mem(std::uint32_t addr, std::uint8_t value) {
  data_.store(addr, value);
  if constexpr (kTraced) tracer_->on_store(*this, addr, value);
}

template <bool kTraced>
struct Cpu::DataPort {
  Cpu& cpu;
  std::uint8_t load(std::uint32_t addr) { return cpu.load_mem<kTraced>(addr); }
  void store(std::uint32_t addr, std::uint8_t value) {
    cpu.store_mem<kTraced>(addr, value);
  }
};

// The interpreter body is instantiated twice: the kTraced=false build is
// byte-for-byte the old hook-free loop, the kTraced=true build weaves the
// Tracer callbacks in. step()/run() pick an instantiation with a single
// null-pointer branch, so disabling tracing costs nothing in the hot path.
template <bool kTraced>
void Cpu::step_impl(std::uint64_t deadline, bool single) {
  if (state_ != CpuState::Running) return;

  // The hot architectural counters live in locals for the whole loop: byte
  // stores through ram_ may alias any member (char-type aliasing), so
  // member counters would be reloaded and re-stored every instruction,
  // while loop locals stay in registers. The traced instantiation syncs
  // the members around every hook so tracers observe exactly the
  // per-instruction state the member-based loop exposed; cold exits
  // (fault, a throwing device handler) sync before leaving.
  std::uint32_t pc = pc_;
  std::uint64_t cycles = cycles_;
  std::uint64_t retired = retired_;
  // Memory ports for the shared semantics: program data accesses go
  // through load_mem/store_mem (dispatch, wrap, tracer hooks); stack
  // traffic goes straight to the bus — tracers observe it via
  // on_sp_change / on_call / on_ret instead, keeping on_load/on_store
  // scoped to the program's explicit data accesses.
  DataPort<kTraced> data{*this};
  DataMemory& stack = data_;
  const auto& op_cycles = isa::op_cycles(push_bytes_);
  try {
  do {
  if constexpr (kTraced) {
    pc_ = pc;
    cycles_ = cycles;
    retired_ = retired;
  }
  const std::uint32_t pc0 = pc;
  [[maybe_unused]] std::uint16_t sp0 = 0;
  if constexpr (kTraced) sp0 = sp();
  // Executed from a by-value copy: the interpreter's data-space byte stores
  // could alias a cache_ reference, forcing field reloads after every store.
  const Instr in = decoded(pc0);
  std::uint32_t next = (pc0 + in.size_words) & pc_mask_;
  std::uint32_t cyc = op_cycles[static_cast<std::size_t>(in.op)];
  // Taken branches and skips cost one cycle more than the table's base.
  const auto skip = [&] {
    next = isa::skip_target(flash_, next, pc_mask_);
    ++cyc;
  };

  switch (in.op) {
    case Op::Invalid:
      pc_ = pc;
      cycles_ = cycles;
      retired_ = retired;
      fault_now(pc0, flash_.word(pc0),
                "invalid opcode " + support::hex_value(flash_.word(pc0)));
      if constexpr (kTraced) tracer_->on_fault(*this, fault_);
      return;
    case Op::Break:
      state_ = CpuState::Stopped;
      break;
    case Op::Sleep:
    case Op::Wdr:
    case Op::Spm:
      break;

    // --- Table-driven ops (isa.hpp) --------------------------------------
    // Register ops work on a local SREG copy: they touch nothing else of
    // the data space, so one load and one store bracket them.
#define MAVR_CPU_REG(name, cyc_, b)                   \
    case Op::name: {                                  \
      std::uint8_t s = ram_[kAddrSreg];               \
      isa::name(ram_, s, in.rd, in.b, in.k);          \
      ram_[kAddrSreg] = s;                            \
      break;                                          \
    }
    MAVR_REG_OPS(MAVR_CPU_REG)
#undef MAVR_CPU_REG
#define MAVR_CPU_PTR(name, cyc_, ptr, mode, store, port)                   \
    case Op::name:                                                         \
      isa::ptr_access<ptr, isa::PtrMode::mode, store>(                     \
          port, ram_, in.rd, isa::ptr_addr<ptr, isa::PtrMode::mode>(ram_, in.k)); \
      break;
    MAVR_PTR_OPS(MAVR_CPU_PTR)
#undef MAVR_CPU_PTR
#define MAVR_CPU_FLASH(name, cyc_, ext, r0, inc)                  \
    case Op::name:                                                \
      isa::flash_load<ext, r0, inc>(ram_, flash_, in.rd);         \
      break;
    MAVR_FLASH_OPS(MAVR_CPU_FLASH)
#undef MAVR_CPU_FLASH
    case Op::Lds: isa::load_reg(data, ram_, in.rd, in.k); break;
    case Op::Sts: isa::store_reg(data, ram_, in.rd, in.k); break;
    case Op::In: isa::load_reg(data, ram_, in.rd, kIoBase + in.k); break;
    case Op::Out: isa::store_reg(data, ram_, in.rd, kIoBase + in.k); break;
    case Op::Sbi:
    case Op::Cbi:
      isa::write_io_bit(data, kIoBase + in.k, in.bit, in.op == Op::Sbi);
      break;

    // --- Control flow ---------------------------------------------------
    case Op::Rjmp:
    case Op::Jmp:
      next = isa::static_target(in, pc0) & pc_mask_;
      break;
    case Op::Ijmp: next = isa::z_target(ram_) & pc_mask_; break;
    case Op::Eijmp: next = isa::eind_target(ram_) & pc_mask_; break;
    case Op::Rcall:
    case Op::Call:
    case Op::Icall:
    case Op::Eicall: {
      const std::uint32_t ret = next;
      push_pc(ret);  // first: a push through a pivoted SP may rewrite Z
      next = (in.op == Op::Icall    ? isa::z_target(ram_)
              : in.op == Op::Eicall ? isa::eind_target(ram_)
                                    : isa::static_target(in, pc0)) &
             pc_mask_;
      if constexpr (kTraced) tracer_->on_call(*this, pc0, next, ret);
      break;
    }
    case Op::Ret:
    case Op::Reti: {
      const std::uint32_t raw = pop_pc();
      next = raw & pc_mask_;
      note_ret(raw);
      if (in.op == Op::Reti) set_sreg(isa::reti_sreg(sreg()));
      if constexpr (kTraced) {
        tracer_->on_ret(*this, pc0, next, raw, in.op == Op::Reti);
      }
      break;
    }
    case Op::Brbs:
    case Op::Brbc:
      if (isa::bit_taken(in.op, sreg(), in.bit)) {
        next = isa::rel_target(in, pc0) & pc_mask_;
        ++cyc;
      }
      break;
    case Op::Cpse:
      if (reg(in.rd) == reg(in.rr)) skip();
      break;
    case Op::Sbrc:
    case Op::Sbrs:
      if (isa::bit_taken(in.op, reg(in.rd), in.bit)) skip();
      break;
    case Op::Sbic:
    case Op::Sbis:
      if (isa::bit_taken(in.op, data.load(kIoBase + in.k), in.bit)) skip();
      break;
  }

  if constexpr (kTraced) {
    // Fires before the PC advances so watchpoint hits report the pc of the
    // instruction that moved SP (the stk_move pivot's OUT, a push, ...).
    const std::uint16_t sp1 = sp();
    if (sp1 != sp0) tracer_->on_sp_change(*this, sp0, sp1);
  }

  pc = next & pc_mask_;
  cycles += cyc;
  ++retired;
  // Publish the post-retire time for clock-reading devices (one store),
  // then dispatch device ticks only when a cached deadline is crossed —
  // the per-instruction virtual broadcast is gone from the hot path.
  io_.set_now(cycles);
  if (cycles >= io_.next_deadline()) [[unlikely]] io_.tick(cycles);

  if constexpr (kTraced) {
    pc_ = pc;
    cycles_ = cycles;
    retired_ = retired;
    tracer_->on_retire(*this, pc0, in, cyc);
  }

  // Interrupt delivery between instructions (lowest vector slot wins).
  // Lines are only walked while the bus's interrupt hint is up — devices
  // raise it when a condition goes pending, and a poll that finds nothing
  // clears it, so quiescent stretches skip the indirect take() calls.
  if (flag(kI) && io_.irq_hint() && !irq_lines_.empty()) {
    poll_irq_lines<kTraced>(pc, cycles);
  }
  } while (!single && state_ == CpuState::Running && cycles < deadline);
  } catch (...) {
    pc_ = pc;
    cycles_ = cycles;
    retired_ = retired;
    throw;
  }
  pc_ = pc;
  cycles_ = cycles;
  retired_ = retired;
}

void Cpu::step() {
  sync_decode_cache();
  const std::uint64_t flash_gen = flash_.generation();
  io_.raise_irq();
  if (tracer_ == nullptr) [[likely]] {
    step_impl<false>(0, /*single=*/true);
  } else {
    step_impl<true>(0, /*single=*/true);
  }
  MAVR_REQUIRE(flash_.generation() == flash_gen,
               "flash reprogrammed inside step()");
}

// Delivery shared by both interpreter instantiations and the tier
// dispatcher. Caller holds the gate (I set, hint up, lines registered);
// locals are the caller's live pc/cycle counters.
template <bool kTraced>
void Cpu::poll_irq_lines(std::uint32_t& pc, std::uint64_t& cycles) {
  bool took = false;
  for (const IrqLine& line : irq_lines_) {
    if (!line.take(line.ctx)) continue;
    took = true;
    const std::uint32_t from = pc;
    [[maybe_unused]] std::uint16_t sp_before = 0;
    if constexpr (kTraced) sp_before = sp();
    push_pc(from);
    set_flag(kI, false);
    pc = (static_cast<std::uint32_t>(line.slot) * 2) & pc_mask_;
    cycles += 5;
    ++interrupts_taken_;
    if constexpr (kTraced) {
      pc_ = pc;
      cycles_ = cycles;
      tracer_->on_sp_change(*this, sp_before, sp());
      tracer_->on_irq(*this, line.slot, from);
    }
    break;
  }
  // Keep the hint up after a dispatch: another line may still be pending
  // (it will be re-polled at the next instruction with I set).
  if (!took) io_.clear_irq_hint();
}

void Cpu::set_irq_line(std::uint8_t vector_slot, IrqTakeFn take, void* ctx) {
  irq_lines_.push_back(IrqLine{vector_slot, take, ctx});
  std::sort(
      irq_lines_.begin(), irq_lines_.end(),
      [](const IrqLine& a, const IrqLine& b) { return a.slot < b.slot; });
}

std::uint64_t Cpu::run(std::uint64_t cycle_budget) {
  sync_decode_cache();
  // Flash changes only between runs (the decode cache and the tier's
  // translations are synced above, once); a device handler that
  // reprograms it mid-run is refused once the run ends.
  const std::uint64_t flash_gen = flash_.generation();
  // Pending state may have been flipped from outside the simulation loop
  // (tests driving lines directly, UART feeds between runs): poll at least
  // once regardless of device hints.
  io_.raise_irq();
  const std::uint64_t start = cycles_;
  const std::uint64_t deadline = start + cycle_budget;
  // Execution mode resolved once per run: a tracer demotes to the traced
  // interpreter (hooks fire per instruction, which a block executor cannot
  // provide), otherwise the superblock tier runs unless toggled off for
  // benchmarking. Every mode is bit-identical; see DESIGN.md §16.
  if (cycle_budget != 0) {
    if (tracer_ == nullptr) [[likely]] {
      if (exec_tier_) [[likely]] {
        run_tier(deadline);
      } else {
        step_impl<false>(deadline, /*single=*/false);
      }
    } else {
      step_impl<true>(deadline, /*single=*/false);
    }
  }
  MAVR_REQUIRE(flash_.generation() == flash_gen,
               "flash reprogrammed inside run()");
  return cycles_ - start;
}

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
// leaves 18 indirect jumps in this function instead of ~100).
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-crossjumping")))
#endif
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
  tier_.sync(flash_, io_.handler_generation());
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
  // included) with the members synced around it.
  const auto interp_one = [&] {
    pc_ = pc;
    cycles_ = cycles;
    retired_ = retired;
    step_impl<false>(deadline, /*single=*/true);
    pc = pc_;
    cycles = cycles_;
    retired = retired_;
    ++stat_steps;
  };

  try {
    while (state_ == CpuState::Running && cycles < deadline) {
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
          step_impl<false>(target, /*single=*/false);
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
    L_CallPush:
      if (!isa::push_ret(ram, data_size, push_n, op->target2)) goto side_exit;
      MAVR_TIER_NEXT();

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
      std::uint32_t raw;
      if (!isa::pop_ret(ram, data_size, push_n, raw)) goto side_exit;
      note_ret(raw);
      next_pc = raw & mask;
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
    L_TermIcall:
      if (!isa::push_ret(ram, data_size, push_n, op->target2)) goto side_exit;
      next_pc = isa::z_target(ram) & mask;
      goto exit_to;
    L_TermEicall:
      if (!isa::push_ret(ram, data_size, push_n, op->target2)) goto side_exit;
      next_pc = isa::eind_target(ram) & mask;
      goto exit_to;
    L_TermRet:
    L_TermReti: {
      std::uint32_t raw;
      if (!isa::pop_ret(ram, data_size, push_n, raw)) goto side_exit;
      note_ret(raw);
      if (op->kind == TierOpKind::kTermReti) sreg = isa::reti_sreg(sreg);
      next_pc = raw & mask;
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
        poll_irq_lines<false>(pc, cycles);
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
              !irq_lines_.empty())) {
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
void Cpu::run_tier(std::uint64_t deadline) {
  step_impl<false>(deadline, /*single=*/false);
}

#endif

}  // namespace mavr::avr
