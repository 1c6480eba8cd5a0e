#include "avr/cpu.hpp"

#include <algorithm>
#include <bit>

#include "avr/isa.hpp"
#include "support/hexdump.hpp"

namespace mavr::avr {

Cpu::Cpu(const McuSpec& spec)
    : spec_(spec),
      flash_(spec),
      data_(spec, io_),
      eeprom_(spec),
      ram_(data_.raw_data()),
      data_size_(spec.data_space_bytes()),
      push_bytes_(static_cast<std::uint8_t>(spec.pc_push_bytes)),
      pc_mask_(spec.flash_words() - 1),
      cache_(spec.flash_words()) {
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
    cache_.touch(word_addr);
  }
  return in;
}

void Cpu::sync_decode_cache() {
  if (cache_generation_ != flash_.generation()) {
    cache_.clear();
    cache_generation_ = flash_.generation();
  }
}

void Cpu::resolve_trace_key() {
  stop_ = false;
  trace_key_ = TierKey{};
  if (tracer_ != nullptr) {
    const TraceInterest& want = tracer_->interest();
    trace_key_.breakpoints = want.breakpoints;
    trace_key_.sp_stores_end = (want.events & kTraceSpChange) != 0;
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
    // Breakpoints fire at the boundary, before the instruction there.
    if (trace_key_.breakpoints.contains(pc) &&
        tracer_->on_breakpoint(*this, pc)) {
      stop_ = true;
      break;
    }
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
  resolve_trace_key();
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
  resolve_trace_key();
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
  // Execution mode resolved once per run: the superblock tier unless
  // toggled off for benchmarking — hook-free without a tracer, emitting
  // events for a tracer whose interest fits kTierTraceEvents. A tracer
  // that wants more (per-instruction retire, load/store hooks) demotes to
  // the traced interpreter. Every mode is bit-identical; see DESIGN.md §16.
  if (cycle_budget != 0) {
    if (tracer_ == nullptr) [[likely]] {
      if (exec_tier_) [[likely]] {
        run_tier<false>(deadline);
      } else {
        step_impl<false>(deadline, /*single=*/false);
      }
    } else if (exec_tier_ &&
               (tracer_->interest().events & ~kTierTraceEvents) == 0) {
      run_tier<true>(deadline);
    } else {
      step_impl<true>(deadline, /*single=*/false);
    }
  }
  MAVR_REQUIRE(flash_.generation() == flash_gen,
               "flash reprogrammed inside run()");
  return cycles_ - start;
}

// The tier executor (Cpu::run_tier, tier.cpp) calls these out of line.
template void Cpu::step_impl<false>(std::uint64_t, bool);
template void Cpu::step_impl<true>(std::uint64_t, bool);
template void Cpu::poll_irq_lines<false>(std::uint32_t&, std::uint64_t&);
template void Cpu::poll_irq_lines<true>(std::uint32_t&, std::uint64_t&);


}  // namespace mavr::avr
