// Superblock translation tier above the per-word decode cache.
//
// A superblock is a run of pre-resolved micro-ops that spans control
// flow the translator can follow — static jumps fold away, static calls
// inline their callees, a RET whose call was followed in the same block
// becomes a predicted continuation, and conditional branches become
// mid-block exits — ending at a dynamic transfer, an SREG-wholesale
// write, the size cap, or an instruction the translator cannot prove
// side-effect-free against the I/O bus (the dispatch map is resolved at
// translate time, so unclaimed I/O-region accesses compile to plain RAM
// moves). A peephole pass then fuses adjacent pure-op pairs into single
// dispatches. The executor (Cpu::run_tier, also in tier.cpp) runs a block
// with PC, the cycle counter and SREG in locals and only re-enters the
// interpreter — one cycle-exact single step — at block boundaries that
// need it: an interrupt is pending, an accessed address is
// device-dispatched, the stack leaves plain RAM, or the run/tick
// deadline would fall inside the block.
//
// Translations are keyed to ProgramMemory::generation() and
// IoBus::handler_generation(): every reflash (chip erase, page program,
// last-known-good fallback) bumps the flash generation, and the cache
// invalidates by bumping an epoch tag rather than clearing the per-word
// map — O(1) per reflash, which matters because the MAVR defense
// reprograms flash constantly. A handler registered after translation
// invalidates the same way, so statically-resolved dispatch never goes
// stale, and so does a change of TierKey (an attached tracer's
// breakpoints and SP interest shape where blocks end).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "avr/isa.hpp"
#include "avr/lazy_table.hpp"
#include "avr/memory.hpp"

namespace mavr::avr {

inline constexpr std::size_t kMaxBreakpoints = 4;

/// A tracer's breakpoints: a few word PCs, tested linearly.
struct BreakpointSet {
  std::array<std::uint32_t, kMaxBreakpoints> pcs{};
  std::uint8_t count = 0;

  /// Adds `pc_words`; false when the set is full.
  bool add(std::uint32_t pc_words) {
    if (count == kMaxBreakpoints) return false;
    pcs[count++] = pc_words;
    return true;
  }
  bool contains(std::uint32_t pc_words) const {
    for (std::uint8_t i = 0; i < count; ++i) {
      if (pcs[i] == pc_words) return true;
    }
    return false;
  }
  bool operator==(const BreakpointSet&) const = default;
};

/// What a translation depends on besides flash and the I/O map. Every
/// breakpoint PC is a block head, and an untranslatable one, so it always
/// runs on the traced interpreter, which fires it; `sp_stores_end` ends
/// blocks before SPL/SPH stores so an SP-interested tracer sees them from
/// the interpreter too.
struct TierKey {
  BreakpointSet breakpoints;
  bool sp_stores_end = false;
  bool operator==(const TierKey&) const = default;
};

/// Every micro-op kind, straight-line kinds first and terminators last
/// (after kFirstTerminator). The executor's dispatch table is generated
/// from this same list, so it stays dense and in order.
#define MAVR_TIER_KINDS(X)                                                   \
  /* Register ops (isa.hpp). kBset never carries bit I: that encoding */     \
  /* terminates the block so interrupt delivery stays exact. */              \
  MAVR_REG_OPS(X)                                                            \
  /* Static-address data transfer. kLdsRam/kStsRam are plain-RAM moves */   \
  /* (also unclaimed IN/OUT); kLdsLow/kStsLow sit in the I/O region and */   \
  /* test the dispatch map at run time; kLdsSreg reads the live SREG. */     \
  X(LdsRam) X(StsRam) X(LdsLow) X(StsLow) X(LdsSreg) X(Sbi) X(Cbi)           \
  /* Pointer-addressed transfer, PUSH/POP: address computed, then */         \
  /* guarded against the plain-RAM window before any state moves. */         \
  MAVR_PTR_OPS(X)                                                            \
  MAVR_FLASH_OPS(X)                                                          \
  /* RCALL/CALL with a followed static target: pushes the return address */ \
  /* (target2) and falls through — the callee body continues the block. */  \
  X(CallPush)                                                                \
  /* Fused pairs (isa.hpp): a fused op retires two instructions (see */      \
  /* TierOp::ins_before) and reads its second half from the next slot. */    \
  MAVR_FUSED_PAIRS(X)                                                        \
  /* Conditional mid-block exits: the not-taken path continues inside */     \
  /* the block (its cost is folded into the next op's prefix sum); the */    \
  /* taken path leaves through the full block-exit sequence. */              \
  X(CondBrbs) X(CondBrbc) X(CondCpse) X(CondSbrc) X(CondSbrs) X(CondSbic)    \
  X(CondSbis)                                                                \
  /* RET whose matching call was followed earlier in the same block: */      \
  /* pops and compares against the translate-time return address */          \
  /* (target); a match continues in-block, a mismatch leaves with the */     \
  /* popped destination. */                                                  \
  X(CondRet)                                                                 \
  /* Terminators, exactly one per block, always last: dynamic targets */     \
  /* via Z (+EIND), returns, SEI and OUT SREG (both end the block so the */  \
  /* IRQ poll runs right after), and kTermFall, the pseudo-exit for the */   \
  /* size cap or an untranslatable next op. */                               \
  X(TermIjmp) X(TermEijmp) X(TermIcall) X(TermEicall) X(TermRet)             \
  X(TermReti) X(TermBsetI) X(TermOutSreg) X(TermFall)

enum class TierOpKind : std::uint8_t {
#define MAVR_TIER_KIND_ENUM(name, ...) k##name,
  MAVR_TIER_KINDS(MAVR_TIER_KIND_ENUM)
#undef MAVR_TIER_KIND_ENUM
};

inline constexpr auto kFirstTerminator =
    static_cast<std::uint8_t>(TierOpKind::kTermIjmp);
inline constexpr std::size_t kTierOpKinds =
    static_cast<std::size_t>(TierOpKind::kTermFall) + 1;

/// One pre-resolved micro-op. `pc_abs`/`cyc_before` give the exact
/// architectural PC and cycle count at this op's boundary, so a side
/// exit can hand the untouched instruction to the interpreter.
struct TierOp {
  TierOpKind kind = TierOpKind::kNop;
  std::uint8_t a = 0;        ///< destination register / primary operand
  std::uint8_t b = 0;        ///< source register or bit index
  std::uint8_t cyc = 0;      ///< terminator taken-path cycles
  std::uint16_t k = 0;       ///< immediate / absolute data-space address
  std::uint16_t ins_before = 0;  ///< instructions retired by earlier ops
  std::uint32_t pc_abs = 0;  ///< word address of the source instruction
  std::uint32_t cyc_before = 0;  ///< cycles retired by earlier ops in block
  std::uint32_t target = 0;      ///< taken/static target (pre-masked words)
  std::uint32_t target2 = 0;     ///< fall-through / pushed return address
};

/// SP excursion of one block segment: the ops from the head, or from a
/// call/ret op, up to the next call/ret op. PUSH/POP are the only other
/// ops that move SP inside a block, so every SP value the segment passes
/// through lies in [sp - down, sp + up] for the SP at its start. kCallPush
/// and kCondRet carry the range of the segment after them in `a`/`b`.
struct TierBlock {
  std::uint32_t first_op = 0;  ///< index into SuperblockCache::arena
  std::uint32_t num_ops = 0;   ///< including the terminator
  std::uint32_t head_pc = 0;
  std::uint32_t worst_cycles = 0;  ///< upper bound incl. taken terminator
  bool interp_only = false;  ///< head untranslatable: single-step instead
  std::uint8_t sp_down = 0;  ///< first segment's SP range (see above)
  std::uint8_t sp_up = 0;
};

/// Counters for the bench layer and the invalidation regression tests.
struct TierStats {
  std::uint64_t blocks_translated = 0;
  std::uint64_t invalidations = 0;   ///< epoch bumps from reflash
  std::uint64_t blocks_executed = 0;
  std::uint64_t block_instructions = 0;  ///< retired inside superblocks
  std::uint64_t side_exits = 0;
  std::uint64_t io_dispatches = 0;  ///< device-handled accesses run in-tier
  std::uint64_t self_loops = 0;  ///< same-block re-entries w/o a lookup
  std::uint64_t interp_steps = 0;  ///< cycle-exact single-step fallbacks
  std::uint64_t fused_pairs = 0;  ///< pair macro-ops emitted by the peephole
};

/// Translation cache: one map slot per flash word holding an epoch-tagged
/// block index. Stale epochs read as "not translated", so invalidation
/// never walks the map, and untouched map pages (zero: epoch 0, never
/// current) commit no memory.
class SuperblockCache {
 public:
  /// Sizes the map on first use and invalidates when the flash generation
  /// moved (any bootloader erase/program since the last run), a new I/O
  /// handler was registered (translation resolves the dispatch map
  /// statically, so a later registration must retranslate) or the key
  /// changed.
  void sync(const ProgramMemory& flash, std::uint64_t io_handler_gen,
            const TierKey& run_key) {
    if (map.empty()) map = LazyTable<std::uint64_t>(flash.size_words());
    if (generation != flash.generation() ||
        handler_generation != io_handler_gen || !(key == run_key)) {
      if (generation != flash.generation() && !blocks.empty()) {
        ++stats.invalidations;
      }
      generation = flash.generation();
      handler_generation = io_handler_gen;
      key = run_key;
      if (!blocks.empty()) {
        blocks.clear();
        arena.clear();
      }
      ++epoch;
    }
  }

  const TierBlock* find(std::uint32_t head_pc) const {
    const std::uint64_t slot = map[head_pc];
    if ((slot >> 32) != epoch) return nullptr;
    return &blocks[static_cast<std::uint32_t>(slot)];
  }

  /// Translates the superblock headed at `head_pc` under `key` and
  /// registers it in the map. `dispatch` is the I/O bus dispatch-flag map,
  /// resolved statically (sync() invalidates on any later handler
  /// registration). Returns a reference valid until the next
  /// translate()/sync().
  const TierBlock& translate(const ProgramMemory& flash,
                             const std::uint8_t* dispatch,
                             std::uint32_t head_pc, std::uint32_t pc_mask,
                             std::uint32_t data_size,
                             std::uint8_t push_bytes);

  std::vector<TierOp> arena;
  std::vector<TierBlock> blocks;
  LazyTable<std::uint64_t> map;
  TierKey key;
  std::uint64_t epoch = 1;
  std::uint64_t generation = ~std::uint64_t{0};
  std::uint64_t handler_generation = ~std::uint64_t{0};
  TierStats stats;
};

}  // namespace mavr::avr
