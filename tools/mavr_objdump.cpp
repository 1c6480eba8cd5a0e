// mavr-objdump — inspect a MAVR container HEX: symbol table, pointer
// slots, gadget census, optional per-function disassembly or CFG.
//
//   mavr-objdump <container.hex> [--symbols] [--gadgets]
//                [--disasm <byte-addr-hex>] [--cfg [byte-addr-hex]]
//                [--headers]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "analysis/cfg.hpp"
#include "attack/gadgets.hpp"
#include "defense/preprocess.hpp"
#include "support/parse.hpp"
#include "toolchain/disasm.hpp"
#include "toolchain/intelhex.hpp"

namespace {

std::string read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A bare-hex byte address flag value; exits 2 when malformed.
std::uint32_t hex_addr(const char* flag, const char* value) {
  const auto addr =
      mavr::support::parse_u64_in(value, 0, UINT32_MAX, /*base=*/16);
  if (!addr) {
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag, value);
    std::exit(2);
  }
  return static_cast<std::uint32_t>(*addr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mavr;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: mavr-objdump <container.hex> [--symbols] "
                 "[--gadgets] [--disasm <byte-addr-hex>] "
                 "[--cfg [byte-addr-hex]] [--headers]\n");
    return 2;
  }

  const toolchain::HexImage hex = toolchain::intel_hex_decode(read_file(argv[1]));
  const defense::Container container = defense::parse_container(hex.data);
  const toolchain::SymbolBlob& blob = container.blob;

  bool any = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--headers") == 0) {
      any = true;
      std::printf("image: %zu bytes, text_end 0x%X, first movable 0x%X, "
                  "%zu functions, %zu pointer slots, LDI code pointers: "
                  "%s\n",
                  container.image.size(), blob.text_end, blob.first_movable,
                  blob.function_addrs.size(), blob.pointer_slots.size(),
                  blob.has_ldi_code_pointers ? "yes (UNRANDOMIZABLE)"
                                             : "no");
    } else if (std::strcmp(argv[i], "--symbols") == 0) {
      any = true;
      std::printf("%-10s %-10s\n", "address", "size");
      for (std::size_t k = 0; k < blob.function_addrs.size(); ++k) {
        std::printf("0x%-8X %u\n", blob.function_addrs[k],
                    blob.function_sizes[k]);
      }
    } else if (std::strcmp(argv[i], "--gadgets") == 0) {
      any = true;
      attack::GadgetFinder finder(container.image, blob.text_end);
      const attack::GadgetCensus& c = finder.census();
      std::printf("gadgets: %u total (%u ret-sequences, %u stk_move, "
                  "%u write_mem, %u pop-chains)\n",
                  c.total(), c.ret_gadgets, c.stk_move_gadgets,
                  c.write_mem_gadgets, c.pop_chain_gadgets);
      if (!finder.stk_moves().empty()) {
        std::printf("first stk_move entry:  0x%X\n",
                    finder.stk_moves()[0].entry_byte_addr);
      }
      if (!finder.write_mems().empty()) {
        std::printf("first write_mem entry: 0x%X (pops at 0x%X)\n",
                    finder.write_mems()[0].store_entry_byte_addr,
                    finder.write_mems()[0].pop_entry_byte_addr);
      }
    } else if (std::strcmp(argv[i], "--cfg") == 0) {
      any = true;
      // Optional hex byte address narrows the dump to one function; the
      // text is stable (offsets only change when the code does), so the
      // golden-file tests diff it directly.
      std::uint32_t want = 0;
      bool have_want = false;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        want = hex_addr("--cfg", argv[++i]);
        have_want = true;
      }
      bool found = false;
      for (std::size_t k = 0; k < blob.function_addrs.size(); ++k) {
        const std::uint32_t start = blob.function_addrs[k];
        const std::uint32_t size = blob.function_sizes[k];
        if (have_want && (want < start || want >= start + size)) continue;
        found = true;
        const analysis::RegionCfg cfg = analysis::build_region_cfg(
            std::span(container.image).subspan(start, size), start);
        std::printf("func %zu @0x%X size=%u\n%s", k, start, size,
                    analysis::format_cfg(cfg).c_str());
      }
      if (have_want && !found) {
        std::fprintf(stderr, "0x%X is not inside a function\n", want);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--disasm") == 0 && i + 1 < argc) {
      any = true;
      const std::uint32_t addr = hex_addr("--disasm", argv[++i]);
      // Find the containing function via the blob.
      std::size_t idx = blob.function_addrs.size();
      for (std::size_t k = 0; k < blob.function_addrs.size(); ++k) {
        if (blob.function_addrs[k] <= addr &&
            addr < blob.function_addrs[k] + blob.function_sizes[k]) {
          idx = k;
          break;
        }
      }
      if (idx == blob.function_addrs.size()) {
        std::fprintf(stderr, "0x%X is not inside a function\n", addr);
        return 1;
      }
      const auto lines = toolchain::disassemble(
          std::span(container.image)
              .subspan(blob.function_addrs[idx], blob.function_sizes[idx]),
          blob.function_addrs[idx]);
      std::printf("%s", toolchain::format_listing(lines).c_str());
    }
  }
  if (!any) {
    std::printf("container ok: %zu-byte image, %zu functions "
                "(use --headers/--symbols/--gadgets/--disasm)\n",
                container.image.size(), blob.function_addrs.size());
  }
  return 0;
}
