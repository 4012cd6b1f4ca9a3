#include "vpmem/xmp/machine.hpp"

#include "vpmem/util/error.hpp"
#include "vpmem/xmp/kernels.hpp"

namespace vpmem::xmp {

std::vector<i64> triad_start_banks(const XmpConfig& config, const TriadSetup& setup) {
  if (setup.idim < 1) throw Error{ErrorCode::config_invalid, "TriadSetup: idim >= 1"};
  const i64 m = config.memory.banks;
  // COMMON// A(IDIM), B(IDIM), C(IDIM), D(IDIM): arrays back to back.
  return {mod_norm(setup.base_bank, m), mod_norm(setup.base_bank + setup.idim, m),
          mod_norm(setup.base_bank + 2 * setup.idim, m),
          mod_norm(setup.base_bank + 3 * setup.idim, m)};
}

TriadResult run_triad(const XmpConfig& config, const TriadSetup& setup, bool other_cpu_active) {
  return run_kernel(config, triad_kernel(), setup, other_cpu_active);
}

}  // namespace vpmem::xmp
