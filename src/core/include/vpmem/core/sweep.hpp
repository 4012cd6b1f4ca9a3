// Worker-count policy for thread-parallel parameter sweeps.  Simulations
// of distinct parameter points are independent, so sweeps (all INC values
// of Fig. 10, all (d1, d2) pairs of the classification grid) fan out
// across exec::parallel_for.
#pragma once

#include <cstddef>

namespace vpmem::core {

/// Number of workers to use: min(hint, hardware_concurrency), at least 1.
[[nodiscard]] std::size_t default_workers(std::size_t hint = 0);

}  // namespace vpmem::core
