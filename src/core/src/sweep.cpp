#include "vpmem/core/sweep.hpp"

#include <algorithm>
#include <thread>

namespace vpmem::core {

std::size_t default_workers(std::size_t hint) {
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (hint == 0) return hw;
  return std::min(hint, hw);
}

}  // namespace vpmem::core
