#include "vpmem/core/sweep.hpp"

#include <gtest/gtest.h>

namespace vpmem::core {
namespace {

TEST(DefaultWorkers, AtLeastOne) {
  EXPECT_GE(default_workers(), 1u);
  EXPECT_EQ(default_workers(1), 1u);
  EXPECT_LE(default_workers(4), 4u);
}

}  // namespace
}  // namespace vpmem::core
