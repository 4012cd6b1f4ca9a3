// Deterministic replay and shrinking.  Every fuzz failure is reported as
// a single self-contained line ("vpmem.fuzz/1 m=16 s=4 nc=4 ... stream=…")
// that encodes the complete scenario — not just the PRNG seed — so a
// repro survives changes to the sampling distribution.  `vpmem_cli fuzz
// --replay '<line>'` re-executes it; shrink_case() greedily minimizes the
// stream count and cycle budget while the failure persists.
#pragma once

#include <functional>
#include <string>

#include "vpmem/check/fuzzer.hpp"

namespace vpmem::check {

/// Line-format marker; bump when the encoding changes incompatibly.
inline constexpr const char* kReproSchema = "vpmem.fuzz/1";

/// One-line, human-readable, order-stable encoding of a case, e.g.
///   vpmem.fuzz/1 m=13 s=13 nc=4 map=cyclic prio=fixed cycles=224
///     fault=none stream=b0,d1,c0,linf,t0 stream=b7,d6,c1,l64,t2
/// Pattern streams encode the period instead of b/d: stream=p0:3:5,c0,….
/// A case with a sim::FaultPlan carries it as one extra token,
/// fplan=<FaultPlan::encode()>, e.g. fplan=stall;boff@8:b3;bon@40:b3.
[[nodiscard]] std::string encode_repro(const FuzzCase& fuzz_case);

/// Inverse of encode_repro; throws vpmem::Error{config_invalid} on
/// malformed input (unknown keys, missing fields, bad schema tag, unknown
/// fault name) and vpmem::Error{fault_plan_invalid} on a malformed fplan
/// token.
[[nodiscard]] FuzzCase parse_repro(const std::string& line);

/// Greedy minimization: repeatedly drop streams, then halve the cycle
/// budget, then zero start cycles — keeping each simplification only while
/// `still_fails` stays true.  Returns the smallest failing case found.
[[nodiscard]] FuzzCase shrink_case(const FuzzCase& fuzz_case,
                                   const std::function<bool(const FuzzCase&)>& still_fails);

}  // namespace vpmem::check
