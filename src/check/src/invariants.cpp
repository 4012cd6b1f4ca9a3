#include "vpmem/check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "vpmem/analytic/stream.hpp"
#include "vpmem/analytic/theorems.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/sim/run.hpp"
#include "vpmem/sim/steady_state.hpp"

namespace vpmem::check {

namespace {

bool all_infinite(const std::vector<sim::StreamConfig>& streams) {
  return std::all_of(streams.begin(), streams.end(),
                     [](const sim::StreamConfig& s) { return s.length == sim::kInfiniteLength; });
}

bool all_affine(const std::vector<sim::StreamConfig>& streams) {
  return std::none_of(streams.begin(), streams.end(),
                      [](const sim::StreamConfig& s) { return s.has_pattern(); });
}

/// The canonical Section III-B shape the pair theorems are stated for:
/// two affine infinite streams on distinct CPUs, starting at cycle 0, in
/// a flat memory (s = m) under fixed priority, with distances in [1, m).
bool canonical_pair(const sim::MemoryConfig& cfg, const std::vector<sim::StreamConfig>& streams) {
  if (streams.size() != 2 || cfg.sections != cfg.banks ||
      cfg.priority != sim::PriorityRule::fixed) {
    return false;
  }
  for (const auto& s : streams) {
    if (s.has_pattern() || s.length != sim::kInfiniteLength || s.start_cycle != 0 ||
        s.distance < 1 || s.distance >= cfg.banks) {
      return false;
    }
  }
  return streams[0].cpu != streams[1].cpu;
}

std::string rational_str(const Rational& r) { return r.str(); }

/// Runs one named check, converting any exception into a failure entry so
/// a single misbehaving oracle cannot abort the whole report.
class Runner {
 public:
  Runner(InvariantReport& report) : report_{report} {}  // NOLINT(google-explicit-constructor)

  void run(const std::string& name, const std::function<void(std::ostringstream&)>& body) {
    report_.ran.push_back(name);
    std::ostringstream fail;
    try {
      body(fail);
    } catch (const std::exception& e) {
      fail << "exception: " << e.what();
    }
    if (!fail.str().empty()) report_.failures.push_back({name, fail.str()});
  }

 private:
  InvariantReport& report_;
};

}  // namespace

bool InvariantReport::did_run(const std::string& name) const {
  return std::find(ran.begin(), ran.end(), name) != ran.end();
}

InvariantReport check_invariants(const sim::MemoryConfig& config,
                                 const std::vector<sim::StreamConfig>& streams,
                                 const InvariantOptions& options) {
  InvariantReport report;
  Runner runner{report};
  const i64 m = config.banks;
  const i64 nc = config.bank_cycle;

  // --- Theorem 1: return number r = m / gcd(m, d) ------------------------
  if (all_affine(streams) && !streams.empty()) {
    runner.run("theorem1_return_number", [&](std::ostringstream& fail) {
      for (const auto& s : streams) {
        const i64 r = analytic::return_number(m, s.distance);
        const auto set = analytic::access_set(m, s.start_bank, s.distance);
        if (static_cast<i64>(set.size()) != r) {
          fail << "d=" << s.distance << ": access set has " << set.size()
               << " banks, Theorem 1 says r=" << r;
          return;
        }
        for (i64 k = 0; k < r; ++k) {
          if (s.bank_of(k + r, m) != s.bank_of(k, m)) {
            fail << "d=" << s.distance << ": bank_of(" << k + r << ") != bank_of(" << k
                 << ") despite r=" << r;
            return;
          }
        }
      }
    });
  }

  // --- Single stream: b_eff = min(1, r/nc) -------------------------------
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const sim::StreamConfig& s = streams[i];
    if (s.has_pattern() || s.length != sim::kInfiniteLength) continue;
    runner.run("single_stream_bandwidth", [&](std::ostringstream& fail) {
      const Rational predicted = analytic::single_stream_bandwidth(m, s.distance, nc);
      const sim::SteadyState ss = sim::find_steady_state(config, {s}, options.max_cycles);
      if (ss.bandwidth != predicted) {
        fail << "stream " << i << " (d=" << s.distance << "): simulated "
             << rational_str(ss.bandwidth) << ", Section III-A predicts "
             << rational_str(predicted);
      }
    });
  }

  if (!all_infinite(streams) || streams.empty()) return report;

  // Everything below needs the exact steady state of the full set.
  sim::SteadyState base;
  bool have_base = false;
  runner.run("steady_state_detection", [&](std::ostringstream&) {
    base = sim::find_steady_state(config, streams, options.max_cycles);
    have_base = true;
  });
  if (!have_base) return report;

  const auto p = static_cast<i64>(streams.size());

  // --- Capacity bounds ----------------------------------------------------
  runner.run("bandwidth_bounds", [&](std::ostringstream& fail) {
    i64 total = 0;
    for (i64 g : base.grants_in_period) total += g;
    if (total > p * base.period) {
      fail << "b_eff " << rational_str(base.bandwidth) << " exceeds the port bound " << p;
      return;
    }
    if (total * nc > m * base.period) {
      fail << "b_eff " << rational_str(base.bandwidth) << " exceeds bank capacity m/nc = "
           << rational_str(Rational{m, nc});
      return;
    }
    Rational share_sum;
    for (const auto& share : base.per_port) share_sum += share;
    if (share_sum != base.bandwidth) {
      fail << "per-port shares sum to " << rational_str(share_sum) << ", not b_eff "
           << rational_str(base.bandwidth);
    }
  });

  // --- Windowed measurement over whole periods equals the rational -------
  runner.run("windowed_measurement", [&](std::ostringstream& fail) {
    const i64 window = base.period * 8;
    const double measured = sim::measure_bandwidth(config, streams, base.transient_cycles,
                                                   window);
    if (std::abs(measured - base.bandwidth.to_double()) > 1e-9) {
      fail << "windowed average " << measured << " over " << window
           << " periods vs exact " << rational_str(base.bandwidth);
    }
  });

  // --- Start-bank translation: relabeling banks is a no-op ---------------
  // For the cyclic section mapping any rotation c is a consistent
  // relabeling of banks *and* sections; for the consecutive mapping the
  // rotation must shift whole sections, i.e. c must be a multiple of m/s.
  if (m >= 2) {
    i64 c = 0;
    if (config.mapping == sim::SectionMapping::cyclic || config.sections == 1) {
      c = 1 + mod_norm(nc + p, m - 1);
    } else if (m / config.sections < m) {
      c = m / config.sections;
    }
    if (c > 0 && c < m) {
      const i64 shift = c;
      runner.run("translation_invariance", [&](std::ostringstream& fail) {
        std::vector<sim::StreamConfig> shifted = streams;
        for (auto& s : shifted) {
          if (s.has_pattern()) {
            for (i64& bank : s.bank_pattern) bank = mod_norm(bank + shift, m);
          } else {
            s.start_bank = mod_norm(s.start_bank + shift, m);
          }
        }
        const sim::SteadyState moved = sim::find_steady_state(config, shifted,
                                                              options.max_cycles);
        if (moved.bandwidth != base.bandwidth || moved.per_port != base.per_port ||
            moved.period != base.period ||
            moved.conflicts_in_period.total() != base.conflicts_in_period.total()) {
          fail << "shifting every start bank by " << shift << " changed b_eff from "
               << rational_str(base.bandwidth) << " to " << rational_str(moved.bandwidth);
        }
      });
    }
  }

  // --- Global start-cycle shift: delaying everything is a no-op ----------
  runner.run("time_shift_invariance", [&](std::ostringstream& fail) {
    // Under cyclic priority the rotation advances from cycle 0 regardless
    // of stream starts, so shift by a whole number of rotations.
    const i64 t0 = config.priority == sim::PriorityRule::cyclic ? p : 3;
    std::vector<sim::StreamConfig> delayed = streams;
    for (auto& s : delayed) s.start_cycle += t0;
    const sim::SteadyState moved = sim::find_steady_state(config, delayed, options.max_cycles);
    if (moved.bandwidth != base.bandwidth || moved.per_port != base.per_port ||
        moved.period != base.period) {
      fail << "delaying every start cycle by " << t0 << " changed b_eff from "
           << rational_str(base.bandwidth) << " to " << rational_str(moved.bandwidth);
    }
  });

  // --- Pair theorems (canonical two-stream flat configuration only) ------
  if (!canonical_pair(config, streams) || m > options.max_sweep_banks) return report;
  const i64 d1 = streams[0].distance;
  const i64 d2 = streams[1].distance;
  const bool both_self_free = analytic::self_conflict_free(m, d1, nc) &&
                              analytic::self_conflict_free(m, d2, nc);
  const bool thm3 = both_self_free && analytic::conflict_free_achievable(m, nc, d1, d2);
  const bool barrier_shape = m % d1 == 0 && d2 > d1 && both_self_free;
  const bool thm5 = barrier_shape && analytic::barrier_possible(m, nc, d1, d2) &&
                    analytic::double_conflict_impossible(m, nc, d1, d2);
  const bool unique = barrier_shape && !analytic::conflict_free_achievable(m, nc, d1, d2) &&
                      !analytic::disjoint_access_sets_achievable(m, d1, d2) &&
                      analytic::unique_barrier(m, nc, d1, d2, /*stream1_priority=*/true);
  if (!thm3 && !thm5 && !unique) return report;

  if (thm3) report.ran.push_back("theorem3_synchronization");
  if (thm5) report.ran.push_back("theorem5_no_double_conflict");
  if (unique) report.ran.push_back("unique_barrier_bandwidth");
  const Rational eq29 = analytic::barrier_bandwidth(d1, d2);
  for (i64 b2 = 0; b2 < m; ++b2) {
    sim::SteadyState ss;
    try {
      ss = sim::find_steady_state(config, sim::two_streams(0, d1, b2, d2), options.max_cycles);
    } catch (const std::exception& e) {
      report.failures.push_back({"steady_state_detection", std::string{"offset sweep b2="} +
                                                               std::to_string(b2) + ": " +
                                                               e.what()});
      return report;
    }
    std::ostringstream at;
    at << " (m=" << m << " nc=" << nc << " d1=" << d1 << " d2=" << d2 << " b2=" << b2 << ")";
    if (thm3 && ss.bandwidth != Rational{2}) {
      report.failures.push_back(
          {"theorem3_synchronization",
           "eq. 12 holds but offset converged to b_eff " + rational_str(ss.bandwidth) + at.str()});
      break;
    }
    if (thm5 && !ss.port_conflict_free(0) && !ss.port_conflict_free(1)) {
      report.failures.push_back(
          {"theorem5_no_double_conflict", "mutual delays in the steady cycle" + at.str()});
      break;
    }
    if (unique && ss.bandwidth != eq29) {
      report.failures.push_back(
          {"unique_barrier_bandwidth", "expected eq. 29 b_eff " + rational_str(eq29) +
                                           ", simulated " + rational_str(ss.bandwidth) +
                                           at.str()});
      break;
    }
  }
  return report;
}

}  // namespace vpmem::check
