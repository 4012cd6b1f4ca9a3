#include "vpmem/sim/steady_state.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "vpmem/sim/memory_system.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::sim {

namespace {

using u64 = std::uint64_t;

/// Every state before t = kDense enters the fingerprint table; past it only
/// the states at t = kDense * 2^j do, so the table never holds many more
/// than kDense entries, whatever the transient and period.
constexpr i64 kDense = i64{1} << 15;

/// SplitMix64's finalizer: a bijection on 64-bit words that scatters bits.
constexpr u64 mix(u64 x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Busy banks are hashed as the sum of h(bank) * R^remaining (mod 2^64),
/// so one clock period scales the whole sum by R^-1.  R is odd, hence
/// invertible; Newton's iteration doubles the correct low bits each round.
constexpr u64 kR = 0x9e3779b97f4a7c15ULL;
constexpr u64 inverse(u64 r) noexcept {
  u64 x = r;  // correct to 3 bits for odd r
  for (int i = 0; i < 5; ++i) x *= 2 - r * x;
  return x;
}
constexpr u64 kRInverse = inverse(kR);
static_assert(kR * kRInverse == 1);

/// Open-addressing table of (fingerprint, t) for the states a walk keeps.
/// Entry i holds the state at time_of(i): every t < kDense, then
/// kDense * 2^j.  Duplicate fingerprints are allowed.  A 16-bit slot holds
/// an entry index + 1 (0 = empty); the fingerprints themselves are kept
/// per entry, for matching and rehashing.  One table serves every call on
/// a thread: reset() clears only the small initial slot array, which
/// doubles in place as entries arrive.  Both arrays reserve their cap
/// once, so short walks pay neither a large clear nor page faults, and
/// long ones no reallocation.
class FingerprintTable {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  [[nodiscard]] static i64 time_of(std::size_t entry) noexcept {
    const auto i = static_cast<i64>(entry);
    return i < kDense ? i : kDense << (i - kDense);
  }

  void reset() {
    fps_.clear();
    fps_.reserve(kMaxEntries);
    slots_.reserve(kMaxSlots);
    slots_.assign(kMinSlots, 0);
  }

  /// Calls `accept(entry)` on each entry whose fingerprint is `fp` and
  /// returns the first one accepted.  Otherwise returns npos and, if
  /// `keep`, adds `fp` as the next entry.
  template <class Accept>
  std::size_t find_or_keep(u64 fp, bool keep, Accept&& accept) {
    if (keep && 2 * (fps_.size() + 1) > slots_.size() && slots_.size() < kMaxSlots) {
      slots_.assign(2 * slots_.size(), 0);
      for (std::size_t i = 0; i < fps_.size(); ++i) {
        slots_[hole(fps_[i])] = static_cast<std::uint16_t>(i + 1);
      }
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = fp & mask;
    for (; slots_[pos] != 0; pos = (pos + 1) & mask) {
      const std::size_t entry = slots_[pos] - 1U;
      if (fps_[entry] == fp && accept(entry)) return entry;
    }
    if (keep) {
      fps_.push_back(fp);
      slots_[pos] = static_cast<std::uint16_t>(fps_.size());
    }
    return npos;
  }

 private:
  static constexpr std::size_t kMinSlots = 256;
  /// Half-full at kDense entries; the few sparse entries past it fit.
  static constexpr std::size_t kMaxSlots = 2 * static_cast<std::size_t>(kDense);
  /// The dense entries plus one sparse entry per doubling of an i64 time.
  static constexpr std::size_t kMaxEntries = static_cast<std::size_t>(kDense) + 64;
  static_assert(kMaxEntries < 0xffff, "entry indices must fit 16 bits");

  /// The first free slot on fp's probe sequence.
  [[nodiscard]] std::size_t hole(u64 fp) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = fp & mask;
    while (slots_[pos] != 0) pos = (pos + 1) & mask;
    return pos;
  }

  std::vector<std::uint16_t> slots_;
  std::vector<u64> fps_;
};

/// A 64-bit fingerprint of exactly the fields same_state() compares for a
/// plan-free system, kept up to date as one walker steps: equal states
/// always have equal fingerprints.  It reads only the walker's per-port
/// grant counters, so a step costs O(p) plus O(1) per bank granted or
/// freed, with no division and nothing added to MemorySystem::step().
///   - Port i's phase_of() moves by one stride (or one pattern position)
///     per grant; the ports enter as the sum of phase_i * K_i for odd
///     per-port constants K_i.  Start waits are folded into one term,
///     max(0, latest start - t): it is positive only while no state can
///     recur.
///   - The priority rotation rr mod p counts up under the cyclic rule and
///     stays 0 under the fixed one.
///   - A bank granted at t' stays busy for t' + nc - now periods.  The busy
///     banks enter as the sum of h(bank) * R^remaining, which one period
///     scales by R^-1; a FIFO of grants drops each bank when it frees.
class Fingerprint {
 public:
  void reset(const MemorySystem& sys) {
    const MemoryConfig& config = sys.config();
    cyclic_ = config.priority == PriorityRule::cyclic;
    ports_.clear();
    ports_sum_ = 0;
    i64 latest_start = 0;
    for (std::size_t i = 0; i < sys.port_count(); ++i) {
      const StreamConfig& s = sys.stream(i);
      Port port;
      port.grants = sys.port_stats(i).grants;
      if (s.has_pattern()) {
        port.pattern = s.bank_pattern.data();
        port.phase = config.banks;
        port.stride = 1;
        port.end = config.banks + static_cast<i64>(s.bank_pattern.size());
        port.span = static_cast<i64>(s.bank_pattern.size());
      } else {
        port.phase = s.start_bank;
        port.stride = mod_norm(s.distance, config.banks);
        port.end = config.banks;
        port.span = config.banks;
      }
      const u64 k = mix(i) | 1;
      port.stride_term = static_cast<u64>(port.stride) * k;
      port.span_term = static_cast<u64>(port.span) * k;
      ports_sum_ += static_cast<u64>(port.phase) * k;
      latest_start = std::max(latest_start, s.start_cycle);
      ports_.push_back(port);
    }
    latest_start_ = latest_start;
    wait_ = latest_start;
    rr_ = 0;
    cycle_ = config.bank_cycle;
    fresh_scale_ = 1;
    for (i64 k = 1; k < cycle_; ++k) fresh_scale_ *= kR;
    busy_sum_ = 0;
    // At most min(m, p (nc - 1)) banks stay busy, plus one step's grants.
    const auto ports = static_cast<i64>(ports_.size());
    const auto needed =
        static_cast<std::size_t>(std::min(config.banks, config.bank_cycle) * ports + ports + 1);
    if (busy_.size() < needed) busy_.resize(std::bit_ceil(needed));
    busy_head_ = 0;
    busy_tail_ = 0;
  }

  /// Account for the step `sys` just took.
  void advance(const MemorySystem& sys) {
    const i64 now = sys.now();
    busy_sum_ *= kRInverse;
    const std::size_t mask = busy_.size() - 1;
    while (busy_head_ != busy_tail_ && busy_[busy_head_ & mask].free_at <= now) {
      busy_sum_ -= busy_[busy_head_++ & mask].hash;
    }
    for (std::size_t i = 0; i < ports_.size(); ++i) {
      Port& port = ports_[i];
      const i64 grants = sys.port_stats(i).grants;
      if (grants == port.grants) continue;
      port.grants = grants;
      if (cycle_ > 1) {
        const i64 bank =
            port.pattern != nullptr ? port.pattern[port.phase - port.end + port.span] : port.phase;
        const u64 hash = mix(static_cast<u64>(bank));
        busy_sum_ += hash * fresh_scale_;
        busy_[busy_tail_++ & mask] = {now - 1 + cycle_, hash};
      }
      port.phase += port.stride;
      ports_sum_ += port.stride_term;
      if (port.phase >= port.end) {
        port.phase -= port.span;
        ports_sum_ -= port.span_term;
      }
    }
    if (cyclic_ && !ports_.empty() && ++rr_ == static_cast<i64>(ports_.size())) rr_ = 0;
    if (wait_ > 0) wait_ = std::max<i64>(0, latest_start_ - now);
  }

  [[nodiscard]] u64 value() const noexcept {
    return mix(ports_sum_ + busy_sum_ * 0xc2b2ae3d27d4eb4fULL +
               static_cast<u64>(rr_) * 0x165667b19e3779f9ULL +
               static_cast<u64>(wait_) * 0x27d4eb2f165667c5ULL);
  }

 private:
  struct Port {
    const i64* pattern = nullptr;  ///< bank pattern, or nullptr for an affine stream
    i64 phase = 0;   ///< phase_of().first, in [end - span, end)
    i64 stride = 0;  ///< phase step per grant
    i64 end = 0;
    i64 span = 0;
    u64 stride_term = 0;  ///< stride * K_i
    u64 span_term = 0;    ///< span * K_i
    i64 grants = 0;       ///< grant counter at the last advance
  };
  struct Grant {
    i64 free_at;  ///< the bank is busy while now < free_at
    u64 hash;     ///< h(bank)
  };

  bool cyclic_ = false;
  std::vector<Port> ports_;
  u64 ports_sum_ = 0;
  i64 latest_start_ = 0;
  i64 wait_ = 0;
  i64 rr_ = 0;
  i64 cycle_ = 1;
  u64 fresh_scale_ = 1;      ///< R^(nc - 1): a grant's remaining time after its step
  u64 busy_sum_ = 0;         ///< sum of h(bank) * R^remaining over busy banks
  std::vector<Grant> busy_;  ///< ring of grants by free_at, [head, tail) mod size
  std::size_t busy_head_ = 0;
  std::size_t busy_tail_ = 0;
};

PortStats delta(const PortStats& later, const PortStats& earlier) {
  PortStats d;
  d.grants = later.grants - earlier.grants;
  d.bank_conflicts = later.bank_conflicts - earlier.bank_conflicts;
  d.simultaneous_conflicts = later.simultaneous_conflicts - earlier.simultaneous_conflicts;
  d.section_conflicts = later.section_conflicts - earlier.section_conflicts;
  d.fault_conflicts = later.fault_conflicts - earlier.fault_conflicts;
  d.first_grant_cycle = earlier.last_grant_cycle;
  d.last_grant_cycle = later.last_grant_cycle;
  return d;
}

[[noreturn]] void no_cycle() {
  throw std::runtime_error{"find_steady_state: no cyclic state within max_cycles"};
}

}  // namespace

SteadyState find_steady_state(const MemoryConfig& config,
                              const std::vector<StreamConfig>& streams, i64 max_cycles) {
  for (const auto& s : streams) {
    if (s.length != kInfiniteLength) {
      throw Error{ErrorCode::config_invalid, "find_steady_state: all streams must be infinite"};
    }
  }
  const auto wall_start = std::chrono::steady_clock::now();
  // One walker steps from t = 0 and looks each state's fingerprint up
  // among the kept ones.  A hit on the state at time a is confirmed by
  // same_state() on `probe`, a second system stepped from t = 0 to a.
  MemorySystem walker{config, streams};
  std::optional<MemorySystem> probe;
  const auto probe_at = [&](i64 t) -> MemorySystem& {
    if (!probe || probe->now() > t) probe.emplace(config, streams);
    probe->run(t - probe->now(), /*stop_when_finished=*/false);
    return *probe;
  };
  thread_local FingerprintTable table;
  thread_local Fingerprint fingerprint;
  table.reset();
  fingerprint.reset(walker);

  // A hit on the dense prefix comes at exactly mu + lambda.  When mu >=
  // kDense the first kept state on the cycle lies below 2 mu, so a repeat
  // with mu + lambda <= max_cycles is seen by t = 2 * max_cycles.
  constexpr i64 kMax = std::numeric_limits<i64>::max();
  const i64 walk_cap = max_cycles < kDense ? max_cycles
                       : max_cycles > kMax / 2 ? kMax
                                               : 2 * max_cycles;
  i64 next_kept = kDense;
  std::size_t entry = FingerprintTable::npos;
  for (;;) {
    const i64 t = walker.now();
    const bool keep = t < kDense || t == next_kept;
    if (t == next_kept) next_kept = next_kept > kMax / 2 ? kMax : 2 * next_kept;
    entry = table.find_or_keep(fingerprint.value(), keep, [&](std::size_t e) {
      return probe_at(FingerprintTable::time_of(e)).same_state(walker);
    });
    if (entry != FingerprintTable::npos) break;
    if (t >= walk_cap) no_cycle();
    walker.step();
    fingerprint.advance(walker);
  }

  // state(a) == state(walker.now()) for a = time_of(entry).  A dense a is
  // the first repeat: the probe sits at mu and the walker at mu + lambda.
  // A sparse a only bounds mu to (a', a] for the previous kept time a', so
  // two copies lambda apart walk from a' + 1 to the first match.
  const i64 period = walker.now() - probe->now();
  if (static_cast<i64>(entry) >= kDense) {
    probe_at(FingerprintTable::time_of(entry - 1) + 1);
    walker = *probe;
    walker.run(period, /*stop_when_finished=*/false);
    while (!probe->same_state(walker)) {
      probe->step();
      walker.step();
    }
  }
  if (walker.now() > max_cycles) no_cycle();
  const MemorySystem& earlier = *probe;

  SteadyState out;
  out.transient_cycles = earlier.now();
  out.period = period;
  const std::size_t ports = walker.port_count();
  out.grants_in_period.reserve(ports);
  i64 total_grants = 0;
  for (std::size_t i = 0; i < ports; ++i) {
    const PortStats d = delta(walker.port_stats(i), earlier.port_stats(i));
    out.grants_in_period.push_back(d.grants);
    total_grants += d.grants;
    out.per_port.push_back(Rational{d.grants, out.period});
    out.conflicts_in_period.bank += d.bank_conflicts;
    out.conflicts_in_period.simultaneous += d.simultaneous_conflicts;
    out.conflicts_in_period.section += d.section_conflicts;
    out.conflicts_in_period.fault += d.fault_conflicts;
    out.per_port_delta.push_back(d);
  }
  out.bandwidth = Rational{total_grants, out.period};
  out.cycles_simulated = walker.now();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return out;
}

OffsetSweep sweep_start_offsets(const MemoryConfig& config, i64 d1, i64 d2, bool same_cpu,
                                i64 max_cycles) {
  OffsetSweep sweep;
  sweep.by_offset.reserve(static_cast<std::size_t>(config.banks));
  for (i64 b2 = 0; b2 < config.banks; ++b2) {
    const SteadyState ss =
        find_steady_state(config, two_streams(0, d1, b2, d2, same_cpu), max_cycles);
    sweep.cycles_simulated += ss.cycles_simulated;
    sweep.wall_seconds += ss.wall_seconds;
    sweep.by_offset.push_back(ss.bandwidth);
    if (b2 == 0) {
      sweep.min_bandwidth = ss.bandwidth;
      sweep.max_bandwidth = ss.bandwidth;
    } else {
      sweep.min_bandwidth = std::min(sweep.min_bandwidth, ss.bandwidth);
      sweep.max_bandwidth = std::max(sweep.max_bandwidth, ss.bandwidth);
    }
  }
  return sweep;
}

}  // namespace vpmem::sim
