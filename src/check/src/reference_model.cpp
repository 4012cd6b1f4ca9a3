#include "vpmem/check/reference_model.hpp"

#include <stdexcept>

#include "vpmem/util/error.hpp"

namespace vpmem::check {

namespace {
constexpr std::size_t kNobody = static_cast<std::size_t>(-1);
}

std::string to_string(FaultKind fault) {
  switch (fault) {
    case FaultKind::none: return "none";
    case FaultKind::ignore_path_conflict: return "ignore-path-conflict";
    case FaultKind::short_bank_busy: return "short-bank-busy";
    case FaultKind::priority_inversion: return "priority-inversion";
    case FaultKind::misclassify_simultaneous: return "misclassify-simultaneous";
    case FaultKind::drop_rotation: return "drop-rotation";
  }
  return "?";
}

FaultKind fault_from_string(const std::string& name) {
  for (FaultKind f : {FaultKind::none, FaultKind::ignore_path_conflict,
                      FaultKind::short_bank_busy, FaultKind::priority_inversion,
                      FaultKind::misclassify_simultaneous, FaultKind::drop_rotation}) {
    if (to_string(f) == name) return f;
  }
  throw Error{ErrorCode::config_invalid, "fault_from_string: unknown fault '" + name + "'"};
}

const std::vector<FaultKind>& all_faults() {
  static const std::vector<FaultKind> kFaults = {
      FaultKind::ignore_path_conflict, FaultKind::short_bank_busy,
      FaultKind::priority_inversion, FaultKind::misclassify_simultaneous,
      FaultKind::drop_rotation};
  return kFaults;
}

ReferenceModel::ReferenceModel(sim::MemoryConfig config, std::vector<sim::StreamConfig> streams,
                               FaultKind fault, sim::FaultPlan plan)
    : config_{config}, streams_{std::move(streams)}, fault_{fault}, plan_{std::move(plan)} {
  config_.validate();
  for (const auto& s : streams_) s.validate(config_);
  plan_.validate(config_);
  issued_.assign(streams_.size(), 0);
  max_service_length_ = config_.bank_cycle;
  for (const auto& e : plan_.events) {
    if (e.kind == sim::FaultEvent::Kind::bank_slow) {
      max_service_length_ = std::max(max_service_length_, e.value);
    }
  }
}

bool ReferenceModel::ref_bank_online(i64 bank, i64 t) const {
  bool online = true;
  for (const auto& e : plan_.events) {
    if (e.cycle > t) break;
    if (e.bank != bank) continue;
    if (e.kind == sim::FaultEvent::Kind::bank_offline) online = false;
    if (e.kind == sim::FaultEvent::Kind::bank_online) online = true;
  }
  return online;
}

i64 ReferenceModel::ref_bank_nc(i64 bank, i64 t) const {
  i64 nc = config_.bank_cycle;
  for (const auto& e : plan_.events) {
    if (e.cycle > t) break;
    if (e.kind == sim::FaultEvent::Kind::bank_slow && e.bank == bank) nc = e.value;
  }
  return nc;
}

bool ReferenceModel::ref_bank_stalled(i64 bank, i64 t) const {
  for (const auto& e : plan_.events) {
    if (e.cycle > t) break;
    if (e.kind == sim::FaultEvent::Kind::bank_stall && e.bank == bank &&
        t < e.cycle + e.value) {
      return true;
    }
  }
  return false;
}

bool ReferenceModel::ref_path_down(i64 cpu, i64 section, i64 t) const {
  bool down = false;
  for (const auto& e : plan_.events) {
    if (e.cycle > t) break;
    if (e.cpu != cpu || e.section != section) continue;
    if (e.kind == sim::FaultEvent::Kind::path_offline) down = true;
    if (e.kind == sim::FaultEvent::Kind::path_online) down = false;
  }
  return down;
}

i64 ReferenceModel::ref_effective_bank(std::size_t idx, i64 t) const {
  const sim::StreamConfig& s = streams_[idx];
  const i64 raw = s.bank_of(issued_[idx], config_.banks);
  if (plan_.policy != sim::FaultPolicy::remap_spare) return raw;
  std::vector<i64> surviving;
  for (i64 b = 0; b < config_.banks; ++b) {
    if (ref_bank_online(b, t)) surviving.push_back(b);
  }
  const i64 alive = static_cast<i64>(surviving.size());
  if (alive == config_.banks || alive == 0) return raw;
  const i64 slot = s.has_pattern() ? mod_norm(raw, alive)
                                   : mod_norm(s.start_bank + issued_[idx] * s.distance, alive);
  return surviving[static_cast<std::size_t>(slot)];
}

i64 ReferenceModel::service_length(i64 bank, i64 grant_cycle) const {
  const i64 nc = ref_bank_nc(bank, grant_cycle);
  return fault_ == FaultKind::short_bank_busy ? std::max<i64>(1, nc - 1) : nc;
}

std::size_t ReferenceModel::bank_active_from_earlier(i64 bank, i64 t) const {
  // Log cycles are non-decreasing, so scanning backwards can stop at the
  // first event too old to still occupy a bank even at the longest
  // possible service time.
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->cycle + max_service_length_ <= t) break;
    if (it->type == sim::Event::Type::grant && it->bank == bank && it->cycle < t &&
        it->cycle + service_length(bank, it->cycle) > t) {
      return it->port;
    }
  }
  return kNobody;
}

std::size_t ReferenceModel::same_period_bank_winner(i64 bank, i64 t) const {
  for (auto it = log_.rbegin(); it != log_.rend() && it->cycle == t; ++it) {
    if (it->type == sim::Event::Type::grant && it->bank == bank) return it->port;
  }
  return kNobody;
}

std::size_t ReferenceModel::same_period_path_winner(i64 cpu, i64 section, i64 t) const {
  for (auto it = log_.rbegin(); it != log_.rend() && it->cycle == t; ++it) {
    if (it->type == sim::Event::Type::grant && streams_[it->port].cpu == cpu &&
        config_.section_of(it->bank) == section) {
      return it->port;
    }
  }
  return kNobody;
}

std::size_t ReferenceModel::add_stream(const sim::StreamConfig& stream) {
  stream.validate(config_);
  if (stream.start_cycle < now_) {
    throw std::invalid_argument{"ReferenceModel::add_stream: start_cycle lies in the past"};
  }
  streams_.push_back(stream);
  issued_.push_back(0);
  return streams_.size() - 1;
}

void ReferenceModel::step() {
  const i64 t = now_;
  const std::size_t p = streams_.size();
  if (p == 0) {
    ++now_;
    return;
  }
  const bool cyclic = config_.priority == sim::PriorityRule::cyclic;
  const std::size_t first = cyclic ? rr_ % p : 0;

  for (std::size_t i = 0; i < p; ++i) {
    const std::size_t rank = fault_ == FaultKind::priority_inversion ? p - 1 - i : i;
    const std::size_t idx = (first + rank) % p;
    const sim::StreamConfig& s = streams_[idx];
    if (issued_[idx] >= s.length || t < s.start_cycle) continue;

    const i64 bank = ref_effective_bank(idx, t);
    sim::Event ev{.type = sim::Event::Type::conflict,
                  .cycle = t,
                  .port = idx,
                  .bank = bank,
                  .element = issued_[idx],
                  .conflict = sim::ConflictKind::bank,
                  .blocker = idx};

    // Rule 0: an injected fault pins the request before any arbitration —
    // offline target bank, transient stall window, or downed access path.
    // Kind `fault`, blocker = the requester itself.
    if (!ref_bank_online(bank, t) || ref_bank_stalled(bank, t) ||
        ref_path_down(s.cpu, config_.section_of(bank), t)) {
      ev.conflict = sim::ConflictKind::fault;
      log_.push_back(ev);
      continue;
    }

    // Rule 1: the bank was claimed this very period by a higher-priority
    // port — simultaneous bank conflict across CPUs, section conflict
    // within one CPU.
    if (const std::size_t winner = same_period_bank_winner(bank, t); winner != kNobody) {
      ev.blocker = winner;
      ev.conflict = streams_[winner].cpu == s.cpu ? sim::ConflictKind::section
                                                  : sim::ConflictKind::simultaneous;
      if (fault_ == FaultKind::misclassify_simultaneous &&
          ev.conflict == sim::ConflictKind::simultaneous) {
        ev.conflict = sim::ConflictKind::section;
      }
      log_.push_back(ev);
      continue;
    }

    // Rule 2: the bank is still active from a grant in an earlier period;
    // the holder of that grant is the blocker.
    if (const std::size_t holder = bank_active_from_earlier(bank, t); holder != kNobody) {
      ev.conflict = sim::ConflictKind::bank;
      ev.blocker = holder;
      log_.push_back(ev);
      continue;
    }

    // Rule 3: the access path (CPU, section) is occupied this period.
    if (fault_ != FaultKind::ignore_path_conflict) {
      const std::size_t winner = same_period_path_winner(s.cpu, config_.section_of(bank), t);
      if (winner != kNobody) {
        ev.blocker = winner;
        ev.conflict = sim::ConflictKind::section;
        log_.push_back(ev);
        continue;
      }
    }

    ev.type = sim::Event::Type::grant;
    ev.blocker = idx;
    log_.push_back(ev);
    ++issued_[idx];
  }

  ++now_;
  if (cyclic && fault_ != FaultKind::drop_rotation) rr_ = (rr_ + 1) % p;
}

void ReferenceModel::run(i64 cycles) {
  for (i64 t = 0; t < cycles; ++t) step();
}

std::vector<sim::PortStats> ReferenceModel::stats() const {
  std::vector<sim::PortStats> out(streams_.size());
  for (const auto& e : log_) {
    sim::PortStats& st = out[e.port];
    if (e.type == sim::Event::Type::grant) {
      ++st.grants;
      if (st.first_grant_cycle < 0) st.first_grant_cycle = e.cycle;
      st.last_grant_cycle = e.cycle;
      st.current_stall = 0;
      continue;
    }
    switch (e.conflict) {
      case sim::ConflictKind::bank: ++st.bank_conflicts; break;
      case sim::ConflictKind::simultaneous: ++st.simultaneous_conflicts; break;
      case sim::ConflictKind::section: ++st.section_conflicts; break;
      case sim::ConflictKind::fault: ++st.fault_conflicts; break;
    }
    st.longest_stall = std::max(st.longest_stall, ++st.current_stall);
  }
  return out;
}

}  // namespace vpmem::check
