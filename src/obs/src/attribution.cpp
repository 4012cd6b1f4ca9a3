#include "vpmem/obs/attribution.hpp"

#include <algorithm>
#include <stdexcept>

namespace vpmem::obs {

namespace {

Json json_of_totals(const sim::ConflictTotals& t) {
  Json out = Json::object();
  out["bank"] = t.bank;
  out["simultaneous"] = t.simultaneous;
  out["section"] = t.section;
  out["fault"] = t.fault;
  out["total"] = t.total();
  return out;
}

}  // namespace

ConflictAttribution::ConflictAttribution(const sim::MemoryConfig& config,
                                         AttributionOptions options)
    : config_{config}, options_{options} {
  if (options_.window <= 0) throw std::invalid_argument{"ConflictAttribution: window must be > 0"};
}

void ConflictAttribution::add_ports(std::size_t port) {
  ports_.resize(port + 1);
  for (auto& f : ports_) {
    if (f.by_bank_kind.empty()) {
      f.by_bank_kind.assign(static_cast<std::size_t>(config_.banks) * sim::kConflictKinds, 0);
      f.bank_in_episode.assign(static_cast<std::size_t>(config_.banks), 0);
    }
  }
}

void ConflictAttribution::open_episode(PortFold& fold, const sim::Event& e) {
  close_episode(fold);
  fold.episode_open = true;
  fold.open.port = e.port;
  fold.open.onset = e.cycle;
  fold.open_kinds = {};
}

void ConflictAttribution::join_episode(PortFold& fold, i64 bank) {
  fold.bank_in_episode[static_cast<std::size_t>(bank)] = 1;
  fold.open.banks.push_back(bank);  // sorted when the episode closes
}

void ConflictAttribution::close_episode(PortFold& fold) {
  if (!fold.episode_open) return;
  fold.episode_open = false;
  fold.open.kinds.bank = fold.open_kinds[0];
  fold.open.kinds.simultaneous = fold.open_kinds[1];
  fold.open.kinds.section = fold.open_kinds[2];
  fold.open.kinds.fault = fold.open_kinds[3];
  std::sort(fold.open.banks.begin(), fold.open.banks.end());
  for (const i64 bank : fold.open.banks) {
    fold.bank_in_episode[static_cast<std::size_t>(bank)] = 0;
  }
  if (episodes_.size() < kMaxEpisodes) {
    // Keep the global list in onset order even though ports close
    // episodes independently.
    auto it = std::upper_bound(episodes_.begin(), episodes_.end(), fold.open,
                               [](const BarrierEpisode& a, const BarrierEpisode& b) {
                                 return a.onset < b.onset;
                               });
    episodes_.insert(it, fold.open);
  } else {
    ++episodes_truncated_;
  }
  // Reset for the next episode but keep the banks buffer's capacity: a
  // long run opens and closes tens of thousands of episodes per port.
  std::vector<i64> banks = std::move(fold.open.banks);
  banks.clear();
  fold.open = BarrierEpisode{};
  fold.open.banks = std::move(banks);
}

void ConflictAttribution::reject_after_finalize() {
  throw std::logic_error{"ConflictAttribution: event folded after finalize()"};
}

void ConflictAttribution::enter_window(i64 cycle) {
  const auto w = static_cast<std::size_t>(cycle / options_.window);
  if (w >= window_grants_.size()) window_grants_.resize(w + 1, 0);
  cur_window_ = w;
  window_end_ = (static_cast<i64>(w) + 1) * options_.window;
}

void ConflictAttribution::finalize(i64 end_cycle) {
  if (finalized_) return;
  finalized_ = true;
  end_cycle_ = std::max(end_cycle, last_cycle_ + 1);
  for (auto& fold : ports_) {
    close_episode(fold);
    end_stall(fold);
  }

  // Materialize the b_eff(t) series, covering [0, end_cycle) even where
  // no grants landed.
  const i64 windows = (end_cycle_ + options_.window - 1) / options_.window;
  series_.clear();
  series_.reserve(static_cast<std::size_t>(std::max<i64>(windows, 0)));
  for (i64 w = 0; w < windows; ++w) {
    BandwidthSample s;
    s.start = w * options_.window;
    s.cycles = std::min(options_.window, end_cycle_ - s.start);
    s.grants = static_cast<std::size_t>(w) < window_grants_.size()
                   ? window_grants_[static_cast<std::size_t>(w)]
                   : 0;
    series_.push_back(s);
  }
}

i64 ConflictAttribution::lost_cycles(std::size_t port, i64 bank, sim::ConflictKind kind) const {
  if (port >= ports_.size()) return 0;
  if (bank < 0 || bank >= config_.banks) {
    throw std::out_of_range{"ConflictAttribution::lost_cycles: bank out of range"};
  }
  return ports_[port].by_bank_kind[static_cast<std::size_t>(bank) * sim::kConflictKinds +
                                   static_cast<std::size_t>(kind)];
}

i64 ConflictAttribution::lost_cycles(std::size_t port, sim::ConflictKind kind) const {
  if (port >= ports_.size()) return 0;
  const auto& cells = ports_[port].by_bank_kind;
  i64 sum = 0;
  for (std::size_t i = static_cast<std::size_t>(kind); i < cells.size();
       i += sim::kConflictKinds) {
    sum += cells[i];
  }
  return sum;
}

sim::ConflictTotals ConflictAttribution::totals(std::size_t port) const {
  sim::ConflictTotals t;
  t.bank = lost_cycles(port, sim::ConflictKind::bank);
  t.simultaneous = lost_cycles(port, sim::ConflictKind::simultaneous);
  t.section = lost_cycles(port, sim::ConflictKind::section);
  t.fault = lost_cycles(port, sim::ConflictKind::fault);
  return t;
}

i64 ConflictAttribution::blocked_by(std::size_t port, std::size_t blocker) const {
  if (port >= ports_.size()) return 0;
  const auto& by = ports_[port].by_blocker;
  return blocker < by.size() ? by[blocker] : 0;
}

Json ConflictAttribution::to_json() const {
  Json out = Json::object();
  out["schema"] = kAttributionSchema;
  out["window"] = options_.window;
  out["cycles"] = end_cycle_;

  sim::ConflictTotals grand;
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    const sim::ConflictTotals t = totals(p);
    grand.bank += t.bank;
    grand.simultaneous += t.simultaneous;
    grand.section += t.section;
    grand.fault += t.fault;
  }
  out["lost_cycles"] = json_of_totals(grand);
  out["grants"] = total_grants_;

  Json per_port = Json::array();
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    const PortFold& fold = ports_[p];
    Json entry = Json::object();
    entry["port"] = p;
    entry["lost_cycles"] = json_of_totals(totals(p));
    Json by_bank = Json::array();
    for (i64 bank = 0; bank < config_.banks; ++bank) {
      const std::size_t base = static_cast<std::size_t>(bank) * sim::kConflictKinds;
      const i64 b = fold.by_bank_kind[base];
      const i64 s = fold.by_bank_kind[base + 1];
      const i64 sec = fold.by_bank_kind[base + 2];
      const i64 flt = fold.by_bank_kind[base + 3];
      if (b + s + sec + flt == 0) continue;  // sparse: most banks never stall a stream
      Json cell = Json::object();
      cell["bank"] = bank;
      cell["bank_conflicts"] = b;
      cell["simultaneous_conflicts"] = s;
      cell["section_conflicts"] = sec;
      cell["fault_conflicts"] = flt;
      by_bank.push_back(std::move(cell));
    }
    entry["by_bank"] = std::move(by_bank);
    Json blame = Json::array();
    for (std::size_t b = 0; b < fold.by_blocker.size(); ++b) {
      if (fold.by_blocker[b] == 0) continue;
      Json cell = Json::object();
      cell["port"] = b;
      cell["cycles"] = fold.by_blocker[b];
      blame.push_back(std::move(cell));
    }
    entry["blocked_by"] = std::move(blame);
    per_port.push_back(std::move(entry));
  }
  out["per_port"] = std::move(per_port);

  Json episodes = Json::array();
  for (const BarrierEpisode& ep : episodes_) {
    Json entry = Json::object();
    entry["port"] = ep.port;
    entry["onset"] = ep.onset;
    entry["end"] = ep.last;
    entry["length"] = ep.length();
    entry["lost_cycles"] = ep.lost_cycles;
    Json banks = Json::array();
    for (const i64 b : ep.banks) banks.push_back(b);
    entry["banks"] = std::move(banks);
    entry["kinds"] = json_of_totals(ep.kinds);
    episodes.push_back(std::move(entry));
  }
  out["episodes"] = std::move(episodes);
  out["episodes_truncated"] = episodes_truncated_;

  Json series = Json::array();
  for (const BandwidthSample& s : series_) {
    Json sample = Json::object();
    sample["start"] = s.start;
    sample["cycles"] = s.cycles;
    sample["grants"] = s.grants;
    sample["b_eff"] = s.b_eff();
    series.push_back(std::move(sample));
  }
  Json beff = Json::object();
  beff["window"] = options_.window;
  beff["series"] = std::move(series);
  out["b_eff_windowed"] = std::move(beff);
  return out;
}

}  // namespace vpmem::obs
