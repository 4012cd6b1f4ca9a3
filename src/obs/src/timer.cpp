#include "vpmem/obs/timer.hpp"

#include <algorithm>
#include <sstream>

namespace vpmem::obs {

void SweepTelemetry::record_point(double wall_seconds, i64 simulated_cycles) {
  const std::scoped_lock lock{mutex_};
  ++points_;
  cycles_ += simulated_cycles;
  total_seconds_ += wall_seconds;
  max_point_seconds_ = std::max(max_point_seconds_, wall_seconds);
}

i64 SweepTelemetry::points() const {
  const std::scoped_lock lock{mutex_};
  return points_;
}

double SweepTelemetry::total_seconds() const {
  const std::scoped_lock lock{mutex_};
  return total_seconds_;
}

i64 SweepTelemetry::simulated_cycles() const {
  const std::scoped_lock lock{mutex_};
  return cycles_;
}

double SweepTelemetry::cycles_per_second() const {
  const std::scoped_lock lock{mutex_};
  return total_seconds_ > 0.0 ? static_cast<double>(cycles_) / total_seconds_ : 0.0;
}

Json SweepTelemetry::to_json() const {
  const std::scoped_lock lock{mutex_};
  Json out = Json::object();
  out["points"] = points_;
  out["wall_seconds"] = total_seconds_;
  out["simulated_cycles"] = cycles_;
  out["cycles_per_second"] =
      total_seconds_ > 0.0 ? static_cast<double>(cycles_) / total_seconds_ : 0.0;
  out["mean_point_seconds"] = points_ == 0 ? 0.0 : total_seconds_ / static_cast<double>(points_);
  out["max_point_seconds"] = max_point_seconds_;
  return out;
}

std::string SweepTelemetry::summary() const {
  const std::scoped_lock lock{mutex_};
  std::ostringstream out;
  out << points_ << " points in " << total_seconds_ << " s";
  if (cycles_ > 0 && total_seconds_ > 0.0) {
    out << " (" << static_cast<double>(cycles_) / total_seconds_ << " simulated cycles/s";
    if (points_ > 0) {
      out << ", mean point " << total_seconds_ / static_cast<double>(points_) * 1e3 << " ms";
    }
    out << ")";
  }
  return out.str();
}

}  // namespace vpmem::obs
