#include "relogic/sim/monitor.hpp"

namespace relogic::sim {

std::string to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kGlitch:
      return "glitch";
    case ViolationKind::kDriveConflict:
      return "drive-conflict";
    case ViolationKind::kStateDivergence:
      return "state-divergence";
  }
  return "?";
}

void GlitchMonitor::watch(fabric::NodeId node, std::string label) {
  watched_[node] = Watch{std::move(label), window_, 0};
  filter_ |= std::uint64_t{1} << (node & 63u);
}

void GlitchMonitor::unwatch(fabric::NodeId node) {
  if (watched_.erase(node) == 0) return;
  filter_ = 0;
  for (const auto& [id, w] : watched_)
    filter_ |= std::uint64_t{1} << (id & 63u);
}

void GlitchMonitor::record_filtered(fabric::NodeId node, SimTime time) {
  auto it = watched_.find(node);
  if (it == watched_.end()) return;
  Watch& w = it->second;
  ++transitions_;
  if (w.window != window_) {
    w.window = window_;
    w.transitions = 0;
  }
  if (++w.transitions > 1) {
    violations_.push_back(Violation{
        ViolationKind::kGlitch, time, node,
        w.label + " transitioned " + std::to_string(w.transitions) +
            " times within one clock window"});
  }
}

int GlitchMonitor::count(ViolationKind kind) const {
  int n = 0;
  for (const auto& v : violations_)
    if (v.kind == kind) ++n;
  return n;
}

}  // namespace relogic::sim
