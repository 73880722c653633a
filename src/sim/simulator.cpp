#include "relogic/sim/simulator.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "relogic/common/audit.hpp"
#include "relogic/common/logging.hpp"

namespace relogic::sim {

using fabric::NetId;
using fabric::NodeId;
using fabric::NodeKind;

namespace {

bool is_ff(const fabric::LogicCellConfig& cfg) {
  return cfg.used && cfg.reg == fabric::RegMode::kFF;
}

/// Makes `v`'s membership in a sorted index equal `member`.
template <typename T>
void set_member(std::vector<T>& index, T v, bool member) {
  const auto it = std::lower_bound(index.begin(), index.end(), v);
  const bool present = it != index.end() && *it == v;
  if (member && !present) {
    index.insert(it, v);
  } else if (!member && present) {
    index.erase(it);
  }
}

/// First divergence of a maintained sorted index from its recompute, or
/// an empty string when they agree.
template <typename T>
std::string index_divergence(const std::vector<T>& kept,
                             const std::vector<T>& fresh) {
  const auto [k, f] =
      std::mismatch(kept.begin(), kept.end(), fresh.begin(), fresh.end());
  if (k == kept.end() && f == fresh.end()) return {};
  if (k == kept.end() || (f != fresh.end() && *f < *k))
    return std::to_string(*f) + " missing";
  return std::to_string(*k) + " stale";
}

}  // namespace

FabricSim::FabricSim(fabric::Fabric& fabric, const fabric::DelayModel& dm)
    : fabric_(&fabric), dm_(&dm) {
  const auto& geom = fabric_->geometry();
  const std::size_t tiles = static_cast<std::size_t>(geom.clb_count());
  const std::size_t sites = tiles * geom.cells_per_clb;
  pin_val_.assign(sites, 0);
  x_val_.assign(sites, 0);
  q_val_.assign(sites, 0);
  cfg_.resize(sites);
  pad_val_.assign(tiles * geom.pads_per_tile, kPadUndriven);
  nets_of_out_.resize(sites * 2);

  fabric_->add_listener(this);

  // Adopt whatever is already configured.
  for (int r = 0; r < geom.clb_rows; ++r) {
    for (int c = 0; c < geom.clb_cols; ++c) {
      const ClbCoord clb{r, c};
      for (int k = 0; k < geom.cells_per_clb; ++k) {
        const auto& cfg = fabric_->cell(clb, k);
        const int site = site_index(clb, k);
        cfg_[static_cast<std::size_t>(site)] = cfg;
        if (!cfg.used) continue;
        if (is_ff(cfg)) ff_sites_.push_back(site);
        q_val_[static_cast<std::size_t>(site)] = cfg.init;
        schedule(now_ + dm_->lut_delay,
                 Event{EventKind::kEval, false, 0, site});
      }
    }
  }
  for (NetId n : fabric_->live_nets()) on_net_changed(n);
}

FabricSim::~FabricSim() { fabric_->remove_listener(this); }

int FabricSim::site_index(ClbCoord clb, int cell) const {
  const auto& geom = fabric_->geometry();
  return (clb.row * geom.clb_cols + clb.col) * geom.cells_per_clb + cell;
}

int FabricSim::pad_slot(NodeId pad) const {
  const auto info = fabric_->graph().info(pad);
  RELOGIC_CHECK(info.kind == NodeKind::kPad);
  const auto& geom = fabric_->geometry();
  return (info.tile.row * geom.clb_cols + info.tile.col) * geom.pads_per_tile +
         info.a;
}

const FabricSim::Clock* FabricSim::find_clock(std::uint8_t domain) const {
  for (const auto& c : clocks_) {
    if (c.spec.domain == domain) return &c;
  }
  return nullptr;
}

void FabricSim::add_clock(ClockSpec spec) {
  RELOGIC_CHECK(spec.period > SimTime::zero());
  RELOGIC_CHECK_MSG(find_clock(spec.domain) == nullptr,
                    "clock domain already defined");
  clocks_.push_back(Clock{spec});
  SimTime first = spec.first_edge;
  while (first < now_) first += spec.period;
  schedule(first, Event{EventKind::kClockEdge, false, 0,
                        static_cast<std::int32_t>(clocks_.size() - 1)});
}

bool FabricSim::has_clock(std::uint8_t domain) const {
  return find_clock(domain) != nullptr;
}

SimTime FabricSim::clock_period(std::uint8_t domain) const {
  if (const Clock* c = find_clock(domain)) return c->spec.period;
  throw ContractError("no clock defined for domain " + std::to_string(domain));
}

SimTime FabricSim::next_edge(std::uint8_t domain, SimTime from) const {
  const Clock* clock = find_clock(domain);
  if (clock == nullptr) {
    throw ContractError("no clock defined for domain " +
                        std::to_string(domain));
  }
  const ClockSpec& c = clock->spec;
  if (from <= c.first_edge) return c.first_edge;
  const std::int64_t k =
      (from - c.first_edge).picoseconds() / c.period.picoseconds();
  SimTime t = c.first_edge + c.period * k;
  if (t < from) t += c.period;
  return t;
}

void FabricSim::drive_pad(NodeId pad, bool value) {
  std::uint8_t& v = pad_val_[static_cast<std::size_t>(pad_slot(pad))];
  if (v == pad_state(value)) return;
  v = pad_state(value);
  monitor_.record_transition(pad, now_);
  const auto it = nets_of_pad_.find(pad);
  if (it != nets_of_pad_.end()) propagate(it->second, value, now_);
}

bool FabricSim::pad_value(NodeId pad) const {
  if (pad >= fabric_->graph().node_count() ||
      fabric_->graph().info(pad).kind != NodeKind::kPad)
    return false;
  return pad_val_[static_cast<std::size_t>(pad_slot(pad))] == pad_state(true);
}

void FabricSim::run_until(SimTime t) {
  RELOGIC_CHECK(t >= now_);
  while (!queue_.empty() && queue_.next_time() <= t) {
    now_ = queue_.next_time();
    process(queue_.pop(), now_);
    ++events_processed_;
  }
  now_ = t;
  if constexpr (relogic::audit_enabled()) audit();
}

void FabricSim::run_cycles(int n, std::uint8_t domain) {
  RELOGIC_CHECK(n >= 0);
  SimTime t = now_;
  for (int i = 0; i < n; ++i) t = next_edge(domain, t + SimTime::ps(1));
  run_until(t + clock_period(domain) / 4);
}

bool FabricSim::state_of(ClbCoord clb, int cell) const {
  return q_val_[static_cast<std::size_t>(site_index(clb, cell))];
}

bool FabricSim::comb_of(ClbCoord clb, int cell) const {
  return x_val_[static_cast<std::size_t>(site_index(clb, cell))];
}

bool FabricSim::pin_of(ClbCoord clb, int cell, fabric::CellPort port) const {
  return (pin_val_[static_cast<std::size_t>(site_index(clb, cell))] >>
          static_cast<unsigned>(port) & 1u) != 0;
}

bool FabricSim::net_value(NetId net) const {
  const auto& tree = fabric_->net(net);
  RELOGIC_CHECK_MSG(!tree.sources.empty(), "net has no source");
  return source_pin_value(tree.sources.front());
}

FabricSim::Source FabricSim::decode_source(NodeId pin) const {
  const auto info = fabric_->graph().info(pin);
  switch (info.kind) {
    case NodeKind::kOutPin:
      return Source{pin, site_index(info.tile, info.a) * 2 + info.b, false};
    case NodeKind::kPad:
      return Source{pin, pad_slot(pin), true};
    default:
      throw ContractError("node is not a net source: " + info.to_string());
  }
}

bool FabricSim::source_value(const Source& src) const {
  const auto slot = static_cast<std::size_t>(src.slot);
  if (src.pad) return pad_val_[slot] == pad_state(true);
  return (slot & 1) != 0 ? q_val_[slot / 2] : x_val_[slot / 2];
}

void FabricSim::schedule_sink(const Sink& sink, bool value, SimTime t) {
  schedule(t + sink.delay,
           Event{sink.pad ? EventKind::kPadSet : EventKind::kPinSet, value,
                 sink.port, sink.site, sink.node});
}

void FabricSim::process(const Event& e, SimTime t) {
  switch (e.kind) {
    case EventKind::kPinSet:
      do_pin_set(e.site, e.port, e.node, e.value, t);
      break;
    case EventKind::kPadSet:
      do_pad_set(e.site, e.node, e.value, t);
      break;
    case EventKind::kEval:
      do_eval(e.site, t);
      break;
    case EventKind::kQSet:
      do_q_set(e.site, e.value, t);
      break;
    case EventKind::kClockEdge:
      do_clock_edge(clocks_[static_cast<std::size_t>(e.site)], e.site, t);
      break;
  }
}

void FabricSim::do_pad_set(int slot, NodeId pad, bool value, SimTime t) {
  std::uint8_t& v = pad_val_[static_cast<std::size_t>(slot)];
  const bool old = v == pad_state(true);
  v = pad_state(value);
  if (old != value) monitor_.record_transition(pad, t);
}

void FabricSim::do_pin_set(int site, int port, NodeId node, bool value,
                           SimTime t) {
  std::uint8_t& pins = pin_val_[static_cast<std::size_t>(site)];
  const auto bit = static_cast<std::uint8_t>(1u << port);
  if (((pins & bit) != 0) == value) return;
  pins ^= bit;
  monitor_.record_transition(node, t);

  const auto& cfg = cfg_[static_cast<std::size_t>(site)];
  if (!cfg.used) return;
  if (port < 4) {
    schedule(t + dm_->lut_delay, Event{EventKind::kEval, false, 0, site});
  } else if (port == 4) {
    // CE pin: latch transparency opening captures the current D value.
    if (cfg.reg == fabric::RegMode::kLatch && value) {
      const bool d = cfg.d_src == fabric::DSrc::kBypass
                         ? (pins & kBx) != 0
                         : x_val_[static_cast<std::size_t>(site)];
      schedule(t + dm_->latch_d_to_q, Event{EventKind::kQSet, d, 0, site});
    }
  } else {
    // BX bypass pin: transparent latches in bypass mode follow it.
    if (cfg.reg == fabric::RegMode::kLatch &&
        cfg.d_src == fabric::DSrc::kBypass && (pins & kCe) != 0) {
      schedule(t + dm_->latch_d_to_q,
               Event{EventKind::kQSet, value, 0, site});
    }
  }
}

void FabricSim::do_eval(int site, SimTime t) {
  const auto& cfg = cfg_[static_cast<std::size_t>(site)];
  if (!cfg.used) return;
  // eval() reads the low four bits: I0..I3.
  const bool x = cfg.eval(pin_val_[static_cast<std::size_t>(site)]);
  if (x == x_val_[static_cast<std::size_t>(site)]) return;
  x_val_[static_cast<std::size_t>(site)] = x;
  propagate(nets_of_out_[static_cast<std::size_t>(site) * 2], x, t);
  if (cfg.reg == fabric::RegMode::kLatch &&
      cfg.d_src == fabric::DSrc::kLut &&
      (pin_val_[static_cast<std::size_t>(site)] & kCe) != 0) {
    schedule(t + dm_->latch_d_to_q, Event{EventKind::kQSet, x, 0, site});
  }
}

void FabricSim::do_q_set(int site, bool value, SimTime t) {
  if (q_val_[static_cast<std::size_t>(site)] == value) return;
  if (!cfg_[static_cast<std::size_t>(site)].used) return;
  q_val_[static_cast<std::size_t>(site)] = value;
  propagate(nets_of_out_[static_cast<std::size_t>(site) * 2 + 1], value, t);
}

std::int64_t FabricSim::edges_seen(std::uint8_t domain) const {
  const Clock* c = find_clock(domain);
  return c == nullptr ? 0 : c->edges;
}

void FabricSim::set_clock_running(std::uint8_t domain, bool running) {
  RELOGIC_CHECK_MSG(has_clock(domain), "no clock defined for the domain");
  for (auto& c : clocks_) {
    if (c.spec.domain == domain) c.halted = !running;
  }
}

bool FabricSim::clock_running(std::uint8_t domain) const {
  const Clock* c = find_clock(domain);
  return c == nullptr || !c->halted;
}

void FabricSim::do_clock_edge(Clock& clock, int index, SimTime t) {
  if (!clock.halted) {
    ++clock.edges;
    monitor_.on_clock_edge(t);
    check_drive_coherence();

    // Ascending site order is the row -> column -> cell order of a full
    // device scan, so captures are queued in the same order.
    const std::uint8_t domain = clock.spec.domain;
    for (const std::int32_t ff : ff_sites_) {
      const auto site = static_cast<std::size_t>(ff);
      const fabric::LogicCellConfig& cfg = cfg_[site];
      if (cfg.clock_domain != domain) continue;
      if (cfg.uses_ce && (pin_val_[site] & kCe) == 0) continue;
      const bool d =
          cfg.d_src == fabric::DSrc::kBypass ? (pin_val_[site] & kBx) != 0
                                             : x_val_[site] != 0;
      if (d != q_val_[site]) {
        schedule(t + dm_->clk_to_q, Event{EventKind::kQSet, d, 0, ff});
      }
    }
  }
  // Next edge; a halted generator keeps its phase.
  schedule(t + clock.spec.period,
           Event{EventKind::kClockEdge, false, 0, index});
}

void FabricSim::propagate(const std::vector<NetId>& nets, bool value,
                          SimTime t) {
  for (NetId net : nets) {
    // Multi-source nets: the paralleled drivers are functionally identical
    // (verified by check_drive_coherence), so last-write-wins per sink is
    // the settled value; skew between them is the Fig. 6 fuzziness.
    for (const Sink& sink : net_cache_[net].sinks)
      schedule_sink(sink, value, t);
  }
}

void FabricSim::rebuild_net_cache(NetId net) {
  if (net_cache_.size() <= net) net_cache_.resize(net + 1);
  NetCache& cache = net_cache_[net];

  // Unregister old source mappings.
  for (const Source& s : cache.sources) {
    if (!s.pad) {
      std::erase(nets_of_out_[static_cast<std::size_t>(s.slot)], net);
    } else if (auto it = nets_of_pad_.find(s.node); it != nets_of_pad_.end()) {
      std::erase(it->second, net);
    }
  }
  cache = NetCache{};
  if (!fabric_->net_exists(net)) {
    set_member(multi_src_nets_, net, false);
    return;
  }

  const auto& tree = fabric_->net(net);
  for (NodeId s : tree.sources) {
    const Source src = decode_source(s);
    cache.sources.push_back(src);
    if (src.pad) {
      nets_of_pad_[s].push_back(net);
    } else {
      nets_of_out_[static_cast<std::size_t>(src.slot)].push_back(net);
    }
  }
  set_member(multi_src_nets_, net, cache.sources.size() >= 2);

  // Forward traversal from sources accumulating the max delay per node;
  // tolerates partially built trees (unreachable sinks are simply absent).
  std::unordered_map<NodeId, std::vector<NodeId>> adj;
  for (const auto& e : tree.edges) adj[e.from].push_back(e.to);
  std::unordered_map<NodeId, SimTime> max_delay;
  struct Item {
    NodeId node;
    SimTime d;
    int depth;
  };
  const int limit = static_cast<int>(tree.edges.size()) + 2;
  std::vector<Item> stack;
  for (NodeId s : tree.sources) stack.push_back({s, SimTime::zero(), 0});
  const auto& graph = fabric_->graph();
  while (!stack.empty()) {
    const Item it = stack.back();
    stack.pop_back();
    if (it.depth > limit) continue;  // defensive against transient cycles
    auto a = adj.find(it.node);
    if (a == adj.end()) continue;
    for (NodeId next : a->second) {
      const SimTime d =
          it.d + dm_->pip_delay + dm_->node_delay(graph.info(next).kind);
      auto [pos, inserted] = max_delay.try_emplace(next, d);
      if (!inserted) {
        if (d <= pos->second) continue;
        pos->second = d;
      }
      stack.push_back({next, d, it.depth + 1});
    }
  }
  for (const auto& [node, d] : max_delay) {
    const auto info = graph.info(node);
    if (info.kind == NodeKind::kInPin) {
      cache.sinks.push_back(
          Sink{node, d, site_index(info.tile, info.a), info.b, false});
    } else if (info.kind == NodeKind::kPad && !tree.has_source(node)) {
      cache.sinks.push_back(Sink{node, d, pad_slot(node), 0, true});
    }
  }
}

void FabricSim::on_cell_changed(ClbCoord clb, int cell,
                                const fabric::LogicCellConfig& before,
                                const fabric::LogicCellConfig& after) {
  const int site = site_index(clb, cell);
  cfg_[static_cast<std::size_t>(site)] = after;
  set_member(ff_sites_, site, is_ff(after));
  if (!before.used && after.used) {
    q_val_[static_cast<std::size_t>(site)] = after.init;
    // Refresh inputs: routed pins read their net's current value; unrouted
    // pins revert to the default level (a previous tenant of this site may
    // have left stale values behind).
    const auto& graph = fabric_->graph();
    for (int p = 0; p < fabric::kInPorts; ++p) {
      const NodeId pin =
          graph.in_pin(clb, cell, static_cast<fabric::CellPort>(p));
      const NetId net = graph.occupant(pin);
      bool value = false;
      if (net != fabric::kNoNet && fabric_->net_exists(net) &&
          !fabric_->net(net).sources.empty()) {
        value = source_pin_value(fabric_->net(net).sources.front());
      }
      schedule(now_, Event{EventKind::kPinSet, value,
                           static_cast<std::uint8_t>(p), site, pin});
    }
  }
  if (after.used) {
    schedule(now_ + dm_->lut_delay, Event{EventKind::kEval, false, 0, site});
  }
}

void FabricSim::on_net_changed(NetId net) {
  rebuild_net_cache(net);
  if (!fabric_->net_exists(net)) return;
  const NetCache& cache = net_cache_[net];
  if (cache.sources.empty()) return;
  const bool v = source_value(cache.sources.front());
  for (const Sink& sink : cache.sinks) schedule_sink(sink, v, now_);
}

void FabricSim::check_drive_coherence() {
  for (const NetId net : multi_src_nets_) {
    if (!fabric_->net_exists(net)) continue;
    const NetCache& cache = net_cache_[net];
    const bool v0 = source_value(cache.sources.front());
    for (std::size_t i = 1; i < cache.sources.size(); ++i) {
      if (source_value(cache.sources[i]) != v0) {
        monitor_.add_violation(Violation{
            ViolationKind::kDriveConflict, now_, cache.sources[i].node,
            "paralleled sources of net '" + fabric_->net(net).name +
                "' disagree at a clock edge"});
        break;
      }
    }
  }
}

void FabricSim::audit() const {
  constexpr const char* kWhere = "FabricSim";
  const auto& geom = fabric_->geometry();
  const auto& graph = fabric_->graph();

  std::vector<std::int32_t> ff;
  for (int r = 0; r < geom.clb_rows; ++r) {
    for (int c = 0; c < geom.clb_cols; ++c) {
      for (int k = 0; k < geom.cells_per_clb; ++k) {
        const auto& cfg = fabric_->cell(ClbCoord{r, c}, k);
        const int site = site_index(ClbCoord{r, c}, k);
        RELOGIC_AUDIT_CHECK(cfg_[static_cast<std::size_t>(site)] == cfg,
                            kWhere,
                            "config mirror: site " + std::to_string(site) +
                                " stale");
        if (is_ff(cfg)) ff.push_back(site);
      }
    }
  }
  const std::string ff_diff = index_divergence(ff_sites_, ff);
  RELOGIC_AUDIT_CHECK(ff_diff.empty(), kWhere,
                      "flip-flop site index: site " + ff_diff);

  std::vector<NetId> multi;
  std::vector<std::vector<NetId>> out_nets(nets_of_out_.size());
  std::unordered_map<NodeId, std::vector<NetId>> pad_nets;
  for (NetId net = 1; net < net_cache_.size(); ++net) {
    const NetCache& cache = net_cache_[net];
    if (fabric_->net_exists(net) && cache.sources.size() >= 2)
      multi.push_back(net);
    for (const Source& s : cache.sources) {
      const Source fresh = decode_source(s.node);
      RELOGIC_AUDIT_CHECK(fresh.slot == s.slot && fresh.pad == s.pad, kWhere,
                          "net " + std::to_string(net) + " source " +
                              std::to_string(s.node) + " decoded stale");
      if (s.pad) {
        pad_nets[s.node].push_back(net);
      } else {
        out_nets[static_cast<std::size_t>(s.slot)].push_back(net);
      }
    }
    for (const Sink& s : cache.sinks) {
      const auto info = graph.info(s.node);
      const bool ok =
          s.pad ? info.kind == NodeKind::kPad && s.site == pad_slot(s.node)
                : info.kind == NodeKind::kInPin &&
                      s.site == site_index(info.tile, info.a) &&
                      s.port == info.b;
      RELOGIC_AUDIT_CHECK(ok, kWhere,
                          "net " + std::to_string(net) + " sink " +
                              std::to_string(s.node) + " decoded stale");
    }
  }
  const std::string net_diff = index_divergence(multi_src_nets_, multi);
  RELOGIC_AUDIT_CHECK(net_diff.empty(), kWhere,
                      "paralleled-net index: net " + net_diff);

  // The per-source net lists keep attach order; compare them as sets.
  auto same_nets = [](std::vector<NetId> kept, std::vector<NetId> fresh) {
    std::sort(kept.begin(), kept.end());
    std::sort(fresh.begin(), fresh.end());
    return kept == fresh;
  };
  for (std::size_t slot = 0; slot < out_nets.size(); ++slot) {
    RELOGIC_AUDIT_CHECK(same_nets(nets_of_out_[slot], out_nets[slot]), kWhere,
                        "out-pin net list: site " + std::to_string(slot / 2) +
                            (slot % 2 != 0 ? " XQ" : " X") + " stale");
  }
  for (const auto& [pad, nets] : nets_of_pad_) {
    const auto it = pad_nets.find(pad);
    RELOGIC_AUDIT_CHECK(
        same_nets(nets, it == pad_nets.end() ? std::vector<NetId>{}
                                             : it->second),
        kWhere, "pad net list: pad " + std::to_string(pad) + " stale");
  }
  for (const auto& [pad, nets] : pad_nets) {
    RELOGIC_AUDIT_CHECK(nets_of_pad_.contains(pad), kWhere,
                        "pad net list: pad " + std::to_string(pad) +
                            " missing");
  }
}

}  // namespace relogic::sim
