// FabricSim: event-driven logic simulation of the configured fabric.
//
// The simulator executes whatever the Fabric currently describes — it
// subscribes as a FabricListener, so partial reconfiguration performed
// *while the simulation runs* (the whole point of the paper) is picked up
// incrementally:
//
//  * identical rewrites never reach the simulator (Fabric suppresses them),
//    reproducing the device property that rewriting the same configuration
//    data generates no transients;
//  * a net change re-propagates the net's current source value to every
//    sink with the routed path delay — a newly paralleled replica path
//    therefore exhibits exactly the Fig. 6 behaviour (the sink settles
//    after the longer of the two delays);
//  * a newly configured cell initialises its storage element to the
//    configured init value and evaluates from its currently-routed inputs.
//
// Timing model: LUTs have a lumped input-to-X delay, storage elements a
// clock-to-XQ delay, and each routed sink its path delay from the
// DelayModel (max over paralleled paths). Evaluation on delivery gives
// inertial-delay semantics: pulses shorter than the LUT delay are absorbed.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "relogic/common/time.hpp"
#include "relogic/fabric/fabric.hpp"
#include "relogic/sim/event_queue.hpp"
#include "relogic/sim/monitor.hpp"

namespace relogic::sim {

struct ClockSpec {
  std::uint8_t domain = 0;
  SimTime period = SimTime::ns(100);  ///< 10 MHz user clock by default
  SimTime first_edge = SimTime::ns(100);
};

class FabricSim final : public fabric::FabricListener {
 public:
  FabricSim(fabric::Fabric& fabric, const fabric::DelayModel& dm);
  ~FabricSim() override;

  FabricSim(const FabricSim&) = delete;
  FabricSim& operator=(const FabricSim&) = delete;

  // ---- clocks -------------------------------------------------------------
  void add_clock(ClockSpec spec);
  /// True if a clock generator exists for the domain.
  bool has_clock(std::uint8_t domain) const;
  /// Time of the next rising edge of a domain at or after `from`.
  SimTime next_edge(std::uint8_t domain, SimTime from) const;
  SimTime clock_period(std::uint8_t domain) const;
  /// Rising edges of a domain processed so far. Lets a harness catch its
  /// golden model up across reconfiguration intervals, during which the
  /// fabric keeps clocking (the application never stops).
  std::int64_t edges_seen(std::uint8_t domain) const;

  /// Gates a clock domain (the stop-the-system case of the paper's Sec. 2:
  /// LUT-RAM relocation requires halting to guarantee data coherency).
  /// While halted, the domain's FFs do not capture and its edges are not
  /// counted; other domains keep running.
  void set_clock_running(std::uint8_t domain, bool running);
  bool clock_running(std::uint8_t domain) const;

  // ---- external stimulus ----------------------------------------------------
  /// Drives an input pad to a value (takes effect at current time).
  void drive_pad(fabric::NodeId pad, bool value);
  /// Current value observed at any pad (input or output).
  bool pad_value(fabric::NodeId pad) const;

  // ---- execution ------------------------------------------------------------
  SimTime now() const { return now_; }
  /// Processes events up to and including time `t`; advances now() to `t`.
  void run_until(SimTime t);
  /// Runs past the next `n` rising edges of domain plus a settle margin.
  void run_cycles(int n, std::uint8_t domain = 0);

  // ---- observation ----------------------------------------------------------
  /// Storage-element (XQ) value of a cell site.
  bool state_of(ClbCoord clb, int cell) const;
  /// Combinational (X) value of a cell site.
  bool comb_of(ClbCoord clb, int cell) const;
  /// Current value seen at a cell input pin.
  bool pin_of(ClbCoord clb, int cell, fabric::CellPort port) const;
  /// Current logic value on a net (value at its first source pin).
  bool net_value(fabric::NetId net) const;

  GlitchMonitor& monitor() { return monitor_; }
  const GlitchMonitor& monitor() const { return monitor_; }

  /// Checks that every multi-source net's sources currently agree; records
  /// kDriveConflict violations. Invoked automatically at each clock edge.
  void check_drive_coherence();

  std::int64_t events_processed() const { return events_processed_; }

  /// Recomputes the maintained indexes by a full scan — the per-site config
  /// mirror, the flip-flop site index, the paralleled-net index, the
  /// decoded net sources and sinks and the per-source net lists — and
  /// throws AuditError naming the first divergence (DESIGN.md §11). Called
  /// at the end of run_until when audit_enabled().
  void audit() const;

  // ---- FabricListener --------------------------------------------------------
  void on_cell_changed(ClbCoord clb, int cell,
                       const fabric::LogicCellConfig& before,
                       const fabric::LogicCellConfig& after) override;
  void on_net_changed(fabric::NetId net) override;

 private:
  enum class EventKind : std::uint8_t {
    kPinSet,     // cell input pin `site`/`port`
    kPadSet,     // pad `node`, value slot `site`
    kEval,       // LUT of `site`
    kClockEdge,  // generator `site` of clocks_
    kQSet,       // storage element of `site`
  };
  /// One pending event; its time is the queue bucket it sits in.
  struct Event {
    EventKind kind;
    bool value = false;
    std::uint8_t port = 0;  // kPinSet
    std::int32_t site = -1;
    fabric::NodeId node = fabric::kInvalidNode;  // kPinSet / kPadSet
  };

  /// A net source decoded once when its net cache is built: cell output
  /// `slot` = site * 2 + registered, or pad value slot `slot`.
  struct Source {
    fabric::NodeId node;
    std::int32_t slot;
    bool pad;
  };
  /// A net sink with its max routed path delay, decoded the same way: cell
  /// input pin `site`/`port`, or pad value slot `site`.
  struct Sink {
    fabric::NodeId node;
    SimTime delay;
    std::int32_t site;
    std::uint8_t port;
    bool pad;
  };
  struct NetCache {
    std::vector<Source> sources;
    std::vector<Sink> sinks;
  };

  static constexpr std::uint8_t kCe = 1u << 4;  ///< CE bit of pin_val_
  static constexpr std::uint8_t kBx = 1u << 5;  ///< BX bit of pin_val_
  static constexpr std::uint8_t kPadUndriven = 0;
  static constexpr std::uint8_t pad_state(bool value) {
    return value ? 2 : 1;
  }

  struct Clock {
    ClockSpec spec;
    std::int64_t edges = 0;
    bool halted = false;
  };

  int site_index(ClbCoord clb, int cell) const;
  int pad_slot(fabric::NodeId pad) const;
  const Clock* find_clock(std::uint8_t domain) const;

  void schedule(SimTime t, Event e) { queue_.push(t, e); }
  void schedule_sink(const Sink& sink, bool value, SimTime t);
  void process(const Event& e, SimTime t);
  void do_pin_set(int site, int port, fabric::NodeId node, bool value,
                  SimTime t);
  void do_pad_set(int slot, fabric::NodeId pad, bool value, SimTime t);
  void do_eval(int site, SimTime t);
  void do_q_set(int site, bool value, SimTime t);
  void do_clock_edge(Clock& clock, int index, SimTime t);
  /// Propagates a new source value to all sinks of the nets it drives.
  void propagate(const std::vector<fabric::NetId>& nets, bool value,
                 SimTime t);
  void rebuild_net_cache(fabric::NetId net);
  Source decode_source(fabric::NodeId pin) const;
  bool source_value(const Source& src) const;
  bool source_pin_value(fabric::NodeId pin) const {
    return source_value(decode_source(pin));
  }

  fabric::Fabric* fabric_;
  const fabric::DelayModel* dm_;
  SimTime now_ = SimTime::zero();
  std::int64_t events_processed_ = 0;
  EventQueue<Event> queue_;

  // Dense per-site state (4 cells per CLB).
  /// Input pin values, bit `port` per site: I0..I3 (the LUT input vector),
  /// CE (bit 4), BX (bit 5).
  std::vector<std::uint8_t> pin_val_;
  std::vector<std::uint8_t> x_val_;
  std::vector<std::uint8_t> q_val_;
  /// State of each pad, by pad_slot(): kPadUndriven or pad_state(value).
  /// An undriven pad reads 0, but driving it to 0 is still a change.
  std::vector<std::uint8_t> pad_val_;

  std::vector<NetCache> net_cache_;  // by net id
  // Maintained indexes (DESIGN.md §11). `cfg_`: a copy of every site's
  // stored config, so no event handler reads Fabric state (§11.3).
  // `ff_sites_`: the ascending sites whose stored config is a used kFF
  // cell (the row -> column -> cell order a full-device scan visits them).
  // `multi_src_nets_`: the ascending nets whose cached sources number two
  // or more. `nets_of_out_`: the nets each cell output drives, by
  // site * 2 + registered; `nets_of_pad_` the same for pads.
  std::vector<fabric::LogicCellConfig> cfg_;
  std::vector<std::int32_t> ff_sites_;
  std::vector<fabric::NetId> multi_src_nets_;
  std::vector<std::vector<fabric::NetId>> nets_of_out_;
  std::unordered_map<fabric::NodeId, std::vector<fabric::NetId>> nets_of_pad_;

  std::vector<Clock> clocks_;
  GlitchMonitor monitor_;
};

}  // namespace relogic::sim
