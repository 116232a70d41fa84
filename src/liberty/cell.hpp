#pragma once
// Standard cell model: pins, timing arcs and per-cell metadata. One timing
// arc holds the four LUTs of a related-pin/output-pin pair (rise/fall delay
// and rise/fall output transition), exactly the tables the tuner restricts.

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "liberty/function.hpp"
#include "liberty/lut.hpp"

namespace sct::liberty {

enum class PinDirection { kInput, kOutput };

struct Pin {
  std::string name;
  PinDirection direction = PinDirection::kInput;
  double capacitance = 0.0;  ///< input pin capacitance [pF]
  double maxCapacitance = 0.0;  ///< output drive limit [pF]; 0 = unlimited
  bool isClock = false;
};

/// Timing arc from one input (related) pin to one output pin.
struct TimingArc {
  std::string relatedPin;
  std::string outputPin;
  Lut riseDelay;
  Lut fallDelay;
  Lut riseTransition;
  Lut fallTransition;

  /// Worst (max of rise/fall) delay at an operating point; the analysis in
  /// this repository is single-valued worst-case, like the paper's setup
  /// study.
  [[nodiscard]] double worstDelay(double slew, double load) const noexcept {
    return std::max(riseDelay.lookup(slew, load), fallDelay.lookup(slew, load));
  }
  /// Best (min of rise/fall) delay; used by the hold (min-delay) analysis.
  [[nodiscard]] double bestDelay(double slew, double load) const noexcept {
    return std::min(riseDelay.lookup(slew, load), fallDelay.lookup(slew, load));
  }
  [[nodiscard]] double worstTransition(double slew, double load) const noexcept {
    return std::max(riseTransition.lookup(slew, load),
                    fallTransition.lookup(slew, load));
  }
};

class Cell {
 public:
  Cell() = default;
  Cell(std::string name, CellFunction function, double driveStrength,
       double area)
      : name_(std::move(name)),
        function_(function),
        drive_strength_(driveStrength),
        area_(area) {}

  // The derived pin/arc index (see below) holds pointers into pins_/arcs_;
  // copies must not share it. Moves keep the heap buffers, so the index
  // stays valid and travels with the cell (a moved-from cell must be
  // reassigned before it is queried again).
  Cell(const Cell& other)
      : name_(other.name_),
        function_(other.function_),
        drive_strength_(other.drive_strength_),
        area_(other.area_),
        setup_time_(other.setup_time_),
        hold_time_(other.hold_time_),
        setup_lut_(other.setup_lut_),
        pins_(other.pins_),
        arcs_(other.arcs_) {}
  Cell& operator=(const Cell& other) {
    if (this == &other) return *this;
    name_ = other.name_;
    function_ = other.function_;
    drive_strength_ = other.drive_strength_;
    area_ = other.area_;
    setup_time_ = other.setup_time_;
    hold_time_ = other.hold_time_;
    setup_lut_ = other.setup_lut_;
    pins_ = other.pins_;
    arcs_ = other.arcs_;
    invalidateIndex();
    return *this;
  }
  Cell(Cell&&) noexcept = default;
  Cell& operator=(Cell&&) noexcept = default;
  ~Cell() = default;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] CellFunction function() const noexcept { return function_; }
  [[nodiscard]] double driveStrength() const noexcept { return drive_strength_; }
  [[nodiscard]] double area() const noexcept { return area_; }
  [[nodiscard]] bool isSequential() const noexcept {
    return traits(function_).sequential;
  }
  [[nodiscard]] CellCategory category() const noexcept {
    return traits(function_).category;
  }

  /// Setup requirement at the D pin of sequential cells [ns] at the table
  /// origin (fast edges). Kept as the scalar summary; timing checks use the
  /// slew-dependent form below.
  [[nodiscard]] double setupTime() const noexcept { return setup_time_; }
  void setSetupTime(double t) noexcept { setup_time_ = t; }
  /// Slew-dependent setup requirement (Liberty setup_rising semantics):
  /// indexed by data slew (rows) and clock slew (columns). Falls back to
  /// the scalar when no table was characterized.
  [[nodiscard]] double setupTime(double dataSlew,
                                 double clockSlew) const noexcept {
    return setup_lut_.empty() ? setup_time_
                              : setup_lut_.lookup(dataSlew, clockSlew);
  }
  void setSetupLut(Lut lut) noexcept { setup_lut_ = std::move(lut); }
  [[nodiscard]] const Lut& setupLut() const noexcept { return setup_lut_; }

  /// Hold requirement at the D pin of sequential cells [ns].
  [[nodiscard]] double holdTime() const noexcept { return hold_time_; }
  void setHoldTime(double t) noexcept { hold_time_ = t; }

  [[nodiscard]] const std::vector<Pin>& pins() const noexcept { return pins_; }
  [[nodiscard]] std::vector<Pin>& pins() {
    invalidateIndex();  // caller may mutate through the reference
    return pins_;
  }
  [[nodiscard]] const std::vector<TimingArc>& arcs() const noexcept {
    return arcs_;
  }
  [[nodiscard]] std::vector<TimingArc>& arcs() {
    invalidateIndex();
    return arcs_;
  }

  void addPin(Pin pin) {
    invalidateIndex();
    pins_.push_back(std::move(pin));
  }
  void addArc(TimingArc arc) {
    invalidateIndex();
    arcs_.push_back(std::move(arc));
  }

  [[nodiscard]] const Pin* findPin(std::string_view name) const noexcept;
  /// Input pin capacitance; 0 when the pin does not exist.
  [[nodiscard]] double inputCapacitance(std::string_view pin) const noexcept;
  /// Arcs driving the given output pin. Cached: built once per cell, so
  /// report/finalize loops do not allocate.
  [[nodiscard]] std::span<const TimingArc* const> fanoutArcs(
      std::string_view outputPin) const;
  /// Arc for a specific related-pin/output-pin pair, if present.
  [[nodiscard]] const TimingArc* findArc(std::string_view relatedPin,
                                         std::string_view outputPin) const noexcept;
  /// Input/output pins in declaration order; cached like fanoutArcs().
  [[nodiscard]] std::span<const Pin* const> inputPins() const;
  [[nodiscard]] std::span<const Pin* const> outputPins() const;

 private:
  /// Derived views of pins_/arcs_, built lazily on first query and replaced
  /// on any mutation. Pointers target the owning cell's vectors (stable
  /// across moves, rebuilt on copy). The build runs under `built`, so
  /// threads sharing one library (evolve fitness, daemon sessions) query a
  /// const cell concurrently without racing to publish two indexes.
  struct DerivedIndex {
    std::once_flag built;
    /// Set last inside the once-call and checked first, so querying a
    /// built index costs one acquire load instead of a call_once.
    std::atomic<bool> ready{false};
    std::vector<const Pin*> inputPins;
    std::vector<const Pin*> outputPins;
    /// Arcs grouped per output pin, in arc declaration order.
    std::vector<std::pair<std::string, std::vector<const TimingArc*>>> fanout;
  };
  const DerivedIndex& index() const;
  /// Mutators hold the cell exclusively, so they may swap the slot; a slot
  /// that was never built is still valid and is kept.
  void invalidateIndex() {
    if (index_ == nullptr || index_->ready.load(std::memory_order_relaxed)) {
      index_ = std::make_unique<DerivedIndex>();
    }
  }

  std::string name_;
  CellFunction function_ = CellFunction::kInv;
  double drive_strength_ = 1.0;
  double area_ = 0.0;
  double setup_time_ = 0.0;
  double hold_time_ = 0.0;
  Lut setup_lut_;  ///< rows: data slew, cols: clock slew; empty = scalar
  std::vector<Pin> pins_;
  std::vector<TimingArc> arcs_;
  std::unique_ptr<DerivedIndex> index_ = std::make_unique<DerivedIndex>();
};

}  // namespace sct::liberty
