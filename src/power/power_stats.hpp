#pragma once
// Statistical power analysis: per-cell power-sigma LUTs built by Monte
// Carlo through the power model (the power analogue of the Fig. 2
// statistical library), power-based library tuning, and design-level
// dynamic-power statistics of a mapped design.

#include <cstdint>
#include <map>

#include "artifact/fields.hpp"
#include "charlib/characterizer.hpp"
#include "power/power_model.hpp"
#include "sta/sta.hpp"
#include "statlib/stat_library.hpp"
#include "tuning/restriction.hpp"

namespace sct::power {

/// Builds (mean, sigma) transition-energy LUTs for one cell over the same
/// slew/load grid as its delay tables, from `samples` mismatch draws.
[[nodiscard]] statlib::StatLut buildPowerLut(
    const charlib::Characterizer& characterizer, const PowerModel& model,
    const charlib::CellSpec& spec, std::size_t samples, std::uint64_t seed);

/// Power-metric library tuning: confines each cell to the slew/load window
/// where its transition-energy sigma stays below the ceiling [fJ]. Same
/// largest-rectangle mechanics as the delay tuner (section VI applied to a
/// different LUT, as suggested in section III).
[[nodiscard]] tuning::LibraryConstraints tuneLibraryOnPower(
    const charlib::Characterizer& characterizer, const PowerModel& model,
    double energySigmaCeiling, std::size_t samples = 50,
    std::uint64_t seed = 2014);

/// Design-level dynamic-power statistics of a mapped, analyzed design.
struct DesignPower {
  double meanPower = 0.0;   ///< uW, at the given activity
  double sigmaPower = 0.0;  ///< uW, RSS over cell instances (independent
                            ///< local mismatch)
  std::size_t cells = 0;
};

template <artifact::FieldsOf<DesignPower> P>
auto fields(P& p) { return std::tie(p.meanPower, p.sigmaPower, p.cells); }

[[nodiscard]] DesignPower analyzeDesignPower(
    const netlist::Design& design, const sta::TimingAnalyzer& sta,
    const charlib::Characterizer& characterizer, const PowerModel& model,
    double activity, std::size_t samples = 50, std::uint64_t seed = 7);

}  // namespace sct::power
