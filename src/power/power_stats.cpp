#include "power/power_stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "numeric/statistics.hpp"
#include "parallel/parallel.hpp"
#include "tuning/rectangle.hpp"

namespace sct::power {

statlib::StatLut buildPowerLut(const charlib::Characterizer& characterizer,
                               const PowerModel& model,
                               const charlib::CellSpec& spec,
                               std::size_t samples, std::uint64_t seed) {
  const numeric::Axis& slewAxis = characterizer.config().slewAxis;
  const numeric::Axis loadAxis = characterizer.loadAxisFor(spec);
  statlib::StatLut lut(slewAxis, loadAxis);

  // One mismatch draw per sample, applied across the whole grid (one
  // physical instance per "die", exactly like the delay characterization).
  std::vector<numeric::RunningStats> stats(slewAxis.size() * loadAxis.size());
  numeric::Rng master(seed);
  numeric::Rng cellRng = master.fork(numeric::Rng::hashTag(spec.name));
  for (std::size_t k = 0; k < samples; ++k) {
    const charlib::LocalDeltas deltas =
        characterizer.model().drawLocal(spec, cellRng);
    for (std::size_t r = 0; r < slewAxis.size(); ++r) {
      for (std::size_t c = 0; c < loadAxis.size(); ++c) {
        stats[r * loadAxis.size() + c].add(model.transitionEnergy(
            spec, slewAxis[r], loadAxis[c], deltas));
      }
    }
  }
  for (std::size_t r = 0; r < slewAxis.size(); ++r) {
    for (std::size_t c = 0; c < loadAxis.size(); ++c) {
      lut.mean().at(r, c) = stats[r * loadAxis.size() + c].mean();
      lut.sigma().at(r, c) = stats[r * loadAxis.size() + c].stddev();
    }
  }
  return lut;
}

tuning::LibraryConstraints tuneLibraryOnPower(
    const charlib::Characterizer& characterizer, const PowerModel& model,
    double energySigmaCeiling, std::size_t samples, std::uint64_t seed) {
  tuning::LibraryConstraints constraints;
  for (const charlib::CellSpec& spec : characterizer.specs().all()) {
    const liberty::FunctionTraits& traits = liberty::traits(spec.function);
    if (traits.numDataInputs == 0 && !traits.sequential) continue;  // ties
    const statlib::StatLut lut =
        buildPowerLut(characterizer, model, spec, samples, seed);
    const auto rect = tuning::largestRectangle(
        tuning::BinaryLut::thresholdBelow(lut.sigma(), energySigmaCeiling));
    if (!rect) {
      constraints.markUnusable(spec.name);
      continue;
    }
    tuning::PinWindow window;
    window.minSlew = rect->rowLo == 0 ? 0.0 : lut.slewAxis()[rect->rowLo];
    window.maxSlew = lut.slewAxis()[rect->rowHi];
    window.minLoad = rect->colLo == 0 ? 0.0 : lut.loadAxis()[rect->colLo];
    window.maxLoad = lut.loadAxis()[rect->colHi];
    tuning::CellConstraint constraint;
    constraint.sigmaThreshold = energySigmaCeiling;
    const auto outputs = liberty::outputNames(spec.function);
    for (std::size_t o = 0; o < traits.numOutputs; ++o) {
      constraint.pinWindows.emplace(std::string(outputs[o]), window);
    }
    constraints.setCell(spec.name, std::move(constraint));
  }
  return constraints;
}

DesignPower analyzeDesignPower(const netlist::Design& design,
                               const sta::TimingAnalyzer& sta,
                               const charlib::Characterizer& characterizer,
                               const PowerModel& model, double activity,
                               std::size_t samples, std::uint64_t seed) {
  // Serial pre-pass in instance order: fork() advances the master once per
  // sampled instance, so each instance gets the same stream whatever the
  // thread count of the sampling below.
  struct Sampled {
    const netlist::Instance* inst;
    const charlib::CellSpec* spec;
    numeric::Rng rng;
  };
  std::vector<Sampled> sampled;
  numeric::Rng master(seed);
  for (std::size_t i = 0; i < design.instanceCount(); ++i) {
    const netlist::Instance& inst =
        design.instance(static_cast<netlist::InstIndex>(i));
    if (!inst.alive || inst.cell == nullptr) continue;
    const charlib::CellSpec* spec =
        characterizer.specs().find(inst.cell->name());
    if (spec == nullptr) continue;  // cells outside the catalogue
    sampled.push_back(
        {&inst, spec, master.fork(numeric::Rng::hashTag(inst.name))});
  }

  // Per-instance energy statistics from fresh mismatch draws, one slot per
  // instance (DESIGN.md §7).
  const double toPower = activity / sta.clock().period;  // fJ -> uW
  struct Moments {
    double mean;   ///< uW
    double sigma;  ///< uW
  };
  const std::vector<Moments> moments =
      parallel::parallelMap(sampled.size(), [&](std::size_t j) {
        Sampled& s = sampled[j];
        // Operating point: worst input slew, total driven load.
        double slew = sta.clock().clockSlew;
        for (netlist::NetIndex in : s.inst->inputs) {
          slew = std::max(slew, sta.netSlew(in));
        }
        double load = 0.0;
        for (netlist::NetIndex outNet : s.inst->outputs) {
          load += sta.netLoad(outNet);
        }
        numeric::RunningStats energy;
        for (std::size_t k = 0; k < samples; ++k) {
          energy.add(model.transitionEnergy(
              *s.spec, slew, load,
              characterizer.model().drawLocal(*s.spec, s.rng)));
        }
        return Moments{energy.mean() * toPower, energy.stddev() * toPower};
      });

  // Ordered fold: the serial loop's floating-point operations, in its order.
  DesignPower out;
  double varSum = 0.0;  // (uW)^2
  for (const Moments& m : moments) {
    out.meanPower += m.mean;
    varSum += m.sigma * m.sigma;
  }
  out.cells = moments.size();
  out.sigmaPower = std::sqrt(varSum);
  return out;
}

}  // namespace sct::power
