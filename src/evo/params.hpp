#pragma once
// Evolve-parameter struct, kept dependency-free (plain ints/doubles/string)
// so the lint layer can validate configs without linking the tuner.

#include <cstddef>
#include <cstdint>
#include <string>

#include "artifact/fields.hpp"

namespace sct::evo {

/// Knobs of the NSGA-II window tuner (src/evo/tuner.hpp). Validated by the
/// lint `evo.*` pack before a run starts.
struct EvolveParams {
  std::size_t population = 16;  ///< survivors per generation (>= 2)
  std::size_t generations = 6;  ///< variation rounds after the seeded gen 0
  /// Comma-separated subset of sigma,area,power used for dominance; all
  /// three objectives are always measured and reported.
  std::string objectives = "sigma,area,power";
  double geneMin = 0.002;  ///< sigma-threshold gene lower bound [ns]
  double geneMax = 0.06;   ///< sigma-threshold gene upper bound [ns]
  std::uint64_t seed = 2014;  ///< master stream for init + variation
};

template <artifact::FieldsOf<EvolveParams> P>
auto fields(P& p) {
  return std::tie(p.population, p.generations, p.objectives, p.geneMin,
                  p.geneMax, p.seed);
}

}  // namespace sct::evo
