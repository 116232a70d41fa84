#include "lint/loaded_artifact.hpp"

#include <stdexcept>

#include "liberty/liberty_io.hpp"
#include "netlist/verilog_io.hpp"
#include "statlib/stat_io.hpp"
#include "tuning/constraints_io.hpp"

namespace sct::lint {

LoadedArtifact::LoadedArtifact(const std::string& type,
                               const std::string& text,
                               const liberty::Library* reference) {
  subject_.referenceLibrary = reference;
  if (type == "lib") {
    subject_.library = &artifact_.emplace<liberty::Library>(
        liberty::readLibraryFromString(text));
  } else if (type == "stat") {
    subject_.statLibrary = &artifact_.emplace<statlib::StatLibrary>(
        statlib::readStatLibraryFromString(text));
  } else if (type == "netlist") {
    subject_.design = &artifact_.emplace<netlist::Design>(
        netlist::readVerilogFromString(text, reference));
  } else if (type == "constraints") {
    subject_.constraints = &artifact_.emplace<tuning::LibraryConstraints>(
        tuning::readConstraintsFromString(text));
  } else {
    throw std::runtime_error("unknown artifact type '" + type +
                             "' (lib|stat|netlist|constraints)");
  }
}

}  // namespace sct::lint
