#pragma once
// The one artifact-type switch behind `sctune lint` and the daemon's lint
// requests: parse a text artifact by type name and expose it as the
// LintSubject the engine runs over.

#include <string>
#include <variant>

#include "liberty/library.hpp"
#include "lint/rule.hpp"
#include "netlist/netlist.hpp"
#include "statlib/stat_library.hpp"
#include "tuning/restriction.hpp"

namespace sct::lint {

/// One parsed artifact and the subject pointing into it. The subject holds
/// pointers to the owned artifact, so the object is pinned (no copy, no
/// move).
class LoadedArtifact {
 public:
  /// `type` is lib | stat | netlist | constraints. `reference` (may be null)
  /// becomes the subject's reference library and binds netlist instances.
  /// Throws std::runtime_error on an unknown type, and the parser's error on
  /// malformed text.
  LoadedArtifact(const std::string& type, const std::string& text,
                 const liberty::Library* reference);
  LoadedArtifact(const LoadedArtifact&) = delete;  // also suppresses moves
  LoadedArtifact& operator=(const LoadedArtifact&) = delete;

  [[nodiscard]] const LintSubject& subject() const noexcept {
    return subject_;
  }

 private:
  std::variant<std::monostate, liberty::Library, statlib::StatLibrary,
               netlist::Design, tuning::LibraryConstraints>
      artifact_;
  LintSubject subject_;
};

}  // namespace sct::lint
