// SPICE-subset netlist parser.
//
// Supports the card set transistor-level timing analysis needs:
//   M<name> d g s b <model> W=<v> L=<v>     (model name contains nmos/pmos)
//   R<name> a b <value>
//   C<name> a b <value>
//   V<name> p n <dc> | DC <v> | PULSE(v1 v2 td tr tf pw per) | PWL(t v ...)
//   X<name> pins... <subckt>                (flattened recursively)
//   .subckt <name> pins... / .ends
//   .param <name>=<value>                   (simple value substitution)
//   .end, * comments, + continuations, $ and ; trailing comments
// Engineering suffixes (f p n u m k meg g t) and case-insensitivity follow
// SPICE conventions. Everything else (.tran, .ic, .options, ...) is
// ignored with a note, not an error, so real decks parse.
#pragma once

#include <string>
#include <vector>

#include "qwm/netlist/flat.h"

namespace qwm::netlist {

struct ParseResult {
  FlatNetlist netlist;
  /// Every entry is prefixed "file:line: " (file = the deck path,
  /// "<deck>" for in-memory text, or the .include path; line = 1-based
  /// physical line the offending logical line started on), so failures
  /// surfaced remotely — e.g. over the qwm_serve LOAD verb — point at
  /// the deck source.
  std::vector<std::string> errors;
  std::vector<std::string> warnings;
  bool ok() const { return errors.empty(); }
};

ParseResult parse_spice(const std::string& text);
ParseResult parse_spice_file(const std::string& path);

/// Parses one SPICE numeric token ("4.7k", "0.35u", "10meg", "1e-12").
/// Returns false on malformed input and on a non-finite result ("nan",
/// "inf", "1e999").
bool parse_spice_number(const std::string& token, double* value);

}  // namespace qwm::netlist
