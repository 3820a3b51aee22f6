// Structural hashing of logic stages for evaluation memoization.
//
// Two stages that are electrically identical — same polar-graph shape,
// same device kinds/geometries, same gate bindings and static voltages,
// same wire parasitics — produce the same structural hash, so the rows
// of a decoder or the repeated inverters of a buffer chain all map to
// one memo-cache family. The hash deliberately ignores node and input
// *names*: stages built by the same generator (netlist rows, builder
// calls) differ only in labels.
//
// The hash is index-order-sensitive, not a graph-isomorphism canonical
// form: stages must enumerate their nodes/edges in the same order to
// collide. That is exactly what repeated netlist structures and the
// programmatic builders produce, and it keeps hashing O(edges).
//
// Node load capacitances are hashed separately (load_signature), bit
// for bit, so the memo key tells "same stage, same loads" from "same
// stage, different load" exactly.
#pragma once

#include <cstdint>

#include "qwm/circuit/stage.h"

namespace qwm::circuit {

/// Hash of the stage's electrical structure: vdd, node/edge counts, every
/// edge's (kind, endpoints, w, l, gate binding, static gate voltage,
/// explicit RC), and the output node list. Excludes names and node load
/// capacitances.
std::uint64_t structural_hash(const LogicStage& stage);

/// Hash of the bit patterns of the per-node external load capacitances.
/// Combined with structural_hash this forms the stage part of a
/// memo-cache key.
std::uint64_t load_signature(const LogicStage& stage);

/// Mixes two 64-bit hashes (splitmix64 finalizer over the combination).
std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value);

}  // namespace qwm::circuit
