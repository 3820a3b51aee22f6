#include "qwm/circuit/stage_hash.h"

#include <bit>

namespace qwm::circuit {

namespace {

/// splitmix64 finalizer: cheap, well-mixed, stable across platforms.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Canonical bits of a double: -0.0 folds onto +0.0 so numerically equal
/// geometries hash equally.
std::uint64_t double_bits(double v) {
  if (v == 0.0) v = 0.0;
  return std::bit_cast<std::uint64_t>(v);
}

}  // namespace

std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  return mix64(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                       (seed >> 2)));
}

std::uint64_t structural_hash(const LogicStage& stage) {
  std::uint64_t h = 0x51A9E5B17ULL;
  h = hash_combine(h, double_bits(stage.vdd()));
  h = hash_combine(h, stage.node_count());
  h = hash_combine(h, stage.edge_count());
  h = hash_combine(h, stage.input_count());
  h = hash_combine(h, static_cast<std::uint64_t>(stage.source()));
  h = hash_combine(h, static_cast<std::uint64_t>(stage.sink()));
  for (std::size_t e = 0; e < stage.edge_count(); ++e) {
    const Edge& ed = stage.edge(static_cast<EdgeId>(e));
    h = hash_combine(h, static_cast<std::uint64_t>(ed.kind));
    h = hash_combine(h, static_cast<std::uint64_t>(ed.src));
    h = hash_combine(h, static_cast<std::uint64_t>(ed.snk));
    h = hash_combine(h, double_bits(ed.w));
    h = hash_combine(h, double_bits(ed.l));
    h = hash_combine(h, static_cast<std::uint64_t>(ed.input));
    h = hash_combine(h, double_bits(ed.static_gate_voltage));
    h = hash_combine(h, double_bits(ed.explicit_r));
    h = hash_combine(h, double_bits(ed.explicit_c));
  }
  for (NodeId out : stage.outputs())
    h = hash_combine(h, static_cast<std::uint64_t>(out));
  return h;
}

std::uint64_t load_signature(const LogicStage& stage) {
  std::uint64_t h = 0xC10AD5ULL;
  for (std::size_t n = 0; n < stage.node_count(); ++n) {
    const double cap = stage.node(static_cast<NodeId>(n)).load_cap;
    h = hash_combine(h, double_bits(cap));
  }
  return h;
}

}  // namespace qwm::circuit
