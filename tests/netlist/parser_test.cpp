#include "qwm/netlist/parser.h"

#include <gtest/gtest.h>

#include "qwm/netlist/writer.h"

namespace qwm::netlist {
namespace {

TEST(SpiceNumber, Suffixes) {
  double v = 0.0;
  EXPECT_TRUE(parse_spice_number("4.7k", &v));
  EXPECT_DOUBLE_EQ(v, 4700.0);
  EXPECT_TRUE(parse_spice_number("0.35u", &v));
  EXPECT_DOUBLE_EQ(v, 0.35e-6);
  EXPECT_TRUE(parse_spice_number("10meg", &v));
  EXPECT_DOUBLE_EQ(v, 1e7);
  EXPECT_TRUE(parse_spice_number("2p", &v));
  EXPECT_DOUBLE_EQ(v, 2e-12);
  EXPECT_TRUE(parse_spice_number("100f", &v));
  EXPECT_DOUBLE_EQ(v, 100e-15);
  EXPECT_TRUE(parse_spice_number("1e-12", &v));
  EXPECT_DOUBLE_EQ(v, 1e-12);
  EXPECT_TRUE(parse_spice_number("3n", &v));
  EXPECT_DOUBLE_EQ(v, 3e-9);
  EXPECT_FALSE(parse_spice_number("volts", &v));
  EXPECT_FALSE(parse_spice_number("", &v));
  EXPECT_FALSE(parse_spice_number("1x", &v));
}

TEST(SpiceNumber, NonFiniteIsRejected) {
  double v = 1.5;
  for (const char* tok : {"nan", "inf", "-inf", "1e999", "infinity", "1e300t"})
    EXPECT_FALSE(parse_spice_number(tok, &v)) << tok;
  EXPECT_EQ(v, 1.5);  // a rejected token leaves the output alone
}

constexpr const char* kInverterDeck = R"(simple inverter
vdd vdd 0 dc 3.3
vin in 0 pulse(0 3.3 10p 1p 1p 500p 1n)
mp out in vdd vdd pmos w=2u l=0.35u
mn out in 0 0 nmos w=1u l=0.35u
cl out 0 20f
.end
)";

TEST(Parser, InverterDeck) {
  const ParseResult r = parse_spice(kInverterDeck);
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.netlist.mosfets.size(), 2u);
  EXPECT_EQ(r.netlist.vsources.size(), 2u);
  EXPECT_EQ(r.netlist.capacitors.size(), 1u);

  const Mosfet& mp = r.netlist.mosfets[0];
  EXPECT_EQ(mp.type, device::MosType::pmos);
  EXPECT_DOUBLE_EQ(mp.w, 2e-6);
  EXPECT_DOUBLE_EQ(mp.l, 0.35e-6);

  double vdd = 0.0;
  EXPECT_EQ(r.netlist.find_vdd_net(&vdd), *r.netlist.find_net("vdd"));
  EXPECT_DOUBLE_EQ(vdd, 3.3);

  // The PULSE source becomes a PWL with the rise at 10 ps.
  const VSource& vin = r.netlist.vsources[1];
  EXPECT_NEAR(vin.waveform.eval(0.0), 0.0, 1e-12);
  EXPECT_NEAR(vin.waveform.eval(12e-12), 3.3, 1e-12);
}

TEST(Parser, CaseInsensitiveAndContinuations) {
  const ParseResult r = parse_spice(
      "title\n"
      "VDD VDD 0 DC 3.3\n"
      "MN out in 0 0\n"
      "+ NMOS W=1U\n"
      "+ L=0.35U\n"
      ".END\n");
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  ASSERT_EQ(r.netlist.mosfets.size(), 1u);
  EXPECT_DOUBLE_EQ(r.netlist.mosfets[0].w, 1e-6);
}

TEST(Parser, CommentsIgnored) {
  const ParseResult r = parse_spice(
      "t\n* a comment\nr1 a b 100 $ trailing\nc1 b 0 1p ; also trailing\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.netlist.resistors.size(), 1u);
  EXPECT_EQ(r.netlist.capacitors.size(), 1u);
}

TEST(Parser, GroundAliases) {
  const ParseResult r = parse_spice("t\nr1 a gnd 1k\nr2 b vss 1k\nr3 c 0 1k\n");
  ASSERT_TRUE(r.ok());
  for (const auto& res : r.netlist.resistors) EXPECT_EQ(res.b, kGroundNet);
}

TEST(Parser, SubcircuitExpansion) {
  const ParseResult r = parse_spice(R"(two inverters
.subckt inv in out
mp out in vdd vdd pmos w=2u l=0.35u
mn out in 0 0 nmos w=1u l=0.35u
.ends
vdd vdd 0 3.3
x1 a b inv
x2 b c inv
)");
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.netlist.mosfets.size(), 4u);
  // Shared net b connects x1's output to x2's input.
  ASSERT_TRUE(r.netlist.find_net("b").has_value());
  // Internal supply references resolve to the global vdd net.
  const auto vdd_net = r.netlist.find_net("vdd");
  ASSERT_TRUE(vdd_net.has_value());
  int on_vdd = 0;
  for (const auto& m : r.netlist.mosfets)
    if (m.source == *vdd_net || m.drain == *vdd_net) ++on_vdd;
  EXPECT_EQ(on_vdd, 2);
}

TEST(Parser, PwlSource) {
  const ParseResult r =
      parse_spice("t\nv1 in 0 pwl(0 0 1n 3.3 2n 0)\n");
  ASSERT_TRUE(r.ok());
  const auto& w = r.netlist.vsources[0].waveform;
  EXPECT_NEAR(w.eval(0.5e-9), 1.65, 1e-9);
  EXPECT_NEAR(w.eval(1.5e-9), 1.65, 1e-9);
}

TEST(Parser, ParamSubstitution) {
  const ParseResult r = parse_spice(
      "t\n.param wn=1u ln=0.35u\nmn out in 0 0 nmos w=wn l=ln\n");
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  ASSERT_EQ(r.netlist.mosfets.size(), 1u);
  EXPECT_DOUBLE_EQ(r.netlist.mosfets[0].w, 1e-6);
}

TEST(Parser, ReportsErrors) {
  EXPECT_FALSE(parse_spice("t\nmn out in 0\n").ok());       // short card
  EXPECT_FALSE(parse_spice("t\nr1 a b banana\n").ok());     // bad value
  EXPECT_FALSE(parse_spice("t\nx1 a b nosuch\n").ok());     // unknown subckt
  EXPECT_FALSE(parse_spice("t\n.subckt foo a\nr1 a 0 1\n").ok());  // no .ends
}

TEST(Parser, ErrorsCarryFileAndLine) {
  // In-memory decks diagnose as "<deck>:<line>: ..." with 1-based
  // physical line numbers (the title is line 1).
  const ParseResult r = parse_spice("t\nvdd vdd 0 3.3\nr1 a b banana\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.errors[0].find("<deck>:3: "), 0u) << r.errors[0];

  // A continuation line is reported at the line it extends.
  const ParseResult c = parse_spice("t\nr1 a b\n+ banana\nr2 a 0 1k\n");
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.errors[0].find("<deck>:2: "), 0u) << c.errors[0];

  // Errors inside a .subckt body point at the definition site, even when
  // triggered by an X-card expansion further down.
  const ParseResult s = parse_spice(
      "t\n.subckt bad a\nr1 a 0 oops\n.ends\nx1 n1 bad\n");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.errors[0].find("<deck>:3: "), 0u) << s.errors[0];

  // Missing files carry the path with line 0.
  const ParseResult f = parse_spice_file("/nonexistent/deck.sp");
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.errors[0].find("/nonexistent/deck.sp:0: "), 0u) << f.errors[0];
}

TEST(Parser, UnknownElementsWarnNotFail) {
  const ParseResult r = parse_spice("t\nl1 a b 1n\nr1 a 0 1k\n");
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.warnings.empty());
}

TEST(Writer, RoundTrips) {
  const ParseResult r1 = parse_spice(kInverterDeck);
  ASSERT_TRUE(r1.ok());
  const std::string deck = write_spice(r1.netlist, "roundtrip");
  const ParseResult r2 = parse_spice(deck);
  ASSERT_TRUE(r2.ok()) << (r2.errors.empty() ? "" : r2.errors[0]);
  EXPECT_EQ(r2.netlist.mosfets.size(), r1.netlist.mosfets.size());
  EXPECT_EQ(r2.netlist.capacitors.size(), r1.netlist.capacitors.size());
  EXPECT_EQ(r2.netlist.vsources.size(), r1.netlist.vsources.size());
  EXPECT_DOUBLE_EQ(r2.netlist.mosfets[0].w, r1.netlist.mosfets[0].w);
}

}  // namespace
}  // namespace qwm::netlist
