#include "qwm/netlist/parser.h"

#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace qwm::netlist {

namespace {

/// One logical deck line plus the 1-based physical line number of its
/// first physical line — the anchor every diagnostic points at.
struct SrcLine {
  std::string text;
  int line = 0;
};

/// Splits text into logical lines: strips comments, joins continuations,
/// lower-cases everything. Each logical line remembers the physical line
/// it started on (continuation lines report the line they extend).
std::vector<SrcLine> logical_lines(const std::string& text) {
  std::vector<SrcLine> raw;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Trailing comment markers.
    for (const char* marker : {"$", ";"}) {
      const auto pos = line.find(marker);
      if (pos != std::string::npos) line.erase(pos);
    }
    raw.push_back({line, lineno});
  }
  std::vector<SrcLine> out;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    std::string& l = raw[i].text;
    // Trim leading whitespace.
    std::size_t b = l.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    if (l[b] == '*') continue;  // comment line
    if (l[b] == '+') {
      if (!out.empty()) out.back().text += " " + l.substr(b + 1);
      continue;
    }
    out.push_back({l.substr(b), raw[i].line});
  }
  for (auto& l : out) l.text = to_lower(l.text);
  return out;
}

/// Tokenizes a logical line. Parentheses and '=' are separators that also
/// emit nothing (PULSE(...) and W=val both split cleanly).
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::string cur;
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '(' || c == ')' ||
        c == '=' || c == ',') {
      if (!cur.empty()) {
        toks.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) toks.push_back(cur);
  return toks;
}

struct SubcktDef {
  std::string name;
  std::vector<std::string> pins;
  std::vector<SrcLine> body;  ///< logical lines inside the definition
  std::string file;           ///< file the definition appeared in
};

struct Parser {
  ParseResult result;
  std::unordered_map<std::string, SubcktDef> subckts;
  std::unordered_map<std::string, double> params;
  /// Directory of the top-level deck; .include paths resolve against it.
  std::string base_dir;
  int include_depth = 0;
  int unique_counter = 0;
  /// Source position of the card being parsed; every diagnostic is
  /// prefixed "file:line:" so a LOAD failure returned over the qwm_serve
  /// wire points at the offending deck line.
  std::string cur_file = "<deck>";
  int cur_line = 0;

  void error(const std::string& msg) {
    result.errors.push_back(cur_file + ":" + std::to_string(cur_line) + ": " +
                            msg);
  }
  void warn(const std::string& msg) { result.warnings.push_back(msg); }

  bool number(const std::string& tok, double* v) {
    const auto it = params.find(tok);
    if (it != params.end()) {
      *v = it->second;
      return true;
    }
    return parse_spice_number(tok, v);
  }

  /// Resolves a net token through an instantiation pin map (empty map at
  /// top level).
  NetId net(const std::string& tok,
            const std::unordered_map<std::string, std::string>& pin_map,
            const std::string& prefix) {
    const auto it = pin_map.find(tok);
    if (it != pin_map.end()) return result.netlist.net(it->second);
    if (tok == "0" || tok == "gnd" || tok == "vss")
      return result.netlist.net(tok);
    // Global supply nets stay global inside subcircuits.
    if (tok == "vdd" || tok == "vcc") return result.netlist.net(tok);
    return result.netlist.net(prefix.empty() ? tok : prefix + "." + tok);
  }

  /// Parses the DC/PULSE/PWL spec beginning at token i into a waveform.
  bool source_waveform(const std::vector<std::string>& t, std::size_t i,
                       const std::string& head, numeric::PwlWaveform* out);

  void parse_card(const std::vector<std::string>& t,
                  const std::unordered_map<std::string, std::string>& pin_map,
                  const std::string& prefix, int depth);

  void parse_lines(const std::vector<SrcLine>& lines, const std::string& file,
                   const std::unordered_map<std::string, std::string>& pin_map,
                   const std::string& prefix, int depth);
};

bool Parser::source_waveform(const std::vector<std::string>& t, std::size_t i,
                             const std::string& head,
                             numeric::PwlWaveform* out) {
  if (t[i] == "dc") ++i;
  if (i >= t.size()) {
    error("missing source value on " + head);
    return false;
  }
  if (t[i] == "pulse") {
    // PULSE(v1 v2 td tr tf pw per)
    double p[7] = {0, 0, 0, 1e-12, 1e-12, 1e-9, 2e-9};
    for (int k = 0; k < 7; ++k) {
      if (i + 1 + k >= t.size()) break;
      if (!number(t[i + 1 + k], &p[k])) {
        error("bad PULSE parameter on " + head);
        return false;
      }
    }
    const double v1 = p[0], v2 = p[1], td = p[2], tr = std::max(p[3], 1e-15),
                 tf = std::max(p[4], 1e-15), pw = p[5];
    std::vector<double> ts{0.0}, vs{v1};
    auto push = [&](double tt, double vv) {
      if (tt > ts.back()) {
        ts.push_back(tt);
        vs.push_back(vv);
      }
    };
    push(td, v1);
    push(td + tr, v2);
    push(td + tr + pw, v2);
    push(td + tr + pw + tf, v1);
    *out = numeric::PwlWaveform(ts, vs);
    return true;
  }
  if (t[i] == "pwl") {
    std::vector<double> ts, vs;
    for (std::size_t k = i + 1; k + 1 < t.size(); k += 2) {
      double tt, vv;
      if (!number(t[k], &tt) || !number(t[k + 1], &vv)) {
        error("bad PWL point on " + head);
        return false;
      }
      ts.push_back(tt);
      vs.push_back(vv);
    }
    if (ts.empty() || ts.front() > 0.0) {
      ts.insert(ts.begin(), 0.0);
      vs.insert(vs.begin(), vs.empty() ? 0.0 : vs.front());
    }
    *out = numeric::PwlWaveform(ts, vs);
    return true;
  }
  double dc = 0.0;
  if (!number(t[i], &dc)) {
    error("bad DC value on " + head);
    return false;
  }
  *out = numeric::PwlWaveform::constant(dc);
  return true;
}

void Parser::parse_card(
    const std::vector<std::string>& t,
    const std::unordered_map<std::string, std::string>& pin_map,
    const std::string& prefix, int depth) {
  const std::string& head = t[0];
  const char kind = head[0];
  const std::string inst_name = prefix.empty() ? head : prefix + "." + head;

  switch (kind) {
    case 'm': {
      if (t.size() < 6) {
        error("malformed mosfet card: " + head);
        return;
      }
      Mosfet m;
      m.name = inst_name;
      m.drain = net(t[1], pin_map, prefix);
      m.gate = net(t[2], pin_map, prefix);
      m.source = net(t[3], pin_map, prefix);
      m.bulk = net(t[4], pin_map, prefix);
      const std::string& model = t[5];
      if (model.find("pmos") != std::string::npos ||
          model.find("pch") != std::string::npos || model[0] == 'p')
        m.type = device::MosType::pmos;
      else
        m.type = device::MosType::nmos;
      // W=/L= pairs were split by the tokenizer into "w" <val> "l" <val>.
      for (std::size_t i = 6; i + 1 < t.size(); i += 2) {
        double v = 0.0;
        if (!number(t[i + 1], &v)) {
          error("bad parameter value on " + head + ": " + t[i + 1]);
          return;
        }
        if (t[i] == "w") m.w = v;
        else if (t[i] == "l") m.l = v;
        // ad/as/pd/ps accepted and ignored (geometry-derived in our models)
      }
      if (m.w <= 0.0 || m.l <= 0.0) {
        error("mosfet " + head + " missing W/L");
        return;
      }
      result.netlist.mosfets.push_back(m);
      return;
    }
    case 'r': {
      if (t.size() < 4) {
        error("malformed resistor card: " + head);
        return;
      }
      Resistor r;
      r.name = inst_name;
      r.a = net(t[1], pin_map, prefix);
      r.b = net(t[2], pin_map, prefix);
      if (!number(t[3], &r.value)) {
        error("bad resistance on " + head);
        return;
      }
      result.netlist.resistors.push_back(r);
      return;
    }
    case 'c': {
      if (t.size() < 4) {
        error("malformed capacitor card: " + head);
        return;
      }
      Capacitor c;
      c.name = inst_name;
      c.a = net(t[1], pin_map, prefix);
      c.b = net(t[2], pin_map, prefix);
      if (!number(t[3], &c.value)) {
        error("bad capacitance on " + head);
        return;
      }
      result.netlist.capacitors.push_back(c);
      return;
    }
    case 'v': {
      if (t.size() < 4) {
        error("malformed voltage source card: " + head);
        return;
      }
      VSource v;
      v.name = inst_name;
      v.pos = net(t[1], pin_map, prefix);
      v.neg = net(t[2], pin_map, prefix);
      if (!source_waveform(t, 3, head, &v.waveform)) return;
      result.netlist.vsources.push_back(v);
      return;
    }
    case 'i': {
      if (t.size() < 4) {
        error("malformed current source card: " + head);
        return;
      }
      ISource src;
      src.name = inst_name;
      src.pos = net(t[1], pin_map, prefix);
      src.neg = net(t[2], pin_map, prefix);
      if (!source_waveform(t, 3, head, &src.waveform)) return;
      result.netlist.isources.push_back(src);
      return;
    }
    case 'x': {
      if (t.size() < 3) {
        error("malformed subcircuit instance: " + head);
        return;
      }
      const std::string& sub_name = t.back();
      const auto it = subckts.find(sub_name);
      if (it == subckts.end()) {
        error("unknown subcircuit: " + sub_name);
        return;
      }
      const SubcktDef& def = it->second;
      if (t.size() - 2 != def.pins.size()) {
        error("pin count mismatch on " + head + " (" + sub_name + ")");
        return;
      }
      if (depth > 20) {
        error("subcircuit nesting too deep at " + head);
        return;
      }
      // Map formal pins to the caller's actual nets (resolved in the
      // caller's scope first).
      std::unordered_map<std::string, std::string> child_map;
      for (std::size_t k = 0; k < def.pins.size(); ++k) {
        const NetId actual = net(t[1 + k], pin_map, prefix);
        child_map[def.pins[k]] = result.netlist.net_name(actual);
      }
      // Body diagnostics point at the definition site, not the X card.
      parse_lines(def.body, def.file, child_map, inst_name, depth + 1);
      return;
    }
    default:
      warn("unsupported element '" + head + "' ignored");
      return;
  }
}

void Parser::parse_lines(
    const std::vector<SrcLine>& lines, const std::string& file,
    const std::unordered_map<std::string, std::string>& pin_map,
    const std::string& prefix, int depth) {
  for (std::size_t li = 0; li < lines.size(); ++li) {
    // Anchor diagnostics before touching the card; recursion below
    // (includes, subckt bodies) moves these and the re-assignment on the
    // next iteration restores them.
    cur_file = file;
    cur_line = lines[li].line;
    const std::vector<std::string> t = tokenize(lines[li].text);
    if (t.empty()) continue;
    const std::string& head = t[0];

    if (head[0] == '.') {
      if (head == ".subckt") {
        if (depth > 0) {
          error("nested .subckt definitions are not supported");
          continue;
        }
        if (t.size() < 2) {
          error("malformed .subckt");
          continue;
        }
        SubcktDef def;
        def.name = t[1];
        def.pins.assign(t.begin() + 2, t.end());
        def.file = file;
        // Collect body until .ends.
        std::size_t j = li + 1;
        for (; j < lines.size(); ++j) {
          const std::vector<std::string> bt = tokenize(lines[j].text);
          if (!bt.empty() && bt[0] == ".ends") break;
          def.body.push_back(lines[j]);
        }
        if (j == lines.size()) {
          error("unterminated .subckt " + def.name);
          return;
        }
        subckts[def.name] = def;
        li = j;  // skip past .ends
      } else if (head == ".model") {
        // .model <name> nmos|pmos [param=value ...]
        if (t.size() < 3) {
          error("malformed .model card");
          continue;
        }
        ModelCard card;
        card.name = t[1];
        if (t[2] == "pmos" || t[2] == "pch")
          card.type = device::MosType::pmos;
        else if (t[2] == "nmos" || t[2] == "nch")
          card.type = device::MosType::nmos;
        else {
          warn(".model " + t[1] + ": unsupported type " + t[2] + "; ignored");
          continue;
        }
        for (std::size_t k = 3; k + 1 < t.size(); k += 2) {
          double v = 0.0;
          if (number(t[k + 1], &v)) card.params[t[k]] = v;
          else error("bad .model parameter " + t[k] + " on " + t[1]);
        }
        result.netlist.model_cards.push_back(std::move(card));
      } else if (head == ".param") {
        for (std::size_t k = 1; k + 1 < t.size(); k += 2) {
          double v = 0.0;
          if (number(t[k + 1], &v)) params[t[k]] = v;
          else error("bad .param value for " + t[k]);
        }
      } else if (head == ".include" || head == ".inc" || head == ".lib") {
        if (t.size() < 2) {
          error("malformed " + head + " directive");
          continue;
        }
        if (include_depth > 8) {
          error("includes nested too deep at " + t[1]);
          continue;
        }
        std::filesystem::path p(t[1]);
        if (p.is_relative() && !base_dir.empty())
          p = std::filesystem::path(base_dir) / p;
        std::ifstream inc(p);
        if (!inc) {
          error("cannot open include file: " + p.string());
          continue;
        }
        std::stringstream ss;
        ss << inc.rdbuf();
        // Included files are card collections, not full decks: no title
        // line is stripped. Their diagnostics carry the included path.
        ++include_depth;
        parse_lines(logical_lines(ss.str()), p.string(), pin_map, prefix,
                    depth);
        --include_depth;
      } else if (head == ".tran") {
        // .tran <tstep> <tstop>
        if (t.size() < 3 || !number(t[1], &result.netlist.tran.tstep) ||
            !number(t[2], &result.netlist.tran.tstop)) {
          error("malformed .tran directive");
          continue;
        }
        result.netlist.tran.present = true;
      } else if (head == ".ic") {
        // .ic v(node)=value ... -> tokens: v <node> <value> repeating.
        bool any = false;
        for (std::size_t k = 1; k < t.size(); k += 3) {
          if (t[k] != "v" || k + 2 >= t.size()) break;
          InitialCondition ic;
          ic.net = net(t[k + 1], pin_map, prefix);
          if (!number(t[k + 2], &ic.voltage)) break;
          result.netlist.initial_conditions.push_back(ic);
          any = true;
        }
        if (!any) error("malformed .ic directive");
      } else if (head == ".print" || head == ".plot") {
        // .print tran v(a) v(b) ... -> tokens: [tran] v <net> v <net> ...
        for (std::size_t k = 1; k < t.size(); ++k) {
          if (t[k] == "tran" || t[k] == "dc") continue;
          if (t[k] == "v" && k + 1 < t.size()) {
            result.netlist.print_nets.push_back(
                net(t[k + 1], pin_map, prefix));
            ++k;
          }
        }
      } else if (head == ".end" || head == ".ends") {
        // done / stray terminator
      } else {
        warn("directive " + head + " ignored");
      }
      continue;
    }
    parse_card(t, pin_map, prefix, depth);
  }
}

}  // namespace

bool parse_spice_number(const std::string& token, double* value) {
  if (token.empty()) return false;
  // Find the longest numeric prefix std::strtod accepts.
  const char* begin = token.c_str();
  char* end = nullptr;
  const double base = std::strtod(begin, &end);
  if (end == begin) return false;
  std::string suffix = to_lower(std::string(end));
  // Strip trailing unit letters after the scale suffix (e.g. "10pf").
  double scale = 1.0;
  if (suffix.rfind("meg", 0) == 0) {
    scale = 1e6;
  } else if (!suffix.empty()) {
    switch (suffix[0]) {
      case 'f': scale = 1e-15; break;
      case 'p': scale = 1e-12; break;
      case 'n': scale = 1e-9; break;
      case 'u': scale = 1e-6; break;
      case 'm': scale = 1e-3; break;
      case 'k': scale = 1e3; break;
      case 'g': scale = 1e9; break;
      case 't': scale = 1e12; break;
      default:
        return false;
    }
  }
  // strtod also accepts "nan", "inf" and overflowing exponents ("1e999");
  // none of them is a usable width, period or element value.
  const double v = base * scale;
  if (!std::isfinite(v)) return false;
  *value = v;
  return true;
}

ParseResult parse_spice(const std::string& text) {
  Parser p;
  std::vector<SrcLine> lines = logical_lines(text);
  // SPICE semantics: the first line is always the title, never a card.
  if (!lines.empty()) lines.erase(lines.begin());
  // First pass registers .subckt defs encountered anywhere; parse_lines
  // already collects them in order, which suffices when definitions
  // precede use (the common layout). A second pass retries X cards is not
  // needed because parse_lines handles the full list sequentially.
  p.parse_lines(lines, "<deck>", {}, "", 0);
  return std::move(p.result);
}

ParseResult parse_spice_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ParseResult r;
    r.errors.push_back(path + ":0: cannot open file: " + path);
    return r;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  Parser p;
  p.base_dir = std::filesystem::path(path).parent_path().string();
  std::vector<SrcLine> lines = logical_lines(ss.str());
  if (!lines.empty()) lines.erase(lines.begin());  // title line
  p.parse_lines(lines, path, {}, "", 0);
  return std::move(p.result);
}

}  // namespace qwm::netlist
