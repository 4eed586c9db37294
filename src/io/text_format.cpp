#include "io/text_format.hpp"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace gcr::io {

using geom::Coord;
using geom::Point;
using geom::Rect;

namespace {

/// operator>>'s whitespace in the C locale: space, \t, \n, \v, \f, \r.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Splits one line into \p out (views into the line).  A token that starts
/// with '#' opens a comment to the end of the line; a '#' inside a token is
/// an ordinary byte.
void tokenize(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  const std::size_t n = line.size();
  for (;;) {
    while (i < n && is_space(line[i])) ++i;
    if (i == n || line[i] == '#') return;
    const std::size_t start = i;
    while (i < n && !is_space(line[i])) ++i;
    out.push_back(line.substr(start, i - start));
  }
}

/// Clamps a token for error messages: untrusted input (the serving layer
/// parses request bodies) can contain arbitrarily long or binary garbage —
/// including terminal escape sequences — and the diagnostic is echoed back
/// to clients and operator terminals, so it must stay short and printable.
std::string printable(std::string_view tok) {
  std::string out;
  const std::size_t limit = std::min<std::size_t>(tok.size(), 32);
  for (std::size_t i = 0; i < limit; ++i) {
    const unsigned char c = static_cast<unsigned char>(tok[i]);
    out += (c >= 0x20 && c < 0x7f) ? tok[i] : '?';
  }
  if (tok.size() > limit) out += "...";
  return out;
}

/// An optional sign, then decimal digits that fit in 64 bits — nothing else.
Coord to_coord(std::string_view s, std::size_t line_no) {
  std::string_view digits = s;
  if (!digits.empty() && digits.front() == '+') {
    digits.remove_prefix(1);
    if (!digits.empty() && digits.front() == '-') digits = {};  // "+-5"
  }
  Coord v = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    throw ParseError(line_no, "expected integer, got '" + printable(s) + "'");
  }
  return v;
}

/// Scoped names -> index of the cell, pad or terminal, as open addressing
/// with linear probing in one array, so declaring a name allocates nothing.
/// A terminal's scope is its cell's index.  Names are views into the input,
/// which outlives the parse.
class NameTable {
 public:
  static constexpr std::uint32_t kCells = UINT32_MAX;
  static constexpr std::uint32_t kPads = UINT32_MAX - 1;

  explicit NameTable(std::size_t expected) {
    std::size_t capacity = 16;
    while (capacity < 2 * expected) capacity *= 2;
    slots_.resize(capacity);
  }

  /// False when \p name is already declared in \p scope.
  bool declare(std::uint32_t scope, std::string_view name, std::size_t index) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot& slot = probe(scope, name);
    if (slot.used) return false;
    slot = Slot{name, scope, static_cast<std::uint32_t>(index), true};
    ++size_;
    return true;
  }

  [[nodiscard]] const std::uint32_t* find(std::uint32_t scope,
                                          std::string_view name) {
    const Slot& slot = probe(scope, name);
    return slot.used ? &slot.index : nullptr;
  }

 private:
  struct Slot {
    std::string_view name;
    std::uint32_t scope = 0;
    std::uint32_t index = 0;
    bool used = false;
  };

  /// The slot holding the name, or the empty slot where it belongs.
  Slot& probe(std::uint32_t scope, std::string_view name) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (std::hash<std::string_view>{}(name) ^
                     (scope * 0x9E3779B97F4A7C15ULL)) &
                    mask;
    while (slots_[i].used &&
           (slots_[i].scope != scope || slots_[i].name != name)) {
      i = (i + 1) & mask;
    }
    return slots_[i];
  }

  void grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.used) declare(slot.scope, slot.name, slot.index);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// The reader proper.  \p read_failed reports an I/O error on the source
/// stream; it is checked after the last line like the end-of-input rules.
layout::Layout parse_layout(std::string_view text, bool read_failed) {
  layout::Layout lay;
  // Sized for one name per 32 input bytes; generated layouts use more.
  NameTable names(text.size() / 32);

  std::vector<std::string_view> tok;
  std::size_t line_no = 0;
  bool have_boundary = false;
  for (std::size_t pos = 0; pos < text.size();) {
    const char* nl = static_cast<const char*>(
        std::memchr(text.data() + pos, '\n', text.size() - pos));
    const std::size_t end =
        nl != nullptr ? static_cast<std::size_t>(nl - text.data())
                      : text.size();
    ++line_no;
    tokenize(text.substr(pos, end - pos), tok);
    pos = end + 1;
    if (tok.empty()) continue;
    const std::string_view kw = tok[0];
    const auto need = [&](std::size_t n) {
      if (tok.size() < n + 1) {
        throw ParseError(line_no, std::string(kw) + " needs at least " +
                                      std::to_string(n) + " arguments, got " +
                                      std::to_string(tok.size() - 1));
      }
    };
    const auto coord = [&](std::size_t i) { return to_coord(tok[i], line_no); };
    /// Pin coordinate pairs from token \p first on, all named \p name.
    const auto pins = [&](std::size_t first, const std::string& name) {
      std::vector<layout::Pin> out;
      out.reserve((tok.size() - first) / 2);
      for (std::size_t i = first; i + 1 < tok.size(); i += 2) {
        out.push_back(layout::Pin{Point{coord(i), coord(i + 1)}, name});
      }
      return out;
    };

    if (kw == "boundary") {
      need(4);
      if (have_boundary) {
        throw ParseError(line_no, "duplicate boundary directive");
      }
      const Rect b{coord(1), coord(2), coord(3), coord(4)};
      if (b.xhi <= b.xlo || b.yhi <= b.ylo) {
        throw ParseError(line_no, "boundary is empty or inverted");
      }
      lay.set_boundary(b);
      have_boundary = true;
    } else if (kw == "minsep") {
      need(1);
      lay.set_min_separation(coord(1));
    } else if (kw == "cell") {
      need(5);
      if (!names.declare(NameTable::kCells, tok[1], lay.cells().size())) {
        throw ParseError(line_no, "duplicate cell '" + printable(tok[1]) + "'");
      }
      const Rect r{coord(2), coord(3), coord(4), coord(5)};
      lay.add_cell(layout::Cell{std::string(tok[1]), r});
    } else if (kw == "poly") {
      need(7);  // name + at least 3 vertices... 4+ vertices => 8 coords
      if ((tok.size() - 2) % 2 != 0) {
        throw ParseError(line_no, "poly needs an even coordinate count");
      }
      if (!names.declare(NameTable::kCells, tok[1], lay.cells().size())) {
        throw ParseError(line_no, "duplicate cell '" + printable(tok[1]) + "'");
      }
      std::vector<Point> verts;
      verts.reserve((tok.size() - 2) / 2);
      for (std::size_t i = 2; i + 1 < tok.size(); i += 2) {
        verts.push_back(Point{coord(i), coord(i + 1)});
      }
      geom::OrthoPolygon poly(std::move(verts));
      if (!poly.valid()) {
        throw ParseError(line_no, "invalid orthogonal polygon '" +
                                      printable(tok[1]) + "'");
      }
      lay.add_cell(layout::Cell{std::string(tok[1]), std::move(poly)});
    } else if (kw == "term") {
      need(4);
      const std::uint32_t* cell_index = names.find(NameTable::kCells, tok[1]);
      if (cell_index == nullptr) {
        throw ParseError(line_no, "unknown cell '" + printable(tok[1]) + "'");
      }
      layout::Cell& cell = lay.cell(layout::CellId{*cell_index});
      if (!names.declare(*cell_index, tok[2], cell.terminals().size())) {
        throw ParseError(line_no, "duplicate terminal '" + printable(tok[1]) +
                                      "." + printable(tok[2]) + "'");
      }
      if ((tok.size() - 3) % 2 != 0) {
        throw ParseError(line_no, "term needs pin coordinate pairs");
      }
      layout::Terminal term;
      term.name = tok[2];
      term.pins = pins(3, term.name);
      cell.add_terminal(std::move(term));
    } else if (kw == "pad") {
      need(3);
      if (!names.declare(NameTable::kPads, tok[1], lay.pads().size())) {
        throw ParseError(line_no, "duplicate pad '" + printable(tok[1]) + "'");
      }
      if ((tok.size() - 2) % 2 != 0) {
        throw ParseError(line_no, "pad needs pin coordinate pairs");
      }
      layout::Terminal term;
      term.name = tok[1];
      term.pins = pins(2, term.name);
      lay.add_pad(std::move(term));
    } else if (kw == "net") {
      need(3);
      layout::Net net{std::string(tok[1])};
      for (std::size_t i = 2; i < tok.size(); ++i) {
        const std::string_view ref = tok[i];
        const std::size_t dot = ref.find('.');
        if (dot == std::string_view::npos) {
          throw ParseError(line_no, "terminal ref '" + printable(ref) +
                                        "' must be cell.term or pad.name");
        }
        const std::string_view owner = ref.substr(0, dot);
        const std::string_view term = ref.substr(dot + 1);
        if (owner == "pad") {
          const std::uint32_t* pad = names.find(NameTable::kPads, term);
          if (pad == nullptr) {
            throw ParseError(line_no, "unknown pad '" + printable(term) + "'");
          }
          net.add_terminal(layout::TerminalRef{layout::CellId{}, *pad});
        } else {
          const std::uint32_t* cell = names.find(NameTable::kCells, owner);
          if (cell == nullptr) {
            throw ParseError(line_no, "unknown cell '" + printable(owner) + "'");
          }
          const std::uint32_t* terminal = names.find(*cell, term);
          if (terminal == nullptr) {
            throw ParseError(line_no, "unknown terminal '" + printable(owner) +
                                          "." + printable(term) + "'");
          }
          net.add_terminal(
              layout::TerminalRef{layout::CellId{*cell}, *terminal});
        }
      }
      lay.add_net(std::move(net));
    } else {
      throw ParseError(line_no, "unknown directive '" + printable(kw) + "'");
    }
  }
  // A stream that *failed* (I/O error) rather than cleanly reaching EOF may
  // have silently dropped trailing directives — never hand back the partial
  // layout it happened to accumulate.
  if (read_failed) {
    throw ParseError(line_no, "I/O error while reading layout");
  }
  if (!have_boundary) {
    throw ParseError(line_no,
                     "input ended without a boundary directive (truncated or "
                     "not a layout)");
  }
  return lay;
}

}  // namespace

layout::Layout read_layout(std::istream& in) {
  // Whole lines only: a line an I/O error cuts short is dropped, as the
  // parse would see it through getline, and the error is reported instead.
  std::string text;
  std::string line;
  while (std::getline(in, line)) {
    text += line;
    text += '\n';
  }
  return parse_layout(text, in.bad());
}

layout::Layout read_layout_string(std::string_view text) {
  return parse_layout(text, false);
}

void write_layout(std::ostream& out, const layout::Layout& lay) {
  const Rect& b = lay.boundary();
  out << "boundary " << b.xlo << ' ' << b.ylo << ' ' << b.xhi << ' ' << b.yhi
      << '\n';
  out << "minsep " << lay.min_separation() << '\n';
  for (const layout::Cell& c : lay.cells()) {
    if (c.polygonal()) {
      out << "poly " << c.name();
      for (const Point& p : c.shape().vertices()) {
        out << ' ' << p.x << ' ' << p.y;
      }
      out << '\n';
    } else {
      const Rect& r = c.outline();
      out << "cell " << c.name() << ' ' << r.xlo << ' ' << r.ylo << ' '
          << r.xhi << ' ' << r.yhi << '\n';
    }
    for (const layout::Terminal& t : c.terminals()) {
      out << "term " << c.name() << ' ' << t.name;
      for (const layout::Pin& p : t.pins) {
        out << ' ' << p.pos.x << ' ' << p.pos.y;
      }
      out << '\n';
    }
  }
  for (const layout::Terminal& t : lay.pads()) {
    out << "pad " << t.name;
    for (const layout::Pin& p : t.pins) out << ' ' << p.pos.x << ' ' << p.pos.y;
    out << '\n';
  }
  for (const layout::Net& n : lay.nets()) {
    out << "net " << n.name();
    for (const layout::TerminalRef& ref : n.terminals()) {
      if (ref.cell.valid()) {
        const layout::Cell& c = lay.cells()[ref.cell.value];
        out << ' ' << c.name() << '.' << c.terminals()[ref.terminal].name;
      } else {
        out << " pad." << lay.pads()[ref.terminal].name;
      }
    }
    out << '\n';
  }
}

std::string write_layout_string(const layout::Layout& lay) {
  std::ostringstream os;
  write_layout(os, lay);
  return os.str();
}

}  // namespace gcr::io
