#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/text_format.hpp"
#include "layout/layout.hpp"

/// \file reference_layout_reader.hpp
/// The stream-based layout reader (getline, an istringstream per line,
/// std::stoll, std::map name lookups), kept as the differential-testing
/// oracle for the single-pass `io::read_layout`.  For every input the two
/// must either throw ParseError with the same line() and what(), or return
/// field-for-field equal layouts; `decoder_fuzz_test` proves it on mutated
/// corpora.  A change to the text format's grammar or diagnostics must land
/// here AND in `src/io/text_format.cpp`, or the differential suite fails —
/// that is the point.

namespace gcr::test {

namespace reference_reader_detail {

inline std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;  // comment to end of line
    out.push_back(tok);
  }
  return out;
}

inline std::string printable(const std::string& tok) {
  std::string out;
  const std::size_t limit = std::min<std::size_t>(tok.size(), 32);
  for (std::size_t i = 0; i < limit; ++i) {
    const unsigned char c = static_cast<unsigned char>(tok[i]);
    out += (c >= 0x20 && c < 0x7f) ? tok[i] : '?';
  }
  if (tok.size() > limit) out += "...";
  return out;
}

inline geom::Coord to_coord(const std::string& s, std::size_t line_no) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return static_cast<geom::Coord>(v);
  } catch (const std::exception&) {
    throw io::ParseError(line_no,
                         "expected integer, got '" + printable(s) + "'");
  }
}

}  // namespace reference_reader_detail

inline layout::Layout reference_read_layout(std::istream& in) {
  using geom::Point;
  using geom::Rect;
  using io::ParseError;
  using reference_reader_detail::printable;
  using reference_reader_detail::to_coord;
  layout::Layout lay;
  std::map<std::string, layout::CellId> cell_by_name;
  std::map<std::string, std::map<std::string, std::uint32_t>> term_by_name;
  std::map<std::string, std::uint32_t> pad_by_name;

  std::string line;
  std::size_t line_no = 0;
  bool have_boundary = false;
  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<std::string> tok =
        reference_reader_detail::tokenize(line);
    if (tok.empty()) continue;
    const std::string& kw = tok[0];
    const auto need = [&](std::size_t n) {
      if (tok.size() < n + 1) {
        throw ParseError(line_no, kw + " needs at least " +
                                      std::to_string(n) + " arguments, got " +
                                      std::to_string(tok.size() - 1));
      }
    };

    if (kw == "boundary") {
      need(4);
      if (have_boundary) {
        throw ParseError(line_no, "duplicate boundary directive");
      }
      const Rect b{to_coord(tok[1], line_no), to_coord(tok[2], line_no),
                   to_coord(tok[3], line_no), to_coord(tok[4], line_no)};
      if (b.xhi <= b.xlo || b.yhi <= b.ylo) {
        throw ParseError(line_no, "boundary is empty or inverted");
      }
      lay.set_boundary(b);
      have_boundary = true;
    } else if (kw == "minsep") {
      need(1);
      lay.set_min_separation(to_coord(tok[1], line_no));
    } else if (kw == "cell") {
      need(5);
      if (cell_by_name.count(tok[1]) != 0) {
        throw ParseError(line_no, "duplicate cell '" + printable(tok[1]) + "'");
      }
      cell_by_name[tok[1]] = lay.add_cell(layout::Cell{
          tok[1], Rect{to_coord(tok[2], line_no), to_coord(tok[3], line_no),
                       to_coord(tok[4], line_no), to_coord(tok[5], line_no)}});
    } else if (kw == "poly") {
      need(7);  // name + at least 3 vertices... 4+ vertices => 8 coords
      if ((tok.size() - 2) % 2 != 0) {
        throw ParseError(line_no, "poly needs an even coordinate count");
      }
      if (cell_by_name.count(tok[1]) != 0) {
        throw ParseError(line_no, "duplicate cell '" + printable(tok[1]) + "'");
      }
      std::vector<Point> verts;
      for (std::size_t i = 2; i + 1 < tok.size(); i += 2) {
        verts.push_back(
            Point{to_coord(tok[i], line_no), to_coord(tok[i + 1], line_no)});
      }
      geom::OrthoPolygon poly(std::move(verts));
      if (!poly.valid()) {
        throw ParseError(line_no, "invalid orthogonal polygon '" +
                                      printable(tok[1]) + "'");
      }
      cell_by_name[tok[1]] = lay.add_cell(layout::Cell{tok[1], std::move(poly)});
    } else if (kw == "term") {
      need(4);
      const auto it = cell_by_name.find(tok[1]);
      if (it == cell_by_name.end()) {
        throw ParseError(line_no, "unknown cell '" + printable(tok[1]) + "'");
      }
      if (term_by_name[tok[1]].count(tok[2]) != 0) {
        throw ParseError(line_no, "duplicate terminal '" + printable(tok[1]) +
                                      "." + printable(tok[2]) + "'");
      }
      if ((tok.size() - 3) % 2 != 0) {
        throw ParseError(line_no, "term needs pin coordinate pairs");
      }
      layout::Terminal term;
      term.name = tok[2];
      for (std::size_t i = 3; i + 1 < tok.size(); i += 2) {
        term.pins.push_back(layout::Pin{
            Point{to_coord(tok[i], line_no), to_coord(tok[i + 1], line_no)},
            term.name});
      }
      term_by_name[tok[1]][tok[2]] =
          lay.cell(it->second).add_terminal(std::move(term));
    } else if (kw == "pad") {
      need(3);
      if (pad_by_name.count(tok[1]) != 0) {
        throw ParseError(line_no, "duplicate pad '" + printable(tok[1]) + "'");
      }
      if ((tok.size() - 2) % 2 != 0) {
        throw ParseError(line_no, "pad needs pin coordinate pairs");
      }
      layout::Terminal term;
      term.name = tok[1];
      for (std::size_t i = 2; i + 1 < tok.size(); i += 2) {
        term.pins.push_back(layout::Pin{
            Point{to_coord(tok[i], line_no), to_coord(tok[i + 1], line_no)},
            term.name});
      }
      pad_by_name[tok[1]] = lay.add_pad(std::move(term));
    } else if (kw == "net") {
      need(3);
      layout::Net net(tok[1]);
      for (std::size_t i = 2; i < tok.size(); ++i) {
        const std::string& ref = tok[i];
        const std::size_t dot = ref.find('.');
        if (dot == std::string::npos) {
          throw ParseError(line_no, "terminal ref '" + printable(ref) +
                                        "' must be cell.term or pad.name");
        }
        const std::string owner = ref.substr(0, dot);
        const std::string term = ref.substr(dot + 1);
        if (owner == "pad") {
          const auto it = pad_by_name.find(term);
          if (it == pad_by_name.end()) {
            throw ParseError(line_no, "unknown pad '" + printable(term) + "'");
          }
          net.add_terminal(layout::TerminalRef{layout::CellId{}, it->second});
        } else {
          const auto cit = cell_by_name.find(owner);
          if (cit == cell_by_name.end()) {
            throw ParseError(line_no, "unknown cell '" + printable(owner) + "'");
          }
          const auto& terms = term_by_name[owner];
          const auto tit = terms.find(term);
          if (tit == terms.end()) {
            throw ParseError(line_no, "unknown terminal '" + printable(owner) +
                                          "." + printable(term) + "'");
          }
          net.add_terminal(layout::TerminalRef{cit->second, tit->second});
        }
      }
      lay.add_net(std::move(net));
    } else {
      throw ParseError(line_no, "unknown directive '" + printable(kw) + "'");
    }
  }
  if (in.bad()) {
    throw ParseError(line_no, "I/O error while reading layout");
  }
  if (!have_boundary) {
    throw ParseError(line_no,
                     "input ended without a boundary directive (truncated or "
                     "not a layout)");
  }
  return lay;
}

inline layout::Layout reference_read_layout_string(const std::string& text) {
  std::istringstream is(text);
  return reference_read_layout(is);
}

}  // namespace gcr::test
