#include "layout/layout.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gcr::layout {

std::vector<geom::Rect> Cell::obstacles() const {
  if (!polygonal()) return {outline_};
  // An invalid polygon cannot be decomposed (its edges are not even
  // axis-parallel); fall back to the bounding outline so callers that run
  // before/while validate() reports the issue never see garbage rects.
  if (!shape_->valid()) return {outline_};
  return shape_->blocking_rects();
}

std::uint32_t Cell::add_terminal(Terminal t) {
  terminals_.push_back(std::move(t));
  return static_cast<std::uint32_t>(terminals_.size() - 1);
}

std::uint32_t Cell::add_pin_terminal(std::string name, geom::Point pos) {
  Terminal t;
  t.name = name;
  t.pins.push_back(Pin{pos, std::move(name)});
  return add_terminal(std::move(t));
}

void Cell::translate(geom::Coord dx, geom::Coord dy) {
  outline_ = geom::Rect{outline_.xlo + dx, outline_.ylo + dy,
                        outline_.xhi + dx, outline_.yhi + dy};
  if (shape_.has_value()) {
    std::vector<geom::Point> verts = shape_->vertices();
    for (geom::Point& v : verts) {
      v.x += dx;
      v.y += dy;
    }
    shape_ = geom::OrthoPolygon{std::move(verts)};
  }
  for (Terminal& t : terminals_) {
    for (Pin& p : t.pins) {
      p.pos.x += dx;
      p.pos.y += dy;
    }
  }
}

CellId Layout::add_cell(Cell c) {
  cells_.push_back(std::move(c));
  return CellId{static_cast<std::uint32_t>(cells_.size() - 1)};
}

std::uint32_t Layout::add_pad(Terminal t) {
  pads_.push_back(std::move(t));
  return static_cast<std::uint32_t>(pads_.size() - 1);
}

TerminalRef Layout::add_pad_pin(std::string name, geom::Point pos) {
  Terminal t;
  t.name = name;
  t.pins.push_back(Pin{pos, std::move(name)});
  return TerminalRef{CellId{}, add_pad(std::move(t))};
}

NetId Layout::add_net(Net n) {
  nets_.push_back(std::move(n));
  return NetId{static_cast<std::uint32_t>(nets_.size() - 1)};
}

bool Layout::terminal_exists(const TerminalRef& ref) const noexcept {
  if (!ref.cell.valid()) return ref.terminal < pads_.size();
  if (ref.cell.value >= cells_.size()) return false;
  return ref.terminal < cells_[ref.cell.value].terminals().size();
}

const Terminal& Layout::terminal(const TerminalRef& ref) const {
  if (!ref.cell.valid()) return pads_.at(ref.terminal);
  return cells_.at(ref.cell.value).terminals().at(ref.terminal);
}

std::vector<geom::Rect> Layout::obstacles() const {
  std::vector<geom::Rect> out;
  out.reserve(cells_.size());
  for (const Cell& c : cells_) {
    for (const geom::Rect& r : c.obstacles()) out.push_back(r);
  }
  return out;
}

std::size_t Layout::pin_count() const noexcept {
  std::size_t n = 0;
  for (const Cell& c : cells_) {
    for (const Terminal& t : c.terminals()) n += t.pins.size();
  }
  for (const Terminal& t : pads_) n += t.pins.size();
  return n;
}

namespace {

std::string describe(const TerminalRef& ref) {
  std::ostringstream os;
  if (ref.cell.valid()) {
    os << "cell#" << ref.cell.value << "/term#" << ref.terminal;
  } else {
    os << "pad#" << ref.terminal;
  }
  return os.str();
}

}  // namespace

std::vector<ValidationIssue> Layout::validate() const {
  std::vector<ValidationIssue> issues;
  const auto add = [&issues](ValidationIssue::Kind k, std::string d) {
    issues.push_back(ValidationIssue{k, std::move(d)});
  };
  // Labels are built only when an issue is recorded: a valid layout formats
  // no strings at all.
  const auto cell_label = [this](std::size_t i) {
    return "cell#" + std::to_string(i) + " '" + cells_[i].name() + "'";
  };
  const auto term_label = [](std::size_t i, std::size_t t) {
    return "cell#" + std::to_string(i) + "/term#" + std::to_string(t);
  };
  const auto pad_label = [](std::size_t t) {
    return "pad#" + std::to_string(t);
  };

  // -- Coordinate range.  The checks below and the router's cost arithmetic
  //    subtract and scale coordinates, which is only defined inside the
  //    bound, so an out-of-range layout reports nothing else.
  const auto in_range = [](geom::Coord v) {
    return v >= -kMaxCoordinate && v <= kMaxCoordinate;
  };
  const auto rect_in_range = [&in_range](const geom::Rect& r) {
    return in_range(r.xlo) && in_range(r.ylo) && in_range(r.xhi) &&
           in_range(r.yhi);
  };
  const auto pins_in_range = [&in_range](const Terminal& t) {
    return std::all_of(t.pins.begin(), t.pins.end(), [&](const Pin& p) {
      return in_range(p.pos.x) && in_range(p.pos.y);
    });
  };
  constexpr auto kOutOfRange = ValidationIssue::Kind::kCoordinateOutOfRange;
  if (!rect_in_range(boundary_)) add(kOutOfRange, "boundary");
  if (!in_range(min_separation_)) add(kOutOfRange, "minsep");
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    // A polygon's vertices lie inside its outline (the bounding box).
    if (!rect_in_range(cells_[i].outline())) add(kOutOfRange, cell_label(i));
    const std::vector<Terminal>& terms = cells_[i].terminals();
    for (std::size_t t = 0; t < terms.size(); ++t) {
      if (!pins_in_range(terms[t])) add(kOutOfRange, term_label(i, t));
    }
  }
  for (std::size_t t = 0; t < pads_.size(); ++t) {
    if (!pins_in_range(pads_[t])) add(kOutOfRange, pad_label(t));
  }
  if (!issues.empty()) return issues;

  // -- Placement restrictions (paper: rectangular, orthogonal, finite and
  //    non-zero distance apart, inside the routing boundary).
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const Cell& c = cells_[i];
    if (!c.outline().proper()) {
      add(ValidationIssue::Kind::kCellNotProper, cell_label(i));
      continue;
    }
    if (c.polygonal() && !c.shape().valid()) {
      add(ValidationIssue::Kind::kInvalidPolygon, cell_label(i));
      continue;
    }
    if (!boundary_.empty() && !boundary_.contains(c.outline())) {
      add(ValidationIssue::Kind::kCellOutsideBoundary, cell_label(i));
    }
  }
  // Pairwise separation is measured between the cells' actual blocking
  // rectangles (polygon cells decompose), so nested orthogonal-polygon
  // shapes with overlapping bounding boxes are judged correctly.
  const auto placeable = [](const Cell& c) {
    return c.outline().proper() && (!c.polygonal() || c.shape().valid());
  };
  std::vector<std::vector<geom::Rect>> cell_obstacles;
  cell_obstacles.reserve(cells_.size());
  for (const Cell& c : cells_) cell_obstacles.push_back(c.obstacles());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (!placeable(cells_[i])) continue;
    for (std::size_t j = i + 1; j < cells_.size(); ++j) {
      if (!placeable(cells_[j])) continue;
      geom::Coord sep = geom::kCoordMax;
      for (const geom::Rect& a : cell_obstacles[i]) {
        for (const geom::Rect& b : cell_obstacles[j]) {
          sep = std::min(sep, a.separation(b));
        }
      }
      if (sep < min_separation_) {
        std::ostringstream os;
        os << "cell#" << i << " and cell#" << j << " separation " << sep
           << " < " << min_separation_;
        add(ValidationIssue::Kind::kCellsTooClose, os.str());
      }
    }
  }

  // -- Pins must not sit strictly inside any blocking interior (a pin on a
  //    cell boundary is the normal case; a buried pin is unreachable).
  const auto obstacle_rects = obstacles();
  const auto check_pins = [&](const Terminal& t, const auto& label) {
    if (t.pins.empty()) {
      add(ValidationIssue::Kind::kTerminalNoPins, label());
      return;
    }
    for (const Pin& p : t.pins) {
      for (const geom::Rect& r : obstacle_rects) {
        if (r.contains_open(p.pos)) {
          std::ostringstream os;
          os << label() << " pin " << p.pos << " inside obstacle " << r;
          add(ValidationIssue::Kind::kPinInsideCell, os.str());
          break;
        }
      }
    }
  };
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    for (std::size_t t = 0; t < cells_[i].terminals().size(); ++t) {
      check_pins(cells_[i].terminals()[t], [&] { return term_label(i, t); });
    }
  }
  for (std::size_t t = 0; t < pads_.size(); ++t) {
    check_pins(pads_[t], [&] { return pad_label(t); });
  }

  // -- Netlist consistency.
  for (std::size_t n = 0; n < nets_.size(); ++n) {
    const Net& net = nets_[n];
    const auto net_label = [&] {
      return "net#" + std::to_string(n) + " '" + net.name() + "'";
    };
    if (net.terminals().size() < 2) {
      add(ValidationIssue::Kind::kNetTooSmall, net_label());
    }
    for (const TerminalRef& ref : net.terminals()) {
      if (!terminal_exists(ref)) {
        add(ValidationIssue::Kind::kDanglingTerminal,
            net_label() + " -> " + describe(ref));
      }
    }
  }
  return issues;
}

std::string_view to_string(ValidationIssue::Kind k) noexcept {
  using Kind = ValidationIssue::Kind;
  switch (k) {
    case Kind::kCellNotProper: return "cell-not-proper";
    case Kind::kCellOutsideBoundary: return "cell-outside-boundary";
    case Kind::kCellsTooClose: return "cells-too-close";
    case Kind::kInvalidPolygon: return "invalid-polygon";
    case Kind::kPinInsideCell: return "pin-inside-cell";
    case Kind::kDanglingTerminal: return "dangling-terminal";
    case Kind::kNetTooSmall: return "net-too-small";
    case Kind::kTerminalNoPins: return "terminal-no-pins";
    case Kind::kCoordinateOutOfRange: return "coordinate-out-of-range";
  }
  return "unknown";
}

}  // namespace gcr::layout
