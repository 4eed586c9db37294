#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "geometry/geometry.hpp"
#include "layout/ids.hpp"

/// \file layout.hpp
/// The general-cell layout model: rectangular (or orthogonal-polygon) blocks
/// placed orthogonally a non-zero distance apart, with multi-pin terminals
/// grouped into multi-terminal nets — exactly the problem statement of the
/// paper's introduction.

namespace gcr::layout {

/// A physical connection point.  Gridless: any database-unit coordinate.
struct Pin {
  geom::Point pos;
  std::string name;  ///< optional; empty for anonymous pins
};

/// A logical terminal: one or more electrically-equivalent pins.
/// "Multi-pin terminals are handled by logically grouping all pins which
/// belong to a terminal" — connecting any one pin connects the terminal, and
/// all of its pins join the connected set.
struct Terminal {
  std::string name;
  std::vector<Pin> pins;
};

/// A placed block ("general cell", macro).  The outline is the blocking
/// region; routes may hug its boundary but not cross its open interior.
/// Orthogonal-polygon cells (the paper's extension) carry a shape whose
/// rectangle decomposition supplies the obstacles; rectangular cells use the
/// outline directly.
class Cell {
 public:
  Cell() = default;
  Cell(std::string name, geom::Rect outline)
      : name_(std::move(name)), outline_(outline) {}
  Cell(std::string name, geom::OrthoPolygon shape)
      : name_(std::move(name)),
        outline_(shape.bounding_box()),
        shape_(std::move(shape)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const geom::Rect& outline() const noexcept { return outline_; }
  [[nodiscard]] bool polygonal() const noexcept { return shape_.has_value(); }
  [[nodiscard]] const geom::OrthoPolygon& shape() const {
    return *shape_;
  }

  /// The blocking rectangles this cell contributes: {outline} when
  /// rectangular, the polygon decomposition otherwise.
  [[nodiscard]] std::vector<geom::Rect> obstacles() const;

  [[nodiscard]] const std::vector<Terminal>& terminals() const noexcept {
    return terminals_;
  }

  /// Adds a terminal; returns its index within this cell.
  std::uint32_t add_terminal(Terminal t);

  /// Convenience: single-pin terminal at \p pos.
  std::uint32_t add_pin_terminal(std::string name, geom::Point pos);

  /// Rigid translation of the cell: outline, polygon shape, and every pin
  /// move together.  Used by the placement-adjustment feedback loop.
  void translate(geom::Coord dx, geom::Coord dy);

 private:
  std::string name_;
  geom::Rect outline_;
  std::optional<geom::OrthoPolygon> shape_;
  std::vector<Terminal> terminals_;
};

/// A net connects two or more terminals.  Routing builds an approximate
/// Steiner tree over them.
class Net {
 public:
  Net() = default;
  explicit Net(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<TerminalRef>& terminals() const noexcept {
    return terminals_;
  }
  void add_terminal(TerminalRef ref) { terminals_.push_back(ref); }

 private:
  std::string name_;
  std::vector<TerminalRef> terminals_;
};

/// Largest coordinate magnitude a valid layout may use (2^31 - 1), and the
/// largest minimum separation.  Inside it a Manhattan distance is below
/// 2^33 and a scaled edge cost (length * route::kCostScale = 64) below 2^39,
/// so path costs summed over any route stay far from int64 overflow.
inline constexpr geom::Coord kMaxCoordinate = (geom::Coord{1} << 31) - 1;

/// One placement-rule or netlist-consistency violation found by validation.
struct ValidationIssue {
  enum class Kind {
    kCellNotProper,        ///< zero-width/height or empty outline
    kCellOutsideBoundary,  ///< outline not contained in the routing boundary
    kCellsTooClose,        ///< separation not strictly positive (or < minimum)
    kInvalidPolygon,       ///< orthogonal-polygon shape fails validity
    kPinInsideCell,        ///< pin strictly inside some cell's interior
    kDanglingTerminal,     ///< net references a terminal that does not exist
    kNetTooSmall,          ///< net with fewer than two terminals
    kTerminalNoPins,       ///< terminal with no pins
    kCoordinateOutOfRange,  ///< a coordinate or minsep beyond kMaxCoordinate
  };
  Kind kind;
  std::string detail;
};

/// The complete routing problem: boundary, placed cells, pad terminals, nets.
class Layout {
 public:
  Layout() = default;
  explicit Layout(geom::Rect boundary) : boundary_(boundary) {}

  [[nodiscard]] const geom::Rect& boundary() const noexcept {
    return boundary_;
  }
  void set_boundary(geom::Rect b) noexcept { boundary_ = b; }

  /// Minimum inter-cell separation the placement must respect.  The paper
  /// requires blocks "placed a finite and non-zero distance apart"; callers
  /// may demand more than 1 DBU to reserve routing space.
  [[nodiscard]] geom::Coord min_separation() const noexcept {
    return min_separation_;
  }
  void set_min_separation(geom::Coord s) noexcept { min_separation_ = s; }

  [[nodiscard]] const std::vector<Cell>& cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] const Cell& cell(CellId id) const { return cells_.at(id.value); }
  [[nodiscard]] Cell& cell(CellId id) { return cells_.at(id.value); }
  CellId add_cell(Cell c);

  /// Pad terminals: cell-less terminals (e.g. chip I/O pads on the boundary).
  [[nodiscard]] const std::vector<Terminal>& pads() const noexcept {
    return pads_;
  }
  std::uint32_t add_pad(Terminal t);
  /// Convenience: single-pin pad.
  TerminalRef add_pad_pin(std::string name, geom::Point pos);

  [[nodiscard]] const std::vector<Net>& nets() const noexcept { return nets_; }
  [[nodiscard]] const Net& net(NetId id) const { return nets_.at(id.value); }
  NetId add_net(Net n);

  /// Resolves a terminal reference; throws std::out_of_range when dangling.
  [[nodiscard]] const Terminal& terminal(const TerminalRef& ref) const;
  [[nodiscard]] bool terminal_exists(const TerminalRef& ref) const noexcept;

  /// All blocking rectangles (cells, polygon cells decomposed), in cell order.
  [[nodiscard]] std::vector<geom::Rect> obstacles() const;

  /// Checks every placement restriction and netlist invariant; empty result
  /// means the layout is routable by the global router.  Coordinates beyond
  /// kMaxCoordinate are reported alone (kCoordinateOutOfRange): the other
  /// checks are not run on them.
  [[nodiscard]] std::vector<ValidationIssue> validate() const;
  [[nodiscard]] bool valid() const { return validate().empty(); }

  /// Total pin count across cells and pads (for reporting).
  [[nodiscard]] std::size_t pin_count() const noexcept;

 private:
  geom::Rect boundary_;
  geom::Coord min_separation_ = 1;
  std::vector<Cell> cells_;
  std::vector<Terminal> pads_;
  std::vector<Net> nets_;
};

[[nodiscard]] std::string_view to_string(ValidationIssue::Kind k) noexcept;

}  // namespace gcr::layout
