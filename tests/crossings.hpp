#pragma once

#include <vector>

#include "spatial/escape_lines.hpp"

namespace gcr::test {

/// The crossings of one probe ray as a fresh vector, for tests that compare
/// whole answers.
inline std::vector<geom::Coord> crossings(const spatial::EscapeLineSet& lines,
                                          const geom::Point& from, geom::Dir d,
                                          geom::Coord stop) {
  std::vector<geom::Coord> out;
  lines.crossings(from, d, stop, out);
  return out;
}

}  // namespace gcr::test
