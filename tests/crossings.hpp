#pragma once

#include <algorithm>
#include <vector>

#include "spatial/escape_lines.hpp"

namespace gcr::test {

/// The crossings of the directed probe ray from \p from to the stop
/// coordinate \p stop: the tracks of the live lines perpendicular to the
/// probe that lie beyond the origin (exclusive) and up to the stop
/// (inclusive) and whose span contains the probe's perpendicular
/// coordinate, in travel order, deduplicated.  This is the directional
/// query the router asked before its run memo.  It filters every record of
/// `lines()` instead of reading the lookup tables, so it is an oracle for
/// `EscapeLineSet::crossings_in` and for the tables' incremental upkeep.
inline std::vector<geom::Coord> crossings(const spatial::EscapeLineSet& lines,
                                          const geom::Point& from, geom::Dir d,
                                          geom::Coord stop) {
  const geom::Axis ax = axis_of(d);
  const geom::Coord origin = from.along(ax);
  const geom::Coord off = from.along(geom::other(ax));
  const geom::Coord lo = std::min(origin, stop);
  const geom::Coord hi = std::max(origin, stop);
  std::vector<geom::Coord> out;
  for (const spatial::EscapeLine& ln : lines.lines()) {
    if (ln.dead || ln.axis == ax) continue;
    if (ln.track < lo || ln.track > hi) continue;
    if (ln.track == origin) continue;  // exclusive of the ray origin
    if (!ln.span.contains(off)) continue;
    out.push_back(ln.track);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (sign_of(d) < 0) std::reverse(out.begin(), out.end());
  return out;
}

/// `EscapeLineSet::crossings_in` as a fresh vector, for tests that compare
/// whole answers.
inline std::vector<geom::Coord> crossings_in(
    const spatial::EscapeLineSet& lines, geom::Axis axis, geom::Coord off,
    geom::Coord lo, geom::Coord hi) {
  std::vector<geom::Coord> out;
  lines.crossings_in(axis, off, lo, hi, out);
  return out;
}

}  // namespace gcr::test
