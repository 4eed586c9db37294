#include "spatial/escape_lines.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <thread>
#include <vector>

namespace gcr::spatial {

using geom::Axis;
using geom::Coord;
using geom::Dir;
using geom::Interval;
using geom::Point;
using geom::Rect;

namespace {

/// Below this obstacle count a parallel build costs more in thread spawn
/// than the traces are worth; measured on the bench_serve cold-load table.
constexpr std::size_t kParallelThreshold = 256;
/// Minimum obstacles per worker so threads do not fight over tiny chunks.
constexpr std::size_t kParallelGrain = 64;

std::size_t resolve_build_workers(unsigned requested, std::size_t jobs) {
  std::size_t n = requested;
  if (n == 0) {
    if (jobs < kParallelThreshold) return 1;
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  return std::max<std::size_t>(
      1, std::min(n, jobs / std::max<std::size_t>(kParallelGrain, 1)));
}

}  // namespace

void EscapeLineSet::trace_obstacle_lines(const ObstacleIndex& index,
                                         std::size_t i) {
  const Rect& r = index.obstacles()[i];
  const std::size_t base = 4 + 4 * i;
  // Vertical lines through the left/right edges, extended through the
  // corners until blocked.  The edge itself is always part of the line:
  // edges are routable hug corridors.
  std::size_t slot = base;
  for (const Coord x : {r.xlo, r.xhi}) {
    const Coord lo = index.trace(Point{x, r.ylo}, Dir::kSouth).stop;
    const Coord hi = index.trace(Point{x, r.yhi}, Dir::kNorth).stop;
    lines_[slot++] = {Axis::kY, x, Interval{lo, hi}, i};
  }
  // Horizontal lines through the bottom/top edges.
  for (const Coord y : {r.ylo, r.yhi}) {
    const Coord lo = index.trace(Point{r.xlo, y}, Dir::kWest).stop;
    const Coord hi = index.trace(Point{r.xhi, y}, Dir::kEast).stop;
    lines_[slot++] = {Axis::kX, y, Interval{lo, hi}, i};
  }
}

void EscapeLineSet::retrace_line(const ObstacleIndex& index,
                                 std::size_t slot) {
  EscapeLine& ln = lines_[slot];
  assert(ln.source != EscapeLine::npos && "boundary lines are never clipped");
  const Rect& r = index.obstacles()[ln.source];
  if (ln.axis == Axis::kY) {
    ln.span = {index.trace(Point{ln.track, r.ylo}, Dir::kSouth).stop,
               index.trace(Point{ln.track, r.yhi}, Dir::kNorth).stop};
  } else {
    ln.span = {index.trace(Point{r.xlo, ln.track}, Dir::kWest).stop,
               index.trace(Point{r.xhi, ln.track}, Dir::kEast).stop};
  }
}

void EscapeLineSet::splice_table_slot(std::vector<std::size_t>& table,
                                      std::size_t slot) {
  const auto at = std::upper_bound(
      table.begin(), table.end(), slot,
      [this](std::size_t a, std::size_t b) {
        return lines_[a].track != lines_[b].track
                   ? lines_[a].track < lines_[b].track
                   : a < b;
      });
  table.insert(at, slot);
}

void EscapeLineSet::erase_table_slot(std::vector<std::size_t>& table,
                                     std::size_t slot) {
  // The tables are sorted by (track, slot), so the exact entry is a binary
  // search away; the slot's record must still carry its track.
  const auto it = std::lower_bound(
      table.begin(), table.end(), slot,
      [this](std::size_t a, std::size_t b) {
        return lines_[a].track != lines_[b].track
                   ? lines_[a].track < lines_[b].track
                   : a < b;
      });
  if (it != table.end() && *it == slot) table.erase(it);
}

EscapeLineSet EscapeLineSet::restore(std::vector<EscapeLine> lines) {
  EscapeLineSet out;
  out.lines_ = std::move(lines);
  out.build_tables();
  return out;
}

void EscapeLineSet::build_tables() {
  vertical_by_x_.clear();
  horizontal_by_y_.clear();
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    if (lines_[i].dead) continue;  // retired records never re-enter
    (lines_[i].axis == Axis::kY ? vertical_by_x_ : horizontal_by_y_)
        .push_back(i);
  }
  // Ties broken by slot index so the table layout is deterministic (the
  // crossings output is tie-order independent either way).
  const auto by_track = [this](std::size_t a, std::size_t b) {
    return lines_[a].track != lines_[b].track ? lines_[a].track < lines_[b].track
                                              : a < b;
  };
  std::sort(vertical_by_x_.begin(), vertical_by_x_.end(), by_track);
  std::sort(horizontal_by_y_.begin(), horizontal_by_y_.end(), by_track);
}

EscapeLineSet::EscapeLineSet(const ObstacleIndex& index, unsigned threads) {
  const Rect& bounds = index.boundary();
  const std::size_t n = index.size();
  lines_.resize(4 + 4 * n);

  // Boundary edges are routable corridors too.  They carry their full
  // extent unconditionally — by definition, not by tracing — and
  // insert_obstacle exempts them the same way, so both construction paths
  // agree even when a wire halo protrudes across a boundary edge.  (A
  // stale crossing hint there is harmless: successor candidates are always
  // clipped to the ray's traced extent.)
  lines_[0] = {Axis::kX, bounds.ylo, bounds.xs(), EscapeLine::npos};
  lines_[1] = {Axis::kX, bounds.yhi, bounds.xs(), EscapeLine::npos};
  lines_[2] = {Axis::kY, bounds.xlo, bounds.ys(), EscapeLine::npos};
  lines_[3] = {Axis::kY, bounds.xhi, bounds.ys(), EscapeLine::npos};

  // Per-obstacle slots are preassigned, so workers write disjoint ranges of
  // lines_ against a read-only index: bit-identical for any worker count.
  const std::size_t workers = resolve_build_workers(threads, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) trace_obstacle_lines(index, i);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    const std::size_t chunk = (n + workers - 1) / workers;
    for (std::size_t w = 0; w < workers; ++w) {
      const std::size_t lo = w * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      if (lo >= hi) break;
      pool.emplace_back([this, &index, lo, hi] {
        for (std::size_t i = lo; i < hi; ++i) trace_obstacle_lines(index, i);
      });
    }
    for (std::thread& t : pool) t.join();
  }

  build_tables();
}

void EscapeLineSet::insert_obstacle(const ObstacleIndex& index,
                                    std::size_t ob) {
  assert(ob + 1 == index.size() && "insert_obstacle expects the newest obstacle");
  assert(lines_.size() == 4 + 4 * ob &&
         "line set out of step with the index it was built from");
  const Rect& r = index.obstacles()[ob];

  // Clip the existing lines the new interior cuts, in closed form.  A
  // line's span is the stops of two traces from its source edge's corners,
  // and the newcomer blocks such a trace only when the line's track lies
  // strictly inside its perpendicular open span and its near edge is at or
  // past the corner.  The span was exact, so the new trace stops at the
  // nearer of the old stop and that near edge: no tracing is needed.  A
  // zero-area newcomer has no interior and clips nothing; boundary lines
  // are exempt by construction (see ctor).
  const auto clip = [&](const std::vector<std::size_t>& table,
                        const Interval& track_open, const Interval& block) {
    if (!r.proper()) return;
    const auto first = std::upper_bound(
        table.begin(), table.end(), track_open.lo,
        [this](Coord v, std::size_t idx) { return v < lines_[idx].track; });
    const auto last = std::lower_bound(
        first, table.end(), track_open.hi,
        [this](std::size_t idx, Coord v) { return lines_[idx].track < v; });
    for (auto it = first; it != last; ++it) {
      EscapeLine& ln = lines_[*it];
      if (ln.source == EscapeLine::npos) continue;
      const Interval edge = index.obstacles()[ln.source].span(ln.axis);
      if (block.lo >= edge.hi) ln.span.hi = std::min(ln.span.hi, block.lo);
      if (block.hi <= edge.lo) ln.span.lo = std::max(ln.span.lo, block.hi);
    }
  };
  clip(vertical_by_x_, r.xs(), r.ys());
  clip(horizontal_by_y_, r.ys(), r.xs());

  // Append the newcomer's four lines (traced against the index that already
  // contains it) and splice their slots into the lookup tables.
  lines_.resize(lines_.size() + 4);
  trace_obstacle_lines(index, ob);
  const std::size_t base = 4 + 4 * ob;
  splice_table_slot(vertical_by_x_, base);        // left edge line (Y)
  splice_table_slot(vertical_by_x_, base + 1);    // right edge line (Y)
  splice_table_slot(horizontal_by_y_, base + 2);  // bottom edge line (X)
  splice_table_slot(horizontal_by_y_, base + 3);  // top edge line (X)
}

void EscapeLineSet::remove_obstacle(const ObstacleIndex& index,
                                    std::size_t ob) {
  assert(ob < index.size() && !index.alive(ob) &&
         "remove_obstacle expects an index that already tombstoned ob");
  assert(lines_.size() == 4 + 4 * index.size() &&
         "line set out of step with the index it was built from");
  const std::size_t base = 4 + 4 * ob;
  if (lines_[base].dead) return;  // retried after a failed multi-step update
  const Rect& r = index.obstacles()[ob];

  // Retire the obstacle's four records: out of the lookup tables first
  // (erase needs the still-live track), then flagged.  Spans are blanked so
  // a stale record can never masquerade as a corridor.
  erase_table_slot(vertical_by_x_, base);
  erase_table_slot(vertical_by_x_, base + 1);
  erase_table_slot(horizontal_by_y_, base + 2);
  erase_table_slot(horizontal_by_y_, base + 3);
  for (std::size_t k = 0; k < 4; ++k) {
    lines_[base + k].dead = true;
    lines_[base + k].span = {};
  }

  // Re-extend the lines the vacated interior had clipped.  A line was
  // clipped by `r` only if its track lies strictly inside r's perpendicular
  // open span (an obstacle blocks only rays strictly inside it), and a
  // clipped span *abuts* the blocking edge — so candidates are the same
  // binary-searched track range as the insert-side clip, tested with
  // closed (touching) span overlap.  Re-tracing an unclipped candidate is
  // idempotent, and the traces run against the post-tombstone index, so
  // spans grow through the hole exactly as a from-scratch build would
  // find them.
  const auto reextend = [&](const std::vector<std::size_t>& table,
                            const Interval& track_open,
                            const Interval& edge_span) {
    if (track_open.lo >= track_open.hi) return;  // degenerate: blocked nothing
    const auto first = std::upper_bound(
        table.begin(), table.end(), track_open.lo,
        [this](Coord v, std::size_t idx) { return v < lines_[idx].track; });
    const auto last = std::lower_bound(
        first, table.end(), track_open.hi,
        [this](std::size_t idx, Coord v) { return lines_[idx].track < v; });
    for (auto it = first; it != last; ++it) {
      const EscapeLine& ln = lines_[*it];
      if (ln.source == EscapeLine::npos) continue;  // boundary: full extent
      if (!ln.span.overlaps(edge_span)) continue;
      retrace_line(index, *it);
    }
  };
  reextend(vertical_by_x_, r.xs(), r.ys());
  reextend(horizontal_by_y_, r.ys(), r.xs());
}

void EscapeLineSet::compact(const std::vector<std::size_t>& remap) {
  assert(lines_.size() == 4 + 4 * remap.size() &&
         "compact remap out of step with the line set");
  std::size_t live = 0;
  for (const std::size_t to : remap) live += to != ObstacleIndex::npos;
  std::vector<EscapeLine> next(4 + 4 * live);
  for (std::size_t k = 0; k < 4; ++k) next[k] = lines_[k];
  for (std::size_t i = 0; i < remap.size(); ++i) {
    const std::size_t to = remap[i];
    if (to == ObstacleIndex::npos) continue;
    for (std::size_t k = 0; k < 4; ++k) {
      EscapeLine& moved = next[4 + 4 * to + k];
      moved = lines_[4 + 4 * i + k];
      assert(!moved.dead && "survivor slot holds a retired record");
      moved.source = to;
    }
  }
  lines_.swap(next);
  build_tables();
}

void EscapeLineSet::crossings_in(Axis axis, Coord off, Coord lo, Coord hi,
                                 std::vector<Coord>& out) const {
  const std::vector<std::size_t>& table =
      axis == Axis::kX ? vertical_by_x_ : horizontal_by_y_;

  // The table is sorted by (track, slot): scan forward from the first
  // track >= lo until a track passes hi.  Tracks arrive ascending, so a
  // duplicate (coincident records) can only repeat the last one appended.
  const std::size_t base = out.size();
  for (auto it = std::lower_bound(
           table.begin(), table.end(), lo,
           [this](std::size_t idx, Coord v) { return lines_[idx].track < v; });
       it != table.end(); ++it) {
    const EscapeLine& ln = lines_[*it];
    if (ln.track > hi) break;
    if (!ln.span.contains(off)) continue;
    if (out.size() > base && out.back() == ln.track) continue;
    out.push_back(ln.track);
  }
}

}  // namespace gcr::spatial
