#pragma once

#include <cstddef>
#include <vector>

#include "geometry/geometry.hpp"
#include "spatial/obstacle_index.hpp"

/// \file escape_lines.hpp
/// Escape lines for the gridless line search.
///
/// The paper observes that "optimal paths need only hug the boundaries of
/// cells if they intervene in the path selection."  Formally: among disjoint
/// rectangular obstacles there is always a shortest rectilinear path whose
/// bend points lie on the *escape lines* — the maximal obstacle-free segments
/// extending each obstacle edge through and beyond its corners (plus the
/// source/target projection lines, which the router adds per query).  The
/// gridless successor generator therefore emits successors only where a probe
/// ray crosses an escape line, at the hug point on the blocking boundary, and
/// at the goal-aligned projection.  This is the line-segment representation
/// that replaces the Lee–Moore grid.
///
/// The set is *incrementally updatable* in both directions.
/// `insert_obstacle` splices in the four edge lines of a newly inserted
/// obstacle and clips, in closed form and without tracing, only the lines
/// whose free extension the new interior cuts; `remove_obstacle` — the
/// rip-up direction — retires the
/// removed obstacle's four records and re-extends only the lines its
/// interior had clipped (the same binary-searched candidate range, probed
/// against the index *after* the tombstone so traces pass through).  To
/// make both sound, storage keeps every source obstacle's four lines as
/// distinct records (coincident edges are NOT merged): two obstacles
/// sharing an edge coordinate may have identical spans today yet diverge
/// when a later wire halo lands *between* them, so a merged record could
/// not be split back apart — and symmetrically, removal retires exactly the
/// four records of its own obstacle, so repeated insert/remove cycles can
/// never leak or lose a duplicate.  `crossings_in` deduplicates emitted
/// tracks, so duplicate records never change routing behavior.
///
/// Retired records stay as dead slots in `lines()` (slot k of obstacle i is
/// always 4 + 4i + k, the invariant every update relies on) until `compact`
/// renumbers the set in lockstep with an `ObstacleIndex::compact`.

namespace gcr::spatial {

/// A maximal obstacle-free axis-parallel open corridor line.
/// axis == kX: horizontal line y == track spanning x in `span`;
/// axis == kY: vertical line x == track spanning y in `span`.
struct EscapeLine {
  geom::Axis axis = geom::Axis::kX;
  geom::Coord track = 0;
  geom::Interval span;
  /// Obstacle that generated the line (routing-boundary lines: npos).
  std::size_t source = npos;
  /// Retired by remove_obstacle: the slot lingers (slot arithmetic must
  /// hold) but the line is out of the lookup tables and never crossed.
  bool dead = false;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  friend bool operator==(const EscapeLine&, const EscapeLine&) = default;
};

/// The set of escape lines of a layout, indexed for ray-crossing queries.
class EscapeLineSet {
 public:
  EscapeLineSet() = default;

  /// Builds the escape lines of \p index: for every obstacle, the four edge
  /// lines extended until blocked; plus the four routing-boundary edges.
  /// Construction is embarrassingly parallel per obstacle edge — each
  /// obstacle's lines land in preassigned slots, so the result is
  /// bit-identical for every thread count.  \p threads: 0 = one worker per
  /// hardware thread (small sets stay serial), 1 = serial, N = at most N
  /// (always capped so each worker keeps a minimum per-thread grain of
  /// obstacles; tiny sets degrade to serial).
  explicit EscapeLineSet(const ObstacleIndex& index, unsigned threads = 0);

  /// Line records in a deterministic layout: the four routing-boundary lines
  /// first, then each obstacle's four edge lines in insertion order.
  /// Records from coincident edges are kept distinct (see file comment).
  [[nodiscard]] const std::vector<EscapeLine>& lines() const noexcept {
    return lines_;
  }

  /// Rehydrates a set from serialized records (snapshot restore).  \p lines
  /// must be a from-scratch layout — the four boundary lines, then four
  /// lines per obstacle, all alive, spans already exact — i.e. what
  /// `lines()` reports right after a compaction.  Only the lookup tables
  /// are re-derived; no tracing runs, so restoring skips the expensive
  /// probe work a constructor build would pay.
  [[nodiscard]] static EscapeLineSet restore(std::vector<EscapeLine> lines);

  /// Incrementally accounts for obstacle \p ob, which must have just been
  /// added to \p index (the index this set was built from, after an
  /// `ObstacleIndex::insert`).  Clips the existing lines whose extension
  /// the new interior cuts — a localized subset found by binary search —
  /// and adds the newcomer's four edge lines.  The clip does not trace: a
  /// line's end beyond its source edge's corner moves back to the
  /// newcomer's near edge when that edge lies at or past the corner (a
  /// trace from the corner would stop there, the old span being exact),
  /// and a zero-area newcomer clips nothing.  Only the newcomer's own four
  /// lines are traced.  The result is exactly the line set a from-scratch
  /// build over \p index would produce.
  void insert_obstacle(const ObstacleIndex& index, std::size_t ob);

  /// Incrementally rips obstacle \p ob back out.  \p index must already
  /// have it tombstoned (`ObstacleIndex::remove`), so re-traces extend
  /// through the vacated interior.  Retires the obstacle's four records and
  /// re-extends the lines whose span the removed interior had clipped — a
  /// localized candidate set: tracks strictly inside the removed rect's
  /// perpendicular open span whose spans *touch* its parallel span (a
  /// clipped line abuts the blocking edge exactly).  The result answers
  /// `crossings_in` exactly as a from-scratch build over the remaining live
  /// obstacles would.  Unlike the insert-side clip, this traces: how far a
  /// line grows through the hole depends on the blockers beyond it.
  /// Idempotent for an already-retired obstacle.
  void remove_obstacle(const ObstacleIndex& index, std::size_t ob);

  /// Renumbers the set after an `ObstacleIndex::compact`: dead slots are
  /// erased, survivor slots move to 4 + 4*remap[source], and sources are
  /// rewritten through \p remap.  Spans are already exact (removal
  /// re-extended them), so this is pure bookkeeping — no tracing.
  void compact(const std::vector<std::size_t>& remap);

  /// Records still participating in crossings (boundary lines + 4 per live
  /// obstacle).
  [[nodiscard]] std::size_t live_lines() const noexcept {
    return vertical_by_x_.size() + horizontal_by_y_.size();
  }

  /// Appends to \p out the tracks of the live lines a probe along \p axis
  /// at perpendicular coordinate \p off crosses within the closed range
  /// [\p lo, \p hi]: the lines perpendicular to \p axis whose track lies in
  /// the range and whose span contains \p off, ascending and deduplicated.
  /// Entries already in \p out are left untouched, and a caller that keeps
  /// \p out across calls pays no allocation once it has grown.  One forward
  /// scan of the (track, slot)-sorted lookup table; no sorting.
  void crossings_in(geom::Axis axis, geom::Coord off, geom::Coord lo,
                    geom::Coord hi, std::vector<geom::Coord>& out) const;

 private:
  /// Writes obstacle \p i's four lines into their preassigned slots
  /// (4 + 4i .. 4 + 4i + 3), traced against \p index.
  void trace_obstacle_lines(const ObstacleIndex& index, std::size_t i);
  /// Re-traces the span of the line in slot \p slot from its source
  /// obstacle's corners (track and axis never change, so lookup-table order
  /// is preserved).
  void retrace_line(const ObstacleIndex& index, std::size_t slot);
  void build_tables();
  /// Splices \p slot into \p table at its (track, slot) position.
  void splice_table_slot(std::vector<std::size_t>& table, std::size_t slot);
  /// Removes \p slot from \p table (binary search on the same ordering).
  void erase_table_slot(std::vector<std::size_t>& table, std::size_t slot);

  std::vector<EscapeLine> lines_;
  // Perpendicular lookup tables sorted by track coordinate.
  std::vector<std::size_t> vertical_by_x_;    // crossed by horizontal probes
  std::vector<std::size_t> horizontal_by_y_;  // crossed by vertical probes
};

}  // namespace gcr::spatial
