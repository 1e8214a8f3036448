// Online (streaming) BPS accumulation — the "hardware counter" the paper
// anticipates.
//
// Section III.C: "while I/O performance has received more and more attention
// in recent years, hardware counter for I/O performance is expected to be
// available in the near future." Such a counter would not store 32-byte
// records and sort them afterwards; it would track, in O(1) state, the
// number of in-flight accesses, the cumulative busy time (the union T,
// accumulated at transitions), and the completed blocks B.
//
// OnlineBpsCounter is that counter, fed by access start/finish events in
// nondecreasing time order (which the event loop guarantees). It produces
// exactly the same B, T, and BPS as the offline Figure-3 pipeline — a
// property the tests enforce — with no per-access storage at all.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "trace/io_record.hpp"
#include "trace/trace_collector.hpp"

namespace bpsio::metrics {

class OnlineBpsCounter {
 public:
  /// An access entered the I/O system at time `t`.
  void access_started(SimTime t);
  /// An access completed at time `t`, having required `blocks` blocks.
  /// Failed accesses report their requested size too (they count in B).
  /// A finish with no matching start violates the feeder contract: it is
  /// dropped (neither B nor T moves), counted in unmatched_finishes(), and
  /// logged — it must never underflow the in-flight count, which would
  /// corrupt every later busy interval.
  void access_finished(SimTime t, std::uint64_t blocks);

  std::uint64_t blocks() const { return blocks_; }     ///< B so far
  std::uint32_t in_flight() const { return active_; }
  std::uint64_t accesses_started() const { return started_; }
  std::uint64_t accesses_finished() const { return finished_; }
  /// Contract-violating finishes that were dropped (0 on a healthy feed).
  std::uint64_t unmatched_finishes() const { return unmatched_finishes_; }

  /// T so far: closed busy time plus the currently open busy interval
  /// (up to `now`).
  SimDuration busy_time(SimTime now) const;
  /// BPS so far = B / T(now). 0 while T is zero.
  double bps(SimTime now) const;

  /// Reset all counters (e.g. at a phase boundary).
  void reset();

  std::string to_string(SimTime now) const;

 private:
  std::uint32_t active_ = 0;
  std::int64_t busy_ns_ = 0;      ///< closed busy intervals
  SimTime open_since_{};          ///< start of the current busy interval
  std::uint64_t blocks_ = 0;
  std::uint64_t started_ = 0;
  std::uint64_t finished_ = 0;
  std::uint64_t unmatched_finishes_ = 0;
};

/// The scalar state every exported figure of a sliding window derives
/// from. Fixed-size and trivially copyable: a lock holder copies it out
/// with a plain field copy and computes the rates after unlocking, so a
/// scrape costs the same however many records the window holds.
struct WindowTotals {
  std::uint64_t records = 0;         ///< records whose end is in the window
  std::uint64_t blocks = 0;          ///< B: their full block counts
  std::int64_t busy_ns = 0;          ///< T: busy-time union clamped to it
  std::int64_t response_sum_ns = 0;  ///< sum of their response times
  std::int64_t now_ns = 0;           ///< right edge of the window
  std::int64_t window_ns = 0;        ///< window length W

  SimDuration io_time() const { return SimDuration(busy_ns); }  ///< T
  double bps() const;             ///< B / T; 0 when T = 0
  double iops() const;            ///< records / window length
  double arpt_s() const;          ///< mean response time; 0 when empty
  /// Application bytes per second over the window length.
  double bandwidth_bps(Bytes block_size = kDefaultBlockSize) const;
};
static_assert(std::is_trivially_copyable_v<WindowTotals>);

/// Sliding-window online metrics — the live counterpart of the post-mortem
/// pipeline, built for the aggregation daemons (bpsio_agentd and
/// bpsio_collectord).
///
/// Maintains B, T, IOPS, BW, and ARPT over the trailing window
/// (now - W, now], where `now` is stream time: the largest access end seen
/// (advance() can push it further). T is an exact integer interval-union
/// measure, maintained incrementally:
///
///  * a flat sorted vector of disjoint merged busy intervals, clipped on
///    the left as the window slides (union-then-clamp equals clamp-then-
///    union, so clipping the merged set is exact); flat because the live
///    union is small and cache-dense. Both add()s union their intervals
///    into it with one hinted splice on the interval-union kernel (a
///    span-batch add() splices its whole start-sorted frame at once);
///  * end-ordered eviction runs for B/ARPT expiry — a record belongs to the
///    window while its end lies inside it (end > now - W), and contributes
///    its full block count while it does (the paper clamps time to a
///    window, never blocks — the same rule TimelineConsumer and col_time()
///    apply). Each add(span) stores its live records as one run in end
///    order (sorted only when the frame is not already end-ordered); a
///    min-heap over run heads holds one entry per live run, not per record,
///    and eviction walks each expired run's prefix sequentially. Drained
///    runs are recycled with their capacity, so a steady stream touches no
///    new memory.
///
/// Unlike the batch pipeline, add() accepts records in ANY arrival order —
/// the daemon interleaves frames from many capture clients — and the result
/// is order-independent: the window differential test feeds shuffled
/// permutations and compares against overlap_time_paper/overlap_time_windowed
/// on the same window. State is O(live records in window); totals() is O(1).
/// A single record is a one-record span.
class SlidingWindowMetrics {
 public:
  explicit SlidingWindowMetrics(SimDuration window);

  /// Ingest access records (any arrival order). Advances `now` to the
  /// latest valid end seen; invalid records (end < start) and records
  /// entirely older than the window are ignored. The window state is a
  /// function of the record multiset and `now`, however the records are
  /// split into spans (the order-independence the differential tests
  /// prove). Exploits the
  /// per-connection ordering contract — a frame sorted by start time unions
  /// into the interval store with one hinted splice instead of a search per
  /// record, and a frame sorted by end becomes an eviction run without a
  /// sort — but stays correct (just slower) on unsorted input.
  void add(std::span<const trace::IoRecord> records);

  /// Slide the window forward to `now` (no-op when now <= current now):
  /// evicts expired records and clips the busy-interval union. add() calls
  /// this implicitly; a live exporter calls it before rendering so the
  /// window keeps sliding while traffic is idle.
  void advance(SimTime now);

  SimTime now() const { return SimTime(totals_.now_ns); }
  SimDuration window() const { return SimDuration(totals_.window_ns); }
  /// Left edge of the window, now - W (records with end > this are live).
  std::int64_t window_start_ns() const;

  /// True once any record has been ingested.
  bool any() const { return any_; }
  /// Records currently in the window.
  std::uint64_t accesses() const { return totals_.records; }
  /// B over the window (full block counts of live records).
  std::uint64_t blocks() const { return totals_.blocks; }
  /// T over the window: exact union of busy intervals clamped to it.
  SimDuration io_time() const { return SimDuration(totals_.busy_ns); }
  /// Every figure's inputs in one fixed-size struct (see WindowTotals).
  const WindowTotals& totals() const { return totals_; }
  /// T's busy runs: disjoint, non-touching, sorted by start, all inside the
  /// window; their lengths sum to io_time().
  std::span<const trace::TimeInterval> busy_runs() const { return merged_; }

  double bps() const { return totals_.bps(); }
  double iops() const { return totals_.iops(); }
  double arpt_s() const { return totals_.arpt_s(); }
  double bandwidth_bps(Bytes block_size = kDefaultBlockSize) const {
    return totals_.bandwidth_bps(block_size);
  }

  /// Drop all state (window length is kept).
  void reset();

 private:
  /// What a live record contributes until its end leaves the window.
  struct Live {
    std::int64_t end_ns;
    std::uint64_t record_blocks;
    std::int64_t response_ns;
  };
  /// Live records in nondecreasing end order; [head, size) are in the
  /// window.
  struct Run {
    std::vector<Live> records;
    std::size_t head = 0;
  };
  /// Run-heap entry: a run and the end of its oldest live record.
  struct RunHead {
    std::int64_t end_ns;
    std::uint32_t run;
  };

  /// Union `sorted` (nonempty, in nondecreasing start order) into `merged_`
  /// with one splice over the affected slice.
  void splice(std::span<const trace::TimeInterval> sorted);
  /// A cleared run slot (recycled when one is free) for new records.
  std::uint32_t open_run();
  /// Put a non-empty run's head on the run heap.
  void push_head(std::uint32_t run);
  void evict();
  /// evict()'s run half: drain every run whose head ended at or before ws.
  void evict_runs(std::int64_t ws);

  static constexpr std::uint32_t kNoRun = UINT32_MAX;

  WindowTotals totals_;
  bool any_ = false;
  /// Disjoint, non-touching merged busy intervals sorted by start (hence
  /// also by end), all inside the window.
  std::vector<trace::TimeInterval> merged_;
  /// Scratch: one add(span)'s clipped intervals, then the spliced slice.
  std::vector<trace::TimeInterval> batch_;
  std::vector<trace::TimeInterval> union_out_;
  std::vector<Run> runs_;                ///< run slots, live or free
  std::vector<std::uint32_t> free_runs_;  ///< drained slots to reuse
  std::vector<RunHead> run_heads_;       ///< min-heap on end_ns
};

/// The daemons' "all" row: several keys' windows, advanced to one right
/// edge, as one window. `keys` holds their totals(), `runs` their
/// busy_runs() (any order; unread for one key, which is its own total).
/// Exact: records, blocks and response sums add; T is the union of the
/// run lists, k-way merged into one IntervalUnion, and the union of per-key
/// unions is the union of every record's interval. A record a key dropped
/// as too old is too old here too: this window's edge is never earlier.
WindowTotals combined_totals(
    std::span<const WindowTotals> keys,
    std::span<const std::span<const trace::TimeInterval>> runs,
    SimDuration window);

}  // namespace bpsio::metrics
