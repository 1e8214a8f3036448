#include "trace/record_source.hpp"

#include <algorithm>

namespace bpsio::trace {

namespace {

// The canonical record order (PAPER.md §III.B / Figure 3): by start time,
// ties by end time.
bool key_less(const IoRecord& a, const IoRecord& b) {
  return a.start_ns < b.start_ns ||
         (a.start_ns == b.start_ns && a.end_ns < b.end_ns);
}

// Stable so equal keys keep their input order — this is the same
// comparator merge_traces_parallel's per-source stage uses.
void sort_records(std::vector<IoRecord>& records) {
  std::stable_sort(records.begin(), records.end(), key_less);
}

}  // namespace

// ---------------------------------------------------------------------------
// VectorSource
// ---------------------------------------------------------------------------

VectorSource::VectorSource(std::vector<IoRecord> owned,
                           std::span<const IoRecord> data,
                           std::size_t chunk_records)
    : owned_(std::move(owned)),
      data_(data),
      chunk_(chunk_records ? chunk_records : 1) {
  if (!owned_.empty() || data_.empty()) data_ = owned_;
}

VectorSource VectorSource::view(std::span<const IoRecord> records,
                                std::size_t chunk_records) {
  return VectorSource({}, records, chunk_records);
}

VectorSource VectorSource::sorted(std::vector<IoRecord> records,
                                  std::size_t chunk_records) {
  sort_records(records);
  return VectorSource(std::move(records), {}, chunk_records);
}

std::span<const IoRecord> VectorSource::next_chunk() {
  if (pos_ >= data_.size()) return {};
  const std::size_t take = std::min(chunk_, data_.size() - pos_);
  const auto chunk = data_.subspan(pos_, take);
  pos_ += take;
  return chunk;
}

VectorSource collector_source(const TraceCollector& collector,
                              const RecordFilter& filter,
                              std::size_t chunk_records) {
  std::vector<IoRecord> snapshot;
  snapshot.reserve(collector.record_count());
  for (const IoRecord& r : collector.records()) {
    if (filter.matches(r)) snapshot.push_back(r);
  }
  return VectorSource::sorted(std::move(snapshot), chunk_records);
}

VectorSource collector_view(const TraceCollector& collector,
                            std::size_t chunk_records) {
  return VectorSource::view(collector.records(), chunk_records);
}

// ---------------------------------------------------------------------------
// SpilledTraceSource
// ---------------------------------------------------------------------------

SpilledTraceSource::SpilledTraceSource(std::string path,
                                       std::size_t chunk_records)
    : path_(std::move(path)),
      in_(path_, std::ios::binary),
      chunk_(chunk_records ? chunk_records : 1) {
  if (!in_) {
    status_ = Status{Errc::not_found, "cannot open " + path_};
    return;
  }
  auto header = read_trace_header(in_);
  if (!header.ok()) {
    status_ = Status{header.error()};
    return;
  }
  header_ = *header;
  remaining_ = header_.record_count;
}

std::span<const IoRecord> SpilledTraceSource::next_chunk() {
  if (!status_.ok() || remaining_ == 0) return {};
  const auto take =
      static_cast<std::size_t>(std::min<std::uint64_t>(remaining_, chunk_));
  buf_.resize(take);
  in_.read(reinterpret_cast<char*>(buf_.data()),
           static_cast<std::streamsize>(take * sizeof(IoRecord)));
  const auto got_bytes = static_cast<std::uint64_t>(in_.gcount());
  if (got_bytes != take * sizeof(IoRecord)) {
    // Same wording as read_binary(): truncation is the same corruption
    // whether the trace is loaded whole or streamed.
    const std::uint64_t got_records = delivered_ + got_bytes / sizeof(IoRecord);
    status_ = Status{Errc::io_error,
                     "trace truncated: header claims " +
                         std::to_string(header_.record_count) +
                         " records, found " + std::to_string(got_records)};
    buf_.clear();
    remaining_ = 0;
    return {};
  }
  delivered_ += take;
  remaining_ -= take;
  return {buf_.data(), buf_.size()};
}

std::optional<std::uint64_t> SpilledTraceSource::size_hint() const {
  if (!status_.ok()) return std::nullopt;
  return header_.record_count;
}

// ---------------------------------------------------------------------------
// MergedSource
// ---------------------------------------------------------------------------

MergedSource::MergedSource(std::vector<std::unique_ptr<RecordSource>> children,
                           MergeOptions options, std::size_t chunk_records)
    : options_(options), chunk_(chunk_records ? chunk_records : 1) {
  children_.reserve(children.size());
  std::uint64_t total = 0;
  bool all_known = true;
  for (std::size_t i = 0; i < children.size(); ++i) {
    Child c;
    c.src = std::move(children[i]);
    c.index = static_cast<std::uint32_t>(i);
    if (const auto hint = c.src->size_hint(); hint && all_known) {
      total += *hint;
    } else {
      all_known = false;
    }
    children_.push_back(std::move(c));
  }
  if (all_known) hint_ = total;
  out_.reserve(chunk_);
}

bool MergedSource::refill(Child& child) {
  if (child.done) return false;
  const auto chunk = child.src->next_chunk();
  if (chunk.empty()) {
    child.done = true;
    if (const Status s = child.src->status(); !s.ok() && status_.ok()) {
      status_ = s;
    }
    return false;
  }
  if (child.first) {
    child.first = false;
    // Ordered child stream: the first record carries the earliest start, so
    // this is the same shift the batch merge computes with a full min-scan.
    if (options_.alignment == TimeAlignment::align_starts) {
      child.shift = -chunk.front().start_ns;
    }
  }
  if (options_.pid_stride > 0 || child.shift != 0) {
    child.buf.assign(chunk.begin(), chunk.end());
    for (IoRecord& r : child.buf) {
      if (options_.pid_stride > 0) {
        r.pid = (child.index + 1) * options_.pid_stride + r.pid;
      }
      r.start_ns += child.shift;
      r.end_ns += child.shift;
    }
    child.view = child.buf;
  } else {
    // No transform: serve the child's span directly (for an mmap child this
    // is a window straight over the file mapping — zero copies so far).
    child.view = chunk;
  }
  child.pos = 0;
  return true;
}

bool MergedSource::precedes(const IoRecord& a, std::uint32_t ia,
                            const IoRecord& b, std::uint32_t ib) {
  if (key_less(a, b)) return true;
  return !key_less(b, a) && ia < ib;
}

bool MergedSource::find_lead(Child*& lead, const Child*& next) {
  lead = nullptr;
  next = nullptr;
  for (Child& c : children_) {
    if (c.pos >= c.view.size() && !refill(c)) continue;
    if (lead == nullptr) {
      lead = &c;
      continue;
    }
    // Strict less, children scanned in index order: on a full (start, end)
    // tie the lower child index stays ahead — the exact tiebreak of
    // merge_traces_parallel's k-way stage.
    const IoRecord& h = c.view[c.pos];
    if (key_less(h, lead->view[lead->pos])) {
      next = lead;
      lead = &c;
    } else if (next == nullptr || key_less(h, next->view[next->pos])) {
      next = &c;
    }
  }
  return lead != nullptr;
}

std::size_t MergedSource::run_length(const Child& lead,
                                     const Child* next) const {
  const auto rest = lead.view.subspan(
      lead.pos, std::min(lead.view.size() - lead.pos, chunk_));
  if (next == nullptr) return rest.size();
  const IoRecord& head = next->view[next->pos];
  return static_cast<std::size_t>(
      std::partition_point(rest.begin(), rest.end(),
                           [&](const IoRecord& r) {
                             return precedes(r, lead.index, head, next->index);
                           }) -
      rest.begin());
}

std::span<const IoRecord> MergedSource::next_chunk() {
  // Shortest run handed out as a zero-copy span.
  constexpr std::size_t kPassThrough = 32;

  // Run pass-through: the lead's records that merge before the runner-up's
  // head (and so before every other live head) are exactly what the k-way
  // merge would emit next. One binary search finds them; the lead's whole
  // remaining chunk is the case run == left.
  Child* lead = nullptr;
  const Child* next = nullptr;
  if (!find_lead(lead, next)) return {};  // all children exhausted (or failed)
  const std::size_t run = run_length(*lead, next);
  if (run >= kPassThrough || run == lead->view.size() - lead->pos) {
    const auto pass = lead->view.subspan(lead->pos, run);
    lead->pos += run;
    return pass;
  }

  // Short run: merge record by record into out_. When one child has led
  // kPassThrough times in a row and at least kPassThrough more of its
  // records come next, the chunk ends there, so that run leaves whole on
  // the next call instead of being copied. One check per streak.
  out_.clear();
  const Child* streak_child = nullptr;
  std::size_t streak = 0;
  while (out_.size() < chunk_) {
    Child* best = nullptr;
    for (Child& c : children_) {
      if (c.pos >= c.view.size() && !refill(c)) continue;
      if (best == nullptr) {
        best = &c;
        continue;
      }
      // Strict less in index order: lower child index wins ties, as in
      // find_lead.
      if (key_less(c.view[c.pos], best->view[best->pos])) best = &c;
    }
    if (best == nullptr) break;
    if (best != streak_child) {
      streak_child = best;
      streak = 0;
    } else if (++streak == kPassThrough) {
      find_lead(lead, next);  // lead == best: same scan, same tiebreak
      if (run_length(*lead, next) >= kPassThrough) break;
    }
    out_.push_back(best->view[best->pos++]);
  }
  return {out_.data(), out_.size()};
}

// ---------------------------------------------------------------------------
// FilteredSource
// ---------------------------------------------------------------------------

FilteredSource::FilteredSource(RecordSource& inner, RecordFilter filter)
    : inner_(&inner), filter_(std::move(filter)) {}

std::span<const IoRecord> FilteredSource::next_chunk() {
  buf_.clear();
  while (buf_.empty()) {
    const auto chunk = inner_->next_chunk();
    if (chunk.empty()) return {};
    for (const IoRecord& r : chunk) {
      if (filter_.matches(r)) buf_.push_back(r);
    }
  }
  return {buf_.data(), buf_.size()};
}

}  // namespace bpsio::trace
