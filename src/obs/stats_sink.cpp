#include "obs/stats_sink.hpp"

#include <stdexcept>
#include <utility>

#include "util/state_io.hpp"

namespace webcache::obs {

SnapshotFn snapshot_from(const cache::CacheFrontend& frontend) {
  return [&frontend] {
    Snapshot snap;
    snap.occupancy = frontend.occupancy();
    snap.heap_entries = snap.occupancy.total_objects;
    const cache::PolicyProbe probe = frontend.policy_probe();
    snap.aging = probe.aging;
    snap.beta = probe.beta;
    return snap;
  };
}

void WindowCounters::add(const WindowCounters& other) {
  requests += other.requests;
  hits += other.hits;
  requested_bytes += other.requested_bytes;
  hit_bytes += other.hit_bytes;
  evictions += other.evictions;
  evicted_bytes += other.evicted_bytes;
  lost += other.lost;
  lost_bytes += other.lost_bytes;
}

WindowCounters MetricsSeries::totals() const {
  WindowCounters out;
  for (const WindowSample& w : windows) out.add(w.overall);
  return out;
}

std::array<WindowCounters, trace::kDocumentClassCount>
MetricsSeries::class_totals() const {
  std::array<WindowCounters, trace::kDocumentClassCount> out{};
  for (const WindowSample& w : windows) {
    for (std::size_t c = 0; c < out.size(); ++c) out[c].add(w.per_class[c]);
  }
  return out;
}

std::uint64_t MetricsSeries::total_bypasses() const {
  std::uint64_t out = 0;
  for (const WindowSample& w : windows) out += w.bypasses;
  return out;
}

RecordingSink::RecordingSink(std::uint64_t window_requests) {
  if (window_requests == 0) {
    throw std::invalid_argument("RecordingSink: window_requests must be > 0");
  }
  series_.window_requests = window_requests;
}

void RecordingSink::begin_run(cache::CacheFrontend& frontend) {
  begin_run(snapshot_from(frontend));
  attached_ = &frontend;
  frontend.set_removal_listener(this);
}

void RecordingSink::begin_run(SnapshotFn snapshot) {
  series_.windows.clear();
  series_.total_requests = 0;
  series_.fault_nodes = 0;
  series_.warmup_curves.clear();
  warmup_trackers_.clear();
  snapshot_ = std::move(snapshot);
  attached_ = nullptr;
  window_open_ = false;
  open_window();
}

void RecordingSink::end_run() {
  // Flush the partial tail window, but only if it saw any activity.
  if (window_open_ &&
      (current_.last_request >= current_.first_request ||
       current_.overall.evictions > 0 || current_.invalidations > 0)) {
    close_window();
  }
  window_open_ = false;
  // Nodes still warming up when the trace ended keep their partial curves.
  while (!warmup_trackers_.empty()) {
    finish_warmup(warmup_trackers_.front());
    warmup_trackers_.erase(warmup_trackers_.begin());
  }
  if (attached_ != nullptr) {
    attached_->set_removal_listener(nullptr);
    attached_ = nullptr;
  }
}

void RecordingSink::on_fault_event(std::uint32_t node, FaultEventKind kind) {
  if (!window_open_) open_window();
  current_.fault_events += 1;
  switch (kind) {
    case FaultEventKind::kCrash:
      finish_warmup_for(node);
      break;
    case FaultEventKind::kRecovery: {
      finish_warmup_for(node);  // defensive; a node recovers only when down
      WarmupTracker tracker;
      tracker.curve.node = node;
      // The event applies before the next request enters the loop.
      tracker.curve.recovered_at = series_.total_requests + 1;
      warmup_trackers_.push_back(std::move(tracker));
      break;
    }
    case FaultEventKind::kDegrade:
    case FaultEventKind::kRestore:
      break;
  }
}

void RecordingSink::on_node_access(std::uint32_t node,
                                   trace::DocumentClass cls,
                                   std::uint64_t size, bool hit,
                                   bool measured) {
  if (!measured) return;
  for (WarmupTracker& tracker : warmup_trackers_) {
    if (tracker.curve.node != node || tracker.capped) continue;
    WindowCounters& overall = tracker.current.overall;
    WindowCounters& per_class =
        tracker.current.per_class[static_cast<std::size_t>(cls)];
    overall.requests += 1;
    overall.requested_bytes += size;
    per_class.requests += 1;
    per_class.requested_bytes += size;
    if (hit) {
      overall.hits += 1;
      overall.hit_bytes += size;
      per_class.hits += 1;
      per_class.hit_bytes += size;
    }
    if (++tracker.accesses_in_window == series_.window_requests) {
      tracker.curve.windows.push_back(tracker.current);
      tracker.current = WarmupWindow{};
      tracker.accesses_in_window = 0;
      if (tracker.curve.windows.size() >= kMaxWarmupWindows) {
        tracker.capped = true;
      }
    }
    return;
  }
}

void RecordingSink::finish_warmup(WarmupTracker& tracker) {
  if (tracker.accesses_in_window > 0) {
    tracker.curve.windows.push_back(tracker.current);
  }
  series_.warmup_curves.push_back(std::move(tracker.curve));
}

void RecordingSink::finish_warmup_for(std::uint32_t node) {
  for (std::size_t i = 0; i < warmup_trackers_.size(); ++i) {
    if (warmup_trackers_[i].curve.node != node) continue;
    finish_warmup(warmup_trackers_[i]);
    warmup_trackers_.erase(warmup_trackers_.begin() +
                           static_cast<std::ptrdiff_t>(i));
    return;
  }
}

void RecordingSink::on_removal(const cache::CacheObject& obj,
                               cache::RemovalCause cause) {
  // Removals for request N fire inside the access, before on_access(N); if
  // the previous window just closed they open the next one.
  if (!window_open_) open_window();
  if (cause == cache::RemovalCause::kEviction) {
    current_.overall.evictions += 1;
    current_.overall.evicted_bytes += obj.size;
    WindowCounters& per_class =
        current_.per_class[static_cast<std::size_t>(obj.doc_class)];
    per_class.evictions += 1;
    per_class.evicted_bytes += obj.size;
  } else {
    current_.invalidations += 1;
  }
}

namespace {

void save_counters(util::StateWriter& w, const WindowCounters& c) {
  w.put_u64(c.requests);
  w.put_u64(c.hits);
  w.put_u64(c.requested_bytes);
  w.put_u64(c.hit_bytes);
  w.put_u64(c.evictions);
  w.put_u64(c.evicted_bytes);
  w.put_u64(c.lost);
  w.put_u64(c.lost_bytes);
}

void restore_counters(util::StateReader& r, WindowCounters& c) {
  c.requests = r.take_u64();
  c.hits = r.take_u64();
  c.requested_bytes = r.take_u64();
  c.hit_bytes = r.take_u64();
  c.evictions = r.take_u64();
  c.evicted_bytes = r.take_u64();
  c.lost = r.take_u64();
  c.lost_bytes = r.take_u64();
}

void save_optional(util::StateWriter& w, const std::optional<double>& v) {
  w.put_bool(v.has_value());
  w.put_double(v.value_or(0.0));
}

std::optional<double> restore_optional(util::StateReader& r) {
  const bool present = r.take_bool();
  const double value = r.take_double();
  return present ? std::optional<double>(value) : std::nullopt;
}

void save_sample(util::StateWriter& w, const WindowSample& s) {
  w.put_u64(s.first_request);
  w.put_u64(s.last_request);
  save_counters(w, s.overall);
  for (const WindowCounters& c : s.per_class) save_counters(w, c);
  w.put_u64(s.bypasses);
  w.put_u64(s.invalidations);
  w.put_u64(s.failovers);
  w.put_u64(s.probe_timeouts);
  w.put_u64(s.fault_events);
  w.put_u64(s.node_up_sum);
  w.put_u64(s.node_samples);
  for (const std::uint64_t v : s.state.occupancy.objects) w.put_u64(v);
  for (const std::uint64_t v : s.state.occupancy.bytes) w.put_u64(v);
  w.put_u64(s.state.occupancy.total_objects);
  w.put_u64(s.state.occupancy.total_bytes);
  w.put_u64(s.state.heap_entries);
  save_optional(w, s.state.aging);
  save_optional(w, s.state.beta);
}

void restore_sample(util::StateReader& r, WindowSample& s) {
  s.first_request = r.take_u64();
  s.last_request = r.take_u64();
  restore_counters(r, s.overall);
  for (WindowCounters& c : s.per_class) restore_counters(r, c);
  s.bypasses = r.take_u64();
  s.invalidations = r.take_u64();
  s.failovers = r.take_u64();
  s.probe_timeouts = r.take_u64();
  s.fault_events = r.take_u64();
  s.node_up_sum = r.take_u64();
  s.node_samples = r.take_u64();
  for (std::uint64_t& v : s.state.occupancy.objects) v = r.take_u64();
  for (std::uint64_t& v : s.state.occupancy.bytes) v = r.take_u64();
  s.state.occupancy.total_objects = r.take_u64();
  s.state.occupancy.total_bytes = r.take_u64();
  s.state.heap_entries = r.take_u64();
  s.state.aging = restore_optional(r);
  s.state.beta = restore_optional(r);
}

/// Encoded size of a WarmupWindow: one WindowCounters (eight u64s) overall
/// and one per class. A WindowSample starts with the same counters, so this
/// is a lower bound for both when take_count checks their counts.
constexpr std::size_t kWarmupWindowBytes =
    8 * 8 * (1 + trace::kDocumentClassCount);

void save_warmup_window(util::StateWriter& w, const WarmupWindow& win) {
  save_counters(w, win.overall);
  for (const WindowCounters& c : win.per_class) save_counters(w, c);
}

void restore_warmup_window(util::StateReader& r, WarmupWindow& win) {
  restore_counters(r, win.overall);
  for (WindowCounters& c : win.per_class) restore_counters(r, c);
}

void save_curve(util::StateWriter& w, const WarmupCurve& curve) {
  w.put_u32(curve.node);
  w.put_u64(curve.recovered_at);
  w.put_u64(curve.windows.size());
  for (const WarmupWindow& win : curve.windows) save_warmup_window(w, win);
}

void restore_curve(util::StateReader& r, WarmupCurve& curve) {
  curve.node = r.take_u32();
  curve.recovered_at = r.take_u64();
  const std::uint64_t n = r.take_count(kWarmupWindowBytes, "warm-up window");
  curve.windows.resize(static_cast<std::size_t>(n));
  for (WarmupWindow& win : curve.windows) restore_warmup_window(r, win);
}

}  // namespace

void RecordingSink::save_state(util::StateWriter& w) const {
  w.put_u64(series_.window_requests);
  w.put_u64(series_.total_requests);
  w.put_u64(series_.windows.size());
  for (const WindowSample& s : series_.windows) save_sample(w, s);
  w.put_u64(series_.fault_nodes);
  w.put_u64(series_.warmup_curves.size());
  for (const WarmupCurve& c : series_.warmup_curves) save_curve(w, c);
  save_sample(w, current_);
  w.put_bool(window_open_);
  w.put_u64(warmup_trackers_.size());
  for (const WarmupTracker& t : warmup_trackers_) {
    save_curve(w, t.curve);
    save_warmup_window(w, t.current);
    w.put_u64(t.accesses_in_window);
    w.put_bool(t.capped);
  }
}

void RecordingSink::restore_state(util::StateReader& r) {
  const std::uint64_t window_requests = r.take_u64();
  if (window_requests != series_.window_requests) {
    r.fail("metrics window length mismatch (checkpoint " +
           std::to_string(window_requests) + ", run configured " +
           std::to_string(series_.window_requests) + ")");
  }
  series_.total_requests = r.take_u64();
  series_.windows.resize(static_cast<std::size_t>(
      r.take_count(kWarmupWindowBytes, "metrics window")));
  for (WindowSample& s : series_.windows) restore_sample(r, s);
  series_.fault_nodes = r.take_u64();
  series_.warmup_curves.resize(static_cast<std::size_t>(
      r.take_count(4 + 8 + 8, "warm-up curve")));
  for (WarmupCurve& c : series_.warmup_curves) restore_curve(r, c);
  restore_sample(r, current_);
  window_open_ = r.take_bool();
  warmup_trackers_.clear();
  const std::uint64_t trackers = r.take_u64();
  for (std::uint64_t i = 0; i < trackers; ++i) {
    WarmupTracker t;
    restore_curve(r, t.curve);
    restore_warmup_window(r, t.current);
    t.accesses_in_window = r.take_u64();
    t.capped = r.take_bool();
    warmup_trackers_.push_back(std::move(t));
  }
}

void RecordingSink::open_window() {
  current_ = WindowSample{};
  current_.first_request = series_.total_requests + 1;
  current_.last_request = series_.total_requests;  // nothing seen yet
  window_open_ = true;
}

void RecordingSink::close_window() {
  current_.last_request = series_.total_requests;
  if (snapshot_) current_.state = snapshot_();
  series_.windows.push_back(current_);
  window_open_ = false;
}

}  // namespace webcache::obs
