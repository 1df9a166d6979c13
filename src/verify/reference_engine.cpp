#include "verify/reference_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "flowsim/maxmin.hpp"

namespace nestflow::verify {

namespace {

using Clock = std::chrono::steady_clock;

/// Min-heap order on release time, no tie-break: equal-time pops follow
/// heap order, exactly as in FlowEngine.
bool release_after(const std::pair<double, FlowIndex>& a,
                   const std::pair<double, FlowIndex>& b) {
  return a.first > b.first;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

ReferenceEngine::ReferenceEngine(const Topology& topology,
                                 EngineOptions options)
    : topology_(topology), options_(options) {
  options_.completion_batch_rel =
      std::max(options_.completion_batch_rel, 1e-12);
  const Graph& graph = topology_.graph();
  link_capacity_.resize(graph.num_links());
  for (LinkId l = 0; l < graph.num_links(); ++l) {
    link_capacity_[l] = graph.link(l).capacity_bps;
  }
  link_base_capacity_ = link_capacity_;
}

void ReferenceEngine::set_capacity_factor(LinkId link, double factor) {
  if (link >= link_capacity_.size()) {
    throw std::out_of_range("set_capacity_factor: bad link");
  }
  if (!(factor >= 0.0 && factor <= 1.0)) {
    throw std::invalid_argument(
        "set_capacity_factor: factor must be in [0, 1]");
  }
  link_capacity_[link] = link_base_capacity_[link] * factor;
}

void ReferenceEngine::reset_capacity_factors() {
  link_capacity_ = link_base_capacity_;
}

SimResult ReferenceEngine::run(const TrafficProgram& program) {
  return run_impl(program, nullptr);
}

SimResult ReferenceEngine::run(const TrafficProgram& program,
                               FaultDriver& faults) {
  return run_impl(program, &faults);
}

std::size_t ReferenceEngine::active_index(FlowIndex f) const {
  return static_cast<std::size_t>(
      std::find(active_.begin(), active_.end(), f) - active_.begin());
}

bool ReferenceEngine::activate(FlowIndex f, double now, SimResult& result) {
  const FlowSpec& spec = program_->flow(f);
  Path route;
  const RouteOutcome outcome = topology_.try_route(
      spec.src, spec.dst, route, LinkLoads(link_active_count_, link_capacity_),
      options_.adaptive_routing);
  if (outcome.status == RouteStatus::kStranded) return false;
  if (outcome.status == RouteStatus::kRerouted) {
    ++result.rerouted_flows;
    result.reroute_extra_hops += outcome.extra_hops;
  }
  const Graph& graph = topology_.graph();
  std::vector<LinkId> path;
  path.reserve(route.links.size() + 2);
  path.push_back(graph.injection_link(spec.src));
  path.insert(path.end(), route.links.begin(), route.links.end());
  path.push_back(graph.consumption_link(spec.dst));
  for (const LinkId l : path) ++link_active_count_[l];

  state_[f] = State::kActive;
  remaining_[f] = spec.bytes;
  // One hop of pipeline fill per transit link (the NIC links are
  // endpoint-internal).
  latency_left_[f] =
      options_.hop_latency_seconds > 0.0
          ? options_.hop_latency_seconds * static_cast<double>(path.size() - 2)
          : 0.0;
  settle_time_[f] = now;
  rate_[f] = -1.0;  // no real rate equals it: the next event predicts
  active_.push_back(f);
  active_paths_.push_back(std::move(path));
  active_weights_.push_back(spec.weight);
  return true;
}

void ReferenceEngine::detach(FlowIndex f) {
  const std::size_t i = active_index(f);
  for (const LinkId l : active_paths_[i]) --link_active_count_[l];
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
  active_paths_.erase(active_paths_.begin() + static_cast<std::ptrdiff_t>(i));
  active_weights_.erase(active_weights_.begin() +
                        static_cast<std::ptrdiff_t>(i));
}

void ReferenceEngine::complete(std::size_t i, double now,
                               std::vector<FlowIndex>& ready) {
  const FlowIndex f = active_[i];
  state_[f] = State::kDone;
  const double bytes = program_->flow(f).bytes;
  for (const LinkId l : active_paths_[i]) {
    link_bytes_[l] += bytes;
    --link_active_count_[l];
  }
  if (options_.record_flow_times) finish_times_[f] = now;
  for (const FlowIndex child : dag_->children(f)) {
    if (--pending_parents_[child] == 0 && state_[child] == State::kPending) {
      ready.push_back(child);
    }
  }
}

void ReferenceEngine::strand(FlowIndex f, SimResult& result) {
  state_[f] = State::kCancelled;
  ++result.stranded_flows;
  result.undelivered_bytes += program_->flow(f).bytes;
  if (options_.record_flow_times) {
    finish_times_[f] = std::numeric_limits<double>::quiet_NaN();
  }
  cancel_descendants(f, result);
}

void ReferenceEngine::cancel_descendants(FlowIndex f, SimResult& result) {
  std::vector<FlowIndex> stack{f};
  while (!stack.empty()) {
    const FlowIndex parent = stack.back();
    stack.pop_back();
    for (const FlowIndex child : dag_->children(parent)) {
      if (state_[child] != State::kPending) continue;
      state_[child] = State::kCancelled;
      if (!program_->flow(child).is_sync) {
        ++result.cancelled_flows;
        result.undelivered_bytes += program_->flow(child).bytes;
      }
      if (options_.record_flow_times) {
        finish_times_[child] = std::numeric_limits<double>::quiet_NaN();
      }
      stack.push_back(child);
    }
  }
}

bool ReferenceEngine::queue_retry(FlowIndex f, double now, SimResult& result) {
  if (retries_[f] >= std::min<std::uint32_t>(options_.max_retries, 255)) {
    return false;
  }
  const double delay =
      options_.retry_backoff_seconds * std::ldexp(1.0, retries_[f]);
  ++retries_[f];
  ++result.flow_retries;
  state_[f] = State::kPending;
  release_queue_.emplace_back(now + delay, f);
  std::push_heap(release_queue_.begin(), release_queue_.end(), release_after);
  return true;
}

void ReferenceEngine::recover(FlowIndex f, double now, double remaining,
                              SimResult& result) {
  detach(f);
  switch (options_.recovery_policy) {
    case RecoveryPolicy::kStrand:
      strand(f, result);
      return;
    case RecoveryPolicy::kReroute:
      if (!activate(f, now, result)) {
        strand(f, result);
        return;
      }
      // Transferred bytes survive the detour; the pipeline fill restarts.
      remaining_[f] = remaining;
      for (const LinkId l : active_paths_.back()) {
        if (link_capacity_[l] <= 0.0) {
          detach(f);
          strand(f, result);
          return;
        }
      }
      ++result.recovered_flows;
      return;
    case RecoveryPolicy::kRestartBackoff:
      if (!queue_retry(f, now, result)) strand(f, result);
      return;
  }
}

void ReferenceEngine::settle(FlowIndex f, double at) {
  const double elapsed = at - settle_time_[f];
  if (elapsed == 0.0) return;
  latency_left_[f] = std::max(0.0, latency_left_[f] - elapsed);
  remaining_[f] = std::max(0.0, remaining_[f] - rate_[f] * elapsed);
  settle_time_[f] = at;
}

SimResult ReferenceEngine::run_impl(const TrafficProgram& program,
                                    FaultDriver* driver) {
  program.validate(topology_.num_endpoints());
  const DependencyDag dag(program);
  program_ = &program;
  dag_ = &dag;

  const std::uint32_t n = program.num_flows();
  state_.assign(n, State::kPending);
  pending_parents_ = dag.pending_parents();
  retries_.assign(n, 0);
  remaining_.assign(n, 0.0);
  latency_left_.assign(n, 0.0);
  settle_time_.assign(n, 0.0);
  rate_.assign(n, 0.0);
  finish_.assign(n, 0.0);
  finish_times_.assign(options_.record_flow_times ? n : 0, 0.0);
  link_active_count_.assign(link_capacity_.size(), 0);
  link_bytes_.assign(link_capacity_.size(), 0.0);
  active_.clear();
  active_paths_.clear();
  active_weights_.clear();
  release_queue_.clear();

  SimResult result;
  result.num_flows = program.num_data_flows();
  const bool have_timeline =
      driver != nullptr && std::isfinite(driver->next_event_time());
  const double log_step = options_.rate_quantum_rel > 0.0
                              ? std::log1p(options_.rate_quantum_rel)
                              : 0.0;
  const auto snapshot = [&](double now) {
    EngineError::Snapshot s;
    s.events = result.events;
    s.sim_time = now;
    s.active_flows = active_.size();
    s.pending_flows = release_queue_.size();
    s.last_event = "reference";
    return s;
  };

  std::vector<FlowIndex> ready = dag.roots();
  std::vector<std::pair<LinkId, double>> changed_factors;
  std::vector<FlowIndex> zero_rate;
  std::vector<std::size_t> finished;  // active_ indices
  double now = 0.0;
  double weighted_active = 0.0;
  std::uint64_t zero_progress_events = 0;

  for (;;) {
    if (have_timeline) {
      changed_factors.clear();
      const std::size_t applied =
          driver->apply_due(now * (1.0 + 1e-12), changed_factors);
      result.fault_events_applied += applied;
      for (const auto& [link, factor] : changed_factors) {
        if (link >= link_capacity_.size()) {
          throw std::out_of_range(
              "ReferenceEngine: fault driver reported a link outside this "
              "topology");
        }
        link_capacity_[link] = link_base_capacity_[link] * factor;
      }
    }

    // Activation pass: ready may grow while it runs (sync flows cascade).
    const auto route_start = Clock::now();
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const FlowIndex f = ready[i];
      if (state_[f] != State::kPending) continue;
      const FlowSpec& spec = program.flow(f);
      if (spec.release_seconds > now * (1.0 + 1e-12) &&
          spec.release_seconds > 0.0) {
        release_queue_.emplace_back(spec.release_seconds, f);
        std::push_heap(release_queue_.begin(), release_queue_.end(),
                       release_after);
        continue;
      }
      if (spec.is_sync) {
        state_[f] = State::kDone;
        if (options_.record_flow_times) finish_times_[f] = now;
        for (const FlowIndex child : dag.children(f)) {
          if (--pending_parents_[child] == 0 &&
              state_[child] == State::kPending) {
            ready.push_back(child);
          }
        }
      } else if (!activate(f, now, result)) {
        if (options_.recovery_policy != RecoveryPolicy::kRestartBackoff ||
            !queue_retry(f, now, result)) {
          strand(f, result);
        }
      }
    }
    ready.clear();
    if (options_.time_solver) {
      result.route_seconds += seconds_since(route_start);
    }

    if (active_.empty() && !release_queue_.empty()) {
      now = std::max(now, release_queue_.front().first);
    }
    while (!release_queue_.empty() &&
           release_queue_.front().first <= now * (1.0 + 1e-12)) {
      ready.push_back(release_queue_.front().second);
      std::pop_heap(release_queue_.begin(), release_queue_.end(),
                    release_after);
      release_queue_.pop_back();
    }
    if (!ready.empty()) continue;
    if (active_.empty()) break;

    // Re-solve every active flow from scratch.
    const auto solve_start = Clock::now();
    const std::vector<double> rates =
        maxmin_fair_rates(link_capacity_, active_paths_, active_weights_);
    if (options_.time_solver) {
      result.solve_seconds += seconds_since(solve_start);
    }

    const auto dispatch_start = Clock::now();
    zero_rate.clear();
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const FlowIndex f = active_[i];
      double r = rates[i];
      if (log_step > 0.0 && r > 0.0) {
        r = std::exp(std::floor(std::log(r) / log_step) * log_step);
      }
      if (r == rate_[f]) continue;
      settle(f, now);
      if (r <= 0.0 && remaining_[f] > 0.0) {
        zero_rate.push_back(f);  // a dead link on the path
        continue;
      }
      rate_[f] = r;
      const double transfer = remaining_[f] > 0.0 ? remaining_[f] / r : 0.0;
      finish_[f] = now + std::max(latency_left_[f], transfer);
    }
    if (!zero_rate.empty()) {
      std::sort(zero_rate.begin(), zero_rate.end());
      for (const FlowIndex f : zero_rate) {
        recover(f, now, remaining_[f], result);
      }
      if (options_.time_solver) {
        result.dispatch_seconds += seconds_since(dispatch_start);
      }
      continue;
    }

    double fmin = std::numeric_limits<double>::infinity();
    for (const FlowIndex f : active_) fmin = std::min(fmin, finish_[f]);
    const double flow_dt = fmin - now;
    double dt = flow_dt;
    if (!release_queue_.empty()) {
      dt = std::min(dt, std::max(0.0, release_queue_.front().first - now));
    }
    if (have_timeline) {
      const double next_fault = driver->next_event_time();
      if (std::isfinite(next_fault)) {
        dt = std::min(dt, std::max(0.0, next_fault - now));
      }
    }
    if (!std::isfinite(dt) || dt < 0.0) {
      throw EngineError(EngineError::Kind::kNonFiniteHorizon, snapshot(now));
    }
    ++result.events;
    if (options_.max_events != 0 && result.events > options_.max_events) {
      throw EngineError(EngineError::Kind::kMaxEventsExceeded, snapshot(now));
    }

    // The defining flow always passes its own completion test, even when
    // now + (fmin - now) rounds below fmin.
    double deadline = now + dt * (1.0 + options_.completion_batch_rel);
    if (dt == flow_dt) deadline = std::max(deadline, fmin);
    now += dt;
    weighted_active += static_cast<double>(active_.size()) * dt;
    result.peak_active_flows = std::max(
        result.peak_active_flows, static_cast<std::uint32_t>(active_.size()));

    const std::size_t active_before = active_.size();
    finished.clear();
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (finish_[active_[i]] <= deadline) finished.push_back(i);
    }
    std::sort(finished.begin(), finished.end(),
              [this](std::size_t a, std::size_t b) {
                return active_[a] < active_[b];
              });
    for (const std::size_t i : finished) complete(i, now, ready);
    // Drop the completed flows, keeping activation order.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (state_[active_[i]] != State::kActive) continue;
      if (kept != i) {
        active_[kept] = active_[i];
        active_paths_[kept] = std::move(active_paths_[i]);
        active_weights_[kept] = active_weights_[i];
      }
      ++kept;
    }
    active_.resize(kept);
    active_paths_.resize(kept);
    active_weights_.resize(kept);

    if (dt > 0.0 || !ready.empty() || active_.size() != active_before) {
      zero_progress_events = 0;
    } else if (++zero_progress_events > FlowEngine::kMaxZeroProgressEvents) {
      throw EngineError(EngineError::Kind::kLivelock, snapshot(now));
    }
    if (options_.time_solver) {
      result.dispatch_seconds += seconds_since(dispatch_start);
    }
  }

  for (FlowIndex f = 0; f < n; ++f) {
    if (state_[f] != State::kDone && state_[f] != State::kCancelled) {
      throw EngineError(EngineError::Kind::kFlowNeverCompleted, snapshot(now));
    }
  }

  result.makespan = now;
  result.total_bytes = program.total_bytes();
  result.avg_active_flows = now > 0.0 ? weighted_active / now : 0.0;
  const Graph& graph = topology_.graph();
  for (LinkId l = 0; l < graph.num_links(); ++l) {
    const auto cls = static_cast<std::size_t>(graph.link(l).link_class);
    result.bytes_by_class[cls] += link_bytes_[l];
    if (now > 0.0 && link_capacity_[l] > 0.0) {
      result.max_link_utilization =
          std::max(result.max_link_utilization,
                   link_bytes_[l] / (link_capacity_[l] * now));
    }
  }
  result.flow_finish_times = std::move(finish_times_);
  finish_times_.clear();
  program_ = nullptr;
  dag_ = nullptr;
  return result;
}

}  // namespace nestflow::verify
