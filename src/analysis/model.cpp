#include "analysis/model.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace wfbn::mc {

namespace {

thread_local Model* tls_model = nullptr;
thread_local std::size_t tls_self = SIZE_MAX;

[[nodiscard]] bool is_acquire(std::memory_order mo) noexcept {
  return mo == std::memory_order_acquire || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst || mo == std::memory_order_consume;
}

[[nodiscard]] bool is_release(std::memory_order mo) noexcept {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

void merge_loc_views(std::vector<std::uint32_t>& dst,
                     const std::vector<std::uint32_t>& src) {
  if (dst.size() < src.size()) dst.resize(src.size(), 0);
  for (std::size_t i = 0; i < src.size(); ++i)
    dst[i] = std::max(dst[i], src[i]);
}

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::string CheckResult::summary() const {
  std::ostringstream out;
  out << (ok ? "OK" : "FAIL") << ": " << executions << " executions ("
      << exhaustive_executions << " exhaustive"
      << (exhausted ? " [space exhausted]" : " [budget hit]") << ", "
      << random_executions << " random), " << branch_points
      << " branch points, " << sleep_set_prunes << " sleep-set prunes, "
      << shared_locations << " shared locations, " << sharing_rounds
      << " sharing rounds";
  if (!ok) out << "; failure: " << failure;
  return out.str();
}

Model* Model::current() noexcept { return tls_model; }

Model::ThreadCtx& Model::self_ctx() {
  if (tls_model != this || tls_self == SIZE_MAX)
    throw std::logic_error("wfcheck: model operation outside a model thread");
  return threads_[tls_self];
}

// ---------------------------------------------------------------------------
// Check driver: exhaustive DFS (with sharing fixpoint) + random phase.
// ---------------------------------------------------------------------------

CheckResult Model::check(const ModelOptions& options,
                         const std::function<void()>& body) {
  opts_ = options;
  result_ = {};
  shared_mask_.clear();

  bool exhausted = true;
  // The exhaustive phase learns which locations are shared as it runs; a
  // location discovered shared mid-phase may have hidden schedule points
  // from earlier executions, so the phase repeats until the shared set is
  // stable (it only grows, so this terminates).
  for (std::size_t round = 0; round < 16 && exhausted; ++round) {
    ++result_.sharing_rounds;
    sharing_grew_ = false;
    prefix_.clear();
    random_mode_ = false;
    for (;;) {
      if (result_.exhaustive_executions >= opts_.max_exhaustive_executions) {
        exhausted = false;
        break;
      }
      run_one_execution(body);
      ++result_.executions;
      ++result_.exhaustive_executions;
      if (failed_) return finalize_failure(0);
      // Backtrack: drop fully-explored suffix, advance the deepest node
      // with an unexplored alternative.
      while (!path_.empty() && path_.back().pick + 1 >= path_.back().n)
        path_.pop_back();
      if (path_.empty()) break;  // schedule space fully enumerated
      prefix_.resize(path_.size());
      for (std::size_t i = 0; i + 1 < path_.size(); ++i)
        prefix_[i] = path_[i].pick;
      prefix_.back() = path_.back().pick + 1;
    }
    if (!sharing_grew_) break;
  }
  result_.exhausted = exhausted;

  // Random phase: seeded schedules with no preemption bound. Every atomic
  // op is a schedule point here (independent of the learned sharing), so a
  // schedule is a pure function of its seed — the replay guarantee.
  random_mode_ = true;
  prefix_.clear();
  for (std::size_t i = 0; i < opts_.random_schedules; ++i) {
    cur_seed_ = opts_.seed + 0x9E3779B97F4A7C15ull * (i + 1);
    rng_state_ = cur_seed_;
    run_one_execution(body);
    ++result_.executions;
    ++result_.random_executions;
    if (failed_) return finalize_failure(cur_seed_);
  }

  result_.ok = true;
  result_.shared_locations = count_shared();
  return result_;
}

Trace Model::replay_seed(const ModelOptions& options, std::uint64_t seed,
                         const std::function<void()>& body) {
  opts_ = options;
  result_ = {};
  shared_mask_.clear();
  random_mode_ = true;
  prefix_.clear();
  cur_seed_ = seed;
  rng_state_ = seed;
  run_one_execution(body);
  trace_.seed = seed;
  trace_.decisions.clear();
  for (const ChoiceNode& n : path_) trace_.decisions.push_back(n.pick);
  return trace_;
}

CheckResult Model::finalize_failure(std::uint64_t seed) {
  trace_.seed = seed;
  trace_.decisions.clear();
  for (const ChoiceNode& n : path_) trace_.decisions.push_back(n.pick);
  result_.ok = false;
  result_.failure = trace_.failure;
  result_.trace = trace_;
  result_.shared_locations = count_shared();
  return result_;
}

std::size_t Model::count_shared() const {
  std::size_t n = 0;
  for (std::uint8_t m : shared_mask_)
    if (std::popcount(m) >= 2) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// One execution: cooperative scheduling of real std::threads, one at a time.
// ---------------------------------------------------------------------------

void Model::run_one_execution(const std::function<void()>& body) {
  threads_.clear();
  atomics_.clear();
  datas_.clear();
  addresses_.clear();
  trace_ = {};
  path_.clear();
  depth_ = 0;
  preemptions_ = 0;
  step_count_ = 0;
  store_epoch_ = 1;
  current_ = kController;
  sleeping_.clear();
  aborting_ = false;
  redundant_ = false;
  failed_ = false;

  // ThreadCtx references are held across schedule points; never reallocate.
  threads_.reserve(kMaxThreads);
  threads_.emplace_back();
  ThreadCtx& t0 = threads_.back();
  t0.id = 0;
  t0.fn = body;
  t0.hb.tick(0);
  launch_thread(0);

  for (;;) {
    if (++step_count_ > opts_.max_steps_per_execution) {
      if (!failed_) {
        failed_ = true;
        trace_.failure = "livelock suspected: execution exceeded " +
                         std::to_string(opts_.max_steps_per_execution) +
                         " scheduling steps";
      }
      abort_all_threads();
      break;
    }
    bool redundant = false;
    const std::size_t tid = pick_next_thread(&redundant);
    if (tid == kController) {
      if (redundant) {
        redundant_ = true;
        ++result_.sleep_set_prunes;
        abort_all_threads();
        break;
      }
      bool all_done = true;
      for (const ThreadCtx& t : threads_)
        if (t.state != ThreadCtx::State::kDone) all_done = false;
      if (all_done) break;
      if (!failed_) {
        failed_ = true;
        std::ostringstream msg;
        msg << "deadlock: no runnable thread;";
        for (const ThreadCtx& t : threads_) {
          if (t.state == ThreadCtx::State::kDone) continue;
          msg << " T" << t.id
              << (t.state == ThreadCtx::State::kBlockedJoin
                      ? " blocked joining T" + std::to_string(t.join_target)
                      : " spinning (yielded, no store can wake it)");
        }
        trace_.failure = msg.str();
      }
      abort_all_threads();
      break;
    }
    current_ = tid;
    resume_thread(tid);
    if (failed_) {
      abort_all_threads();
      break;
    }
  }
  finish_threads();
}

bool Model::runnable_now(const ThreadCtx& t) const {
  switch (t.state) {
    case ThreadCtx::State::kRunnable:
      return true;
    case ThreadCtx::State::kBlockedJoin:
      return threads_[t.join_target].state == ThreadCtx::State::kDone;
    case ThreadCtx::State::kYielded:
      // A spinning thread makes progress once there is anything it has not
      // yet observed — a store since it yielded, or an older store it read
      // past the stale side of (its floor lags the location's newest).
      // Only a spinner that has seen the latest of everything stays parked;
      // if every thread is in that state, that is a real deadlock.
      return store_epoch_ > t.yield_epoch || has_unseen_store(t);
    case ThreadCtx::State::kDone:
      return false;
  }
  return false;
}

bool Model::has_unseen_store(const ThreadCtx& t) const {
  for (std::size_t loc = 0; loc < atomics_.size(); ++loc) {
    if (atomics_[loc].history.empty()) continue;
    const std::uint32_t seen = loc < t.loc_view.size() ? t.loc_view[loc] : 0;
    if (atomics_[loc].history.back().seq > seen) return true;
  }
  return false;
}

std::size_t Model::pick_next_thread(bool* out_redundant) {
  *out_redundant = false;
  std::vector<std::size_t> enabled;
  for (const ThreadCtx& t : threads_)
    if (runnable_now(t)) enabled.push_back(t.id);
  if (enabled.empty()) return kController;

  std::vector<std::size_t> cands;
  // Current thread first, so choice 0 = "no preemption". Sleeping threads
  // are excluded; if every enabled thread sleeps, this whole branch only
  // reorders already-explored independent ops — prune it.
  const bool current_runs =
      current_ != kController && !is_sleeping(current_) &&
      std::find(enabled.begin(), enabled.end(), current_) != enabled.end();
  if (current_runs) cands.push_back(current_);
  for (std::size_t tid : enabled)
    if (tid != current_ && !is_sleeping(tid)) cands.push_back(tid);
  if (cands.empty()) {
    *out_redundant = true;
    return kController;
  }

  // Preemption bound: once spent, a runnable current thread keeps running.
  if (!random_mode_ && current_runs && preemptions_ >= opts_.preemption_bound) {
    return current_;
  }

  std::size_t idx = 0;
  if (cands.size() > 1) {
    idx = choose(cands.size());
    if (!random_mode_ && opts_.sleep_sets) {
      // Explored siblings sleep until a conflicting op wakes them.
      for (std::size_t i = 0; i < idx; ++i) {
        const PendingOp& p = threads_[cands[i]].pending;
        if (p.kind == OpKind::kAtomicLoad || p.kind == OpKind::kAtomicStore ||
            p.kind == OpKind::kAtomicRmw) {
          sleeping_.push_back({cands[i], p.loc, p.is_write});
        }
      }
    }
  }
  const std::size_t tid = cands[idx];
  if (current_runs && tid != current_) ++preemptions_;
  return tid;
}

bool Model::is_sleeping(std::size_t tid) const {
  for (const SleepEntry& e : sleeping_)
    if (e.tid == tid) return true;
  return false;
}

void Model::wake_sleepers(std::size_t loc, bool is_write) {
  sleeping_.erase(std::remove_if(sleeping_.begin(), sleeping_.end(),
                                 [&](const SleepEntry& e) {
                                   return e.loc == loc &&
                                          (is_write || e.is_write);
                                 }),
                  sleeping_.end());
}

std::size_t Model::choose(std::size_t n) {
  if (n <= 1) return 0;
  std::size_t pick;
  if (depth_ < prefix_.size()) {
    pick = prefix_[depth_];
  } else if (random_mode_) {
    pick = static_cast<std::size_t>(rng_next() % n);
  } else {
    pick = 0;
  }
  if (pick >= n) pick = n - 1;  // defensive: replay divergence
  path_.push_back({static_cast<std::uint32_t>(pick),
                   static_cast<std::uint32_t>(n)});
  ++depth_;
  ++result_.branch_points;
  return pick;
}

std::uint64_t Model::rng_next() { return splitmix64(rng_state_); }

// ---------------------------------------------------------------------------
// Thread lifecycle and the cooperative handoff.
// ---------------------------------------------------------------------------

void Model::launch_thread(std::size_t tid) {
  threads_[tid].thr = std::thread([this, tid] { thread_main(tid); });
}

void Model::thread_main(std::size_t tid) {
  tls_model = this;
  tls_self = tid;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return running_ == tid; });
  }
  ThreadCtx& self = threads_[tid];
  if (!aborting_) {
    try {
      record_event(self, OpKind::kThreadStart, SIZE_MAX, false, 0, -1);
      self.fn();
      record_event(self, OpKind::kThreadExit, SIZE_MAX, false, 0, -1);
    } catch (const AbortExecution&) {
      // failure already recorded (or execution pruned); just unwind
    } catch (const std::exception& e) {
      if (!failed_) {
        failed_ = true;
        trace_.failure = "uncaught exception in T" + std::to_string(tid) +
                         ": " + e.what();
      }
    } catch (...) {
      if (!failed_) {
        failed_ = true;
        trace_.failure = "uncaught non-std exception in T" + std::to_string(tid);
      }
    }
  }
  std::unique_lock<std::mutex> lk(mu_);
  self.state = ThreadCtx::State::kDone;
  running_ = kController;
  cv_.notify_all();
}

void Model::resume_thread(std::size_t tid) {
  std::unique_lock<std::mutex> lk(mu_);
  running_ = tid;
  cv_.notify_all();
  cv_.wait(lk, [&] { return running_ == kController; });
}

void Model::schedule_point(ThreadCtx& self) {
  std::unique_lock<std::mutex> lk(mu_);
  running_ = kController;
  cv_.notify_all();
  cv_.wait(lk, [&] { return running_ == self.id; });
  if (aborting_) throw AbortExecution{};
}

void Model::abort_all_threads() {
  aborting_ = true;
  // Children unwind first; the body (T0, owner of the shared structures)
  // last, so its locals are destroyed after every other stack is gone.
  for (std::size_t i = threads_.size(); i-- > 1;)
    if (threads_[i].state != ThreadCtx::State::kDone) resume_thread(i);
  if (!threads_.empty() && threads_[0].state != ThreadCtx::State::kDone)
    resume_thread(0);
}

void Model::finish_threads() {
  for (ThreadCtx& t : threads_)
    if (t.thr.joinable()) t.thr.join();
}

std::size_t Model::spawn(std::function<void()> fn) {
  ThreadCtx& self = self_ctx();
  if (threads_.size() >= kMaxThreads)
    fail("spawn: more than " + std::to_string(kMaxThreads) + " model threads");
  const std::size_t tid = threads_.size();
  threads_.emplace_back();
  ThreadCtx& child = threads_.back();
  child.id = tid;
  child.fn = std::move(fn);
  child.hb = self.hb;  // spawn edge: the child sees everything the parent did
  child.hb.tick(tid);
  child.loc_view = self.loc_view;
  record_event(self, OpKind::kSpawn, SIZE_MAX, false, tid, -1);
  launch_thread(tid);
  return tid;
}

void Model::join(std::size_t tid) {
  ThreadCtx& self = self_ctx();
  while (threads_[tid].state != ThreadCtx::State::kDone) {
    self.state = ThreadCtx::State::kBlockedJoin;
    self.join_target = tid;
    self.pending = {OpKind::kJoin, SIZE_MAX, false};
    schedule_point(self);
    self.state = ThreadCtx::State::kRunnable;
    self.join_target = SIZE_MAX;
  }
  // Join edge: the parent sees everything the child did.
  self.hb.merge(threads_[tid].hb);
  merge_loc_views(self.loc_view, threads_[tid].loc_view);
  record_event(self, OpKind::kJoin, SIZE_MAX, false, tid, -1);
}

void Model::thread_yield() {
  ThreadCtx& self = self_ctx();
  if (aborting_) return;
  record_event(self, OpKind::kYield, SIZE_MAX, false, 0, -1);
  self.state = ThreadCtx::State::kYielded;
  self.yield_epoch = store_epoch_;
  self.pending = {OpKind::kYield, SIZE_MAX, false};
  schedule_point(self);
  self.state = ThreadCtx::State::kRunnable;
  // Staleness is bounded on real hardware: by the time a descheduled thread
  // runs again, earlier stores have propagated. Advance this thread's
  // coherence floors to the newest store of every location so a spin loop
  // cannot re-read a stale value forever (which would be a false deadlock
  // once the writer finishes). Floors carry NO happens-before: reading the
  // fresh value without acquire still races on the data it publishes.
  for (std::size_t loc = 0; loc < atomics_.size(); ++loc) {
    if (atomics_[loc].history.empty()) continue;
    std::uint32_t& v = view_of(self, loc);
    v = std::max(v, atomics_[loc].history.back().seq);
  }
}

void Model::fail(const std::string& message) {
  if (!failed_) {
    failed_ = true;
    trace_.failure = message;
  }
  throw AbortExecution{};
}

// ---------------------------------------------------------------------------
// Memory model: per-location store histories, per-thread views, race clocks.
// ---------------------------------------------------------------------------

TraceEvent& Model::record_event(ThreadCtx& self, OpKind kind, std::size_t loc,
                                bool loc_is_data, std::uint64_t value,
                                int order) {
  TraceEvent e;
  e.index = trace_.events.size();
  e.thread = self.id;
  e.kind = kind;
  e.loc = loc;
  e.loc_is_data = loc_is_data;
  e.value = value;
  if (!loc_is_data && loc < atomics_.size() && atomics_[loc].pointer &&
      value != 0) {
    // Heap addresses differ between runs (ASLR, allocator state), so the
    // trace names each by the order it first appeared in this execution.
    auto it = std::find(addresses_.begin(), addresses_.end(), value);
    if (it == addresses_.end()) it = addresses_.insert(it, value);
    e.value = static_cast<std::uint64_t>(it - addresses_.begin()) + 1;
    e.pointer = true;
  }
  e.order = order;
  trace_.events.push_back(e);
  return trace_.events.back();
}

void Model::mark_accessor(std::size_t loc, std::size_t tid) {
  if (shared_mask_.size() <= loc) shared_mask_.resize(loc + 1, 0);
  const auto bit = static_cast<std::uint8_t>(1u << tid);
  std::uint8_t& m = shared_mask_[loc];
  if ((m & bit) == 0) {
    const bool was_shared = std::popcount(m) >= 2;
    m = static_cast<std::uint8_t>(m | bit);
    if (!was_shared && std::popcount(m) >= 2) sharing_grew_ = true;
  }
}

bool Model::loc_is_shared(std::size_t loc) const {
  return loc < shared_mask_.size() && std::popcount(shared_mask_[loc]) >= 2;
}

std::uint32_t& Model::view_of(ThreadCtx& t, std::size_t loc) {
  if (t.loc_view.size() <= loc) t.loc_view.resize(loc + 1, 0);
  return t.loc_view[loc];
}

std::size_t Model::register_atomic(std::uint64_t initial, bool pointer) {
  ThreadCtx& self = self_ctx();
  const std::size_t loc = atomics_.size();
  atomics_.emplace_back();
  AtomicLoc& a = atomics_.back();
  a.pointer = pointer;
  self.hb.tick(self.id);
  StoreRecord s;
  s.value = initial;
  s.writer = self.id;
  s.seq = 0;
  a.next_seq = 1;
  // Initialization is not an atomic op: its visibility to other threads
  // rides on whatever edge publishes the enclosing object (spawn, or a
  // release store of a pointer to it) — exactly the C++ rule.
  if (!aborting_) {
    TraceEvent& e = record_event(self, OpKind::kAtomicStore, loc, false,
                                 initial, -1);
    e.note = "init";
    s.event_index = e.index;
  }
  view_of(self, loc) = 0;
  mark_accessor(loc, self.id);
  a.history.push_back(std::move(s));
  return loc;
}

void Model::unregister_atomic(std::size_t loc) {
  if (loc < atomics_.size()) atomics_[loc].alive = false;
}

std::size_t Model::register_data() {
  ThreadCtx& self = self_ctx();
  const std::size_t loc = datas_.size();
  datas_.emplace_back();
  DataLoc& d = datas_.back();
  self.hb.tick(self.id);
  d.last_writer = self.id;
  d.write_epoch = self.hb.at(self.id);
  if (!aborting_) {
    TraceEvent& e = record_event(self, OpKind::kDataStore, loc, true, 0, -1);
    e.note = "init";
    d.write_event = e.index;
  }
  return loc;
}

void Model::unregister_data(std::size_t loc) {
  if (loc < datas_.size()) datas_[loc].alive = false;
}

bool Model::should_park(std::size_t loc) const {
  // A schedule point is only worth taking when another thread could actually
  // be scheduled instead AND the location is contended (exhaustive mode) or
  // we are in the all-points random mode. The alive>1 condition also keeps
  // post-join teardown (destructors are noexcept) from ever parking, so an
  // abort can never need to throw through a destructor.
  if (aborting_) return false;
  std::size_t alive = 0;
  for (const ThreadCtx& t : threads_)
    if (t.state != ThreadCtx::State::kDone) ++alive;
  if (alive <= 1) return false;
  return loc_is_shared(loc) || random_mode_;
}

std::uint64_t Model::atomic_load(std::size_t loc, std::memory_order mo) {
  ThreadCtx& self = self_ctx();
  mark_accessor(loc, self.id);
  if (should_park(loc)) {
    self.pending = {OpKind::kAtomicLoad, loc, false};
    schedule_point(self);
  }
  return execute_load(self, loc, mo);
}

std::uint64_t Model::execute_load(ThreadCtx& self, std::size_t loc,
                                  std::memory_order mo) {
  AtomicLoc& a = atomics_[loc];
  if (!a.alive && !aborting_)
    fail("use-after-free: load of dead atomic a" + std::to_string(loc) +
         " by T" + std::to_string(self.id));
  self.hb.tick(self.id);

  // Coherence floor: this thread's view of the location, plus (for seq_cst
  // loads) the newest seq_cst store — the SC total order is schedule order.
  std::uint32_t floor = view_of(self, loc);
  if (mo == std::memory_order_seq_cst && a.latest_sc_seq >= 0)
    floor = std::max(floor, static_cast<std::uint32_t>(a.latest_sc_seq));

  std::size_t first = 0;
  while (first < a.history.size() && a.history[first].seq < floor) ++first;
  const std::size_t n = a.history.size() - first;
  std::size_t pick = 0;  // 0 = newest (the SC-like execution explored first)
  if (n > 1 && !aborting_) pick = choose(n);
  const StoreRecord& s = a.history[a.history.size() - 1 - pick];

  view_of(self, loc) = std::max(view_of(self, loc), s.seq);
  bool synced = false;
  if (is_acquire(mo) && s.has_release_view) {
    self.hb.merge(s.release_hb);
    merge_loc_views(self.loc_view, s.release_locs);
    synced = true;
  }
  if (!aborting_) {
    TraceEvent& e = record_event(self, OpKind::kAtomicLoad, loc, false,
                                 s.value, static_cast<int>(mo));
    e.read_from = s.seq;
    e.synced = synced;
    if (synced) trace_.hb_edges.push_back({s.event_index, e.index, loc});
    wake_sleepers(loc, false);
  }
  return s.value;
}

void Model::atomic_store(std::size_t loc, std::uint64_t value,
                         std::memory_order mo) {
  ThreadCtx& self = self_ctx();
  mark_accessor(loc, self.id);
  if (should_park(loc)) {
    self.pending = {OpKind::kAtomicStore, loc, true};
    schedule_point(self);
  }
  execute_store(self, loc, value, mo);
}

void Model::execute_store(ThreadCtx& self, std::size_t loc,
                          std::uint64_t value, std::memory_order mo) {
  AtomicLoc& a = atomics_[loc];
  if (!a.alive && !aborting_)
    fail("use-after-free: store to dead atomic a" + std::to_string(loc) +
         " by T" + std::to_string(self.id));
  self.hb.tick(self.id);

  const bool demoted = opts_.demote_store_loc >= 0 &&
                       static_cast<std::size_t>(opts_.demote_store_loc) == loc &&
                       is_release(mo);
  const std::memory_order eff = demoted ? std::memory_order_relaxed : mo;

  StoreRecord s;
  s.value = value;
  s.writer = self.id;
  s.seq = a.next_seq++;
  view_of(self, loc) = s.seq;
  if (is_release(eff)) {
    // A plain (non-RMW) store starts a fresh release sequence; it does NOT
    // inherit the previous store's views (C++20 dropped same-thread
    // continuation, and wfcheck models the C++20 rule).
    s.has_release_view = true;
    s.release_hb = self.hb;
    s.release_locs = self.loc_view;
  }
  s.is_sc = eff == std::memory_order_seq_cst;
  if (s.is_sc) a.latest_sc_seq = s.seq;
  if (!aborting_) {
    TraceEvent& e = record_event(self, OpKind::kAtomicStore, loc, false, value,
                                 static_cast<int>(mo));
    e.demoted = demoted;
    s.event_index = e.index;
  }
  a.history.push_back(std::move(s));
  ++store_epoch_;
  if (!aborting_) wake_sleepers(loc, true);
  prune_history(loc);
}

std::uint64_t Model::atomic_rmw(std::size_t loc, RmwOp op,
                                std::uint64_t operand,
                                std::uint64_t cas_expected,
                                std::memory_order mo, bool* cas_ok) {
  ThreadCtx& self = self_ctx();
  mark_accessor(loc, self.id);
  if (should_park(loc)) {
    self.pending = {OpKind::kAtomicRmw, loc, true};
    schedule_point(self);
  }
  AtomicLoc& a = atomics_[loc];
  if (!a.alive && !aborting_)
    fail("use-after-free: rmw on dead atomic a" + std::to_string(loc) +
         " by T" + std::to_string(self.id));
  self.hb.tick(self.id);

  // An RMW reads the LAST value in modification order (C++ guarantees this
  // atomicity); only plain loads may observe stale stores.
  const StoreRecord last = a.history.back();
  const std::uint64_t prev = last.value;
  const bool acq = is_acquire(mo);

  if (op == RmwOp::kCas && prev != cas_expected) {
    if (cas_ok != nullptr) *cas_ok = false;
    view_of(self, loc) = std::max(view_of(self, loc), last.seq);
    if (acq && last.has_release_view) {
      self.hb.merge(last.release_hb);
      merge_loc_views(self.loc_view, last.release_locs);
    }
    if (!aborting_) {
      TraceEvent& e = record_event(self, OpKind::kAtomicRmw, loc, false, prev,
                                   static_cast<int>(mo));
      e.read_from = last.seq;
      e.note = "cas-fail";
      wake_sleepers(loc, false);
    }
    return prev;
  }
  if (cas_ok != nullptr) *cas_ok = true;

  std::uint64_t next = 0;
  switch (op) {
    case RmwOp::kAdd: next = prev + operand; break;
    case RmwOp::kSub: next = prev - operand; break;
    case RmwOp::kExchange:
    case RmwOp::kCas: next = operand; break;
  }

  bool synced = false;
  if (acq && last.has_release_view) {
    self.hb.merge(last.release_hb);
    merge_loc_views(self.loc_view, last.release_locs);
    synced = true;
  }

  const bool demoted = opts_.demote_store_loc >= 0 &&
                       static_cast<std::size_t>(opts_.demote_store_loc) == loc &&
                       is_release(mo);
  StoreRecord s;
  s.value = next;
  s.writer = self.id;
  s.seq = a.next_seq++;
  view_of(self, loc) = s.seq;
  if (last.has_release_view) {
    // Release-sequence continuation: an RMW carries forward the views of the
    // store it read, whatever its own order.
    s.has_release_view = true;
    s.release_hb = last.release_hb;
    s.release_locs = last.release_locs;
  }
  if (is_release(mo) && !demoted) {
    s.has_release_view = true;
    s.release_hb.merge(self.hb);
    merge_loc_views(s.release_locs, self.loc_view);
  }
  s.is_sc = mo == std::memory_order_seq_cst && !demoted;
  if (s.is_sc) a.latest_sc_seq = s.seq;
  if (!aborting_) {
    TraceEvent& e = record_event(self, OpKind::kAtomicRmw, loc, false, next,
                                 static_cast<int>(mo));
    e.read_from = last.seq;
    e.synced = synced;
    e.demoted = demoted;
    if (synced) trace_.hb_edges.push_back({last.event_index, e.index, loc});
    s.event_index = e.index;
  }
  a.history.push_back(std::move(s));
  ++store_epoch_;
  if (!aborting_) wake_sleepers(loc, true);
  prune_history(loc);
  return prev;
}

void Model::prune_history(std::size_t loc) {
  AtomicLoc& a = atomics_[loc];
  if (a.history.size() <= 16) return;
  std::uint32_t floor = UINT32_MAX;
  for (ThreadCtx& t : threads_) {
    if (t.state == ThreadCtx::State::kDone) continue;
    floor = std::min(floor, view_of(t, loc));
  }
  std::size_t drop = 0;
  while (drop + 1 < a.history.size() && a.history[drop].seq < floor) ++drop;
  if (drop > 0)
    a.history.erase(a.history.begin(),
                    a.history.begin() + static_cast<std::ptrdiff_t>(drop));
}

void Model::data_load(std::size_t loc, std::uint64_t value_bits) {
  ThreadCtx& self = self_ctx();
  if (aborting_) return;
  DataLoc& d = datas_[loc];
  if (!d.alive)
    fail("use-after-free: read of dead data cell d" + std::to_string(loc) +
         " by T" + std::to_string(self.id));
  self.hb.tick(self.id);
  TraceEvent& e = record_event(self, OpKind::kDataLoad, loc, true, value_bits,
                               -1);
  if (d.last_writer != SIZE_MAX && d.last_writer != self.id &&
      d.write_epoch > self.hb.at(d.last_writer)) {
    fail("data race on d" + std::to_string(loc) + ": read by T" +
         std::to_string(self.id) + " (event #" + std::to_string(e.index) +
         ") is unordered with write by T" + std::to_string(d.last_writer) +
         " (event #" + std::to_string(d.write_event) +
         ") — no happens-before edge (missing release/acquire?)");
  }
  d.read_epochs[self.id] = self.hb.at(self.id);
  d.read_events[self.id] = e.index;
}

void Model::data_store(std::size_t loc, std::uint64_t value_bits) {
  ThreadCtx& self = self_ctx();
  if (aborting_) return;
  DataLoc& d = datas_[loc];
  if (!d.alive)
    fail("use-after-free: write of dead data cell d" + std::to_string(loc) +
         " by T" + std::to_string(self.id));
  self.hb.tick(self.id);
  TraceEvent& e = record_event(self, OpKind::kDataStore, loc, true, value_bits,
                               -1);
  if (d.last_writer != SIZE_MAX && d.last_writer != self.id &&
      d.write_epoch > self.hb.at(d.last_writer)) {
    fail("data race on d" + std::to_string(loc) + ": write by T" +
         std::to_string(self.id) + " (event #" + std::to_string(e.index) +
         ") is unordered with write by T" + std::to_string(d.last_writer) +
         " (event #" + std::to_string(d.write_event) +
         ") — no happens-before edge (missing release/acquire?)");
  }
  for (std::size_t r = 0; r < kMaxThreads; ++r) {
    if (r == self.id || d.read_epochs[r] == 0) continue;
    if (d.read_epochs[r] > self.hb.at(r)) {
      fail("data race on d" + std::to_string(loc) + ": write by T" +
           std::to_string(self.id) + " (event #" + std::to_string(e.index) +
           ") is unordered with read by T" + std::to_string(r) + " (event #" +
           std::to_string(d.read_events[r]) +
           ") — no happens-before edge (missing release/acquire?)");
    }
  }
  d.last_writer = self.id;
  d.write_epoch = self.hb.at(self.id);
  d.write_event = e.index;
  d.read_epochs.fill(0);
}

// ---------------------------------------------------------------------------
// Free-function helpers.
// ---------------------------------------------------------------------------

namespace {
Model& required_model() {
  Model* m = Model::current();
  if (m == nullptr)
    throw std::logic_error(
        "wfcheck: mc::spawn/join/yield/model_assert used outside mc::check");
  return *m;
}
}  // namespace

std::size_t spawn(std::function<void()> fn) {
  return required_model().spawn(std::move(fn));
}

void join(std::size_t tid) { required_model().join(tid); }

void yield() { required_model().thread_yield(); }

void model_assert(bool condition, const char* message) {
  if (!condition)
    required_model().fail(std::string("assertion failed: ") + message);
}

CheckResult check(const ModelOptions& options,
                  const std::function<void()>& body) {
  Model model;
  return model.check(options, body);
}

Trace replay_seed(const ModelOptions& options, std::uint64_t seed,
                  const std::function<void()>& body) {
  Model model;
  return model.replay_seed(options, seed, body);
}

}  // namespace wfbn::mc
