#include "lease/lease_table.h"

#include <algorithm>

namespace loren::lease {
namespace detail {
namespace {

/// Multiplicative hash folded onto its high half, so the low bits a set
/// indexes with depend on every bit of the services' structured names.
std::uint64_t home(sim::Name name, std::uint64_t mask) {
  const std::uint64_t x = static_cast<std::uint64_t>(name) * 0x9E3779B97F4A7C15ull;
  return (x ^ (x >> 32)) & mask;
}

}  // namespace

std::uint64_t LeaseSet::capacity_for(std::uint64_t n) {
  std::uint64_t c = kMinCapacity;
  while (n * 4 > c * 3) c <<= 1;
  return c;
}

std::uint64_t LeaseSet::find(sim::Name name) const {
  if (slots == nullptr) return 0;
  for (std::uint64_t i = home(name, mask);; i = (i + 1) & mask) {
    if (slots[i].name == name) return i;
    if (slots[i].name == kFree) return capacity();
  }
}

void LeaseSet::grow_to(std::uint64_t want) {
  const std::uint64_t old_cap = capacity();
  const std::unique_ptr<Slot[]> old = std::move(slots);
  slots = std::make_unique<Slot[]>(want);
  mask = static_cast<std::uint32_t>(want - 1);
  for (std::uint64_t i = 0; i < old_cap; ++i) {
    if (old[i].name == kFree) continue;
    std::uint64_t j = home(old[i].name, mask);
    while (slots[j].name != kFree) j = (j + 1) & mask;
    slots[j] = old[i];
  }
}

void LeaseSet::reserve(std::uint64_t n) {
  // mo:relaxed-ok(every store of size is made under mu, which we hold)
  const std::uint64_t want = size.load(std::memory_order_relaxed) + n;
  // capacity_for(want) > capacity(), without its loop on the common path.
  if (want * 4 > capacity() * 3) grow_to(capacity_for(want));
}

void LeaseSet::put(sim::Name name, std::uint64_t deadline) {
  // mo:relaxed-ok(every store of size is made under mu, which we hold)
  const std::uint32_t n = size.load(std::memory_order_relaxed);
  reserve(1);
  std::uint64_t i = home(name, mask);
  while (slots[i].name != kFree && slots[i].name != name) i = (i + 1) & mask;
  if (slots[i].name == name) {
    slots[i].deadline = deadline;  // a re-grant under release_guard off
    return;
  }
  slots[i] = {name, deadline};
  if (n == 0) {
    // The empty -> non-empty store: the seq_cst half of the pair with a
    // reap pass's reset of next_due (docs/leases.md, "The gate never
    // hides a live lease").
    size.store(1, std::memory_order_seq_cst);
  } else {
    // mo:relaxed-ok(the set was already non-empty; stored under mu)
    size.store(n + 1, std::memory_order_relaxed);
  }
}

void LeaseSet::erase_at(std::uint64_t i) {
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home lies cyclically in (hole, entry], so no tombstones.
  for (std::uint64_t j = (i + 1) & mask; slots[j].name != kFree;
       j = (j + 1) & mask) {
    if (((j - home(slots[j].name, mask)) & mask) >= ((j - i) & mask)) {
      slots[i] = slots[j];
      i = j;
    }
  }
  slots[i].name = kFree;
  // mo:relaxed-ok(stored under mu; a pass that reads the old, larger
  // size only locks a set it could have skipped)
  size.store(size.load(std::memory_order_relaxed) - 1, std::memory_order_relaxed);
}

void LeaseSet::clear() {
  std::fill_n(slots.get(), capacity(), Slot{});
  // mo:relaxed-ok(stored under mu; emptying needs no ordering)
  size.store(0, std::memory_order_relaxed);
}

}  // namespace detail

using detail::LeaseSet;

LeaseTable::LeaseTable(const LeaseOptions& opts,
                       telemetry::MetricsRegistry* registry)
    : ttl_(opts.ttl_ticks),
      grace_(opts.grace),
      clock_(opts.clock != nullptr ? opts.clock : &telemetry::trace_ticks),
      release_guard_(opts.release_guard),
      registry_(registry) {
  if (registry_ != nullptr) {
    ctr_opened_ = registry_->counter("lease.opened");
    ctr_closed_ = registry_->counter("lease.closed");
    ctr_expired_ = registry_->counter("lease.expired");
    ctr_renewals_ = registry_->counter("lease.renewals");
    ctr_guard_trips_ = registry_->counter("lease.guard_trips");
    hist_reap_late_ = registry_->histogram("lease.reap_late_ticks");
  }
}

Heartbeat& LeaseTable::register_thread() {
  Heartbeat& hb = heartbeats_.acquire();
  // A recycled node's set is empty and its old holder gone; only the
  // stamp needs resetting, so the new holder starts with no stale gap.
  // mo:relaxed-ok(single-writer stamp, written before the new owner's
  // first op; a pass reads it only for a non-empty set)
  hb.last.store(0, std::memory_order_relaxed);
  return hb;
}

void LeaseTable::retire_thread(Heartbeat& hb) {
  {
    LeaseSet& set = hb.leases_;
    std::lock_guard<SimMutex> lock(set.mu);
    // mo:relaxed-ok(read under mu, which every store of size holds)
    if (set.size.load(std::memory_order_relaxed) != 0) {
      set.orphaned = true;  // the pass that empties the set recycles it
      return;
    }
  }
  heartbeats_.retire(hb);
}

template <class F>
void LeaseTable::for_each_set(F&& f) const {
  // Lock order: the heartbeat registry's lock, then a holder's set.
  heartbeats_.for_each([&](Heartbeat& hb) { f(hb.leases_, &hb); });
  f(holderless_, static_cast<Heartbeat*>(nullptr));
}

void LeaseTable::note_orphan_locked(LeaseSet& set, Heartbeat* hb,
                                    std::vector<Heartbeat*>& out) {
  // mo:relaxed-ok(read under mu, which every store of size holds)
  if (set.orphaned && set.size.load(std::memory_order_relaxed) == 0) {
    set.orphaned = false;  // exactly one pass recycles the node
    out.push_back(hb);
  }
}

void LeaseTable::retire_orphans(const std::vector<Heartbeat*>& orphans) {
  for (Heartbeat* hb : orphans) heartbeats_.retire(*hb);
}

template <class Hit>
bool LeaseTable::on_holderless_locked(LeaseSet& own, const Heartbeat* hb,
                                      sim::Name name, Hit&& hit) {
  if (hb != nullptr) {
    // Lock order: a holder's set, then the holderless one.
    std::lock_guard<SimMutex> lock(holderless_.mu);
    if (const std::uint64_t i = holderless_.find(name);
        i != holderless_.capacity()) {
      hit(holderless_, i);
      return true;
    }
  }
  // Gone (reaped) or bound to a different holder: a guard trip.
  ++own.guard_trips;
  return false;
}

std::uint64_t LeaseTable::effective_deadline(std::uint64_t deadline,
                                             std::uint64_t beat) const {
  return std::max(deadline, beat != 0 ? beat + ttl_ : 0) + grace_;
}

void LeaseTable::lower_gate(std::uint64_t due) {
  // A seq_cst read: after an open's seq_cst size store, it is the other
  // half of the store/load pair with a pass's reset.
  std::uint64_t cur = next_due_.load(std::memory_order_seq_cst);
  if (due >= cur) return;
  LOREN_SIM_POINT("lease.gate");
  while (due < cur && !next_due_.compare_exchange_weak(cur, due)) {
  }
}

void LeaseTable::HolderBatch::lock() {
  set_.mu.lock();
  locked_ = true;
  if (reserve_ != 0) set_.reserve(reserve_);
}

void LeaseTable::HolderBatch::open(sim::Name name, std::uint64_t now_ticks) {
  LOREN_SIM_POINT("lease.open");
  if (!locked_) lock();
  const std::uint64_t deadline = now_ticks + table_.ttl_;
  set_.put(name, deadline);
  ++set_.opened;
  ++opened_;
  due_ = std::min(due_, deadline + table_.grace_);
}

bool LeaseTable::HolderBatch::close(sim::Name name) {
  LOREN_SIM_POINT("lease.close");
  if (!locked_) lock();
  const auto drop = [](LeaseSet& s, std::uint64_t i) {
    s.erase_at(i);
    ++s.closed;
  };
  if (const std::uint64_t i = set_.find(name); i != set_.capacity()) {
    drop(set_, i);
    ++closed_;
    return true;
  }
  // The reaper won — the cell was reclaimed, and if the name bits were
  // already reissued the lease belongs to a *different* holder. Either
  // way this close must not free the cell.
  if (table_.on_holderless_locked(set_, hb_, name, drop)) {
    ++closed_;
    return true;
  }
  ++trips_;
  return false;
}

void LeaseTable::open(sim::Name name, std::uint64_t now_ticks,
                      const Heartbeat* hb, telemetry::MetricsRegistry::ThreadStripe* stripe) {
  HolderBatch(*this, hb, stripe).open(name, now_ticks);
}

void LeaseTable::open_batch(const sim::Name* names, std::uint64_t count,
                            std::uint64_t now_ticks, const Heartbeat* hb,
                            telemetry::MetricsRegistry::ThreadStripe* stripe) {
  HolderBatch batch(*this, hb, stripe, count);
  for (std::uint64_t i = 0; i < count; ++i) batch.open(names[i], now_ticks);
}

bool LeaseTable::close(sim::Name name, const Heartbeat* hb,
                       telemetry::MetricsRegistry::ThreadStripe* stripe) {
  return HolderBatch(*this, hb, stripe).close(name);
}

bool LeaseTable::renew(sim::Name name, std::uint64_t now_ticks,
                       const Heartbeat* hb,
                       telemetry::MetricsRegistry::ThreadStripe* stripe) {
  LOREN_SIM_POINT("lease.renew");
  LeaseSet& set = own_set(hb);
  const std::uint64_t deadline = now_ticks + ttl_;
  const auto push = [deadline](LeaseSet& s, std::uint64_t i) {
    s.slots[i].deadline = deadline;
  };
  bool ok = true;
  {
    std::lock_guard<SimMutex> lock(set.mu);
    if (const std::uint64_t i = set.find(name); i != set.capacity()) {
      push(set, i);
    } else {
      ok = on_holderless_locked(set, hb, name, push);
    }
  }
  if (ok) lower_gate(deadline + grace_);
  if (stripe != nullptr) stripe->add(ok ? ctr_renewals_ : ctr_guard_trips_);
  return ok;
}

bool LeaseTable::rebind(sim::Name name, std::uint64_t now_ticks,
                        const Heartbeat* hb,
                        telemetry::MetricsRegistry::ThreadStripe* stripe) {
  LeaseSet& set = own_set(hb);
  const std::uint64_t deadline = now_ticks + ttl_;
  bool ok = true;
  {
    std::lock_guard<SimMutex> lock(set.mu);
    if (const std::uint64_t i = set.find(name); i != set.capacity()) {
      set.slots[i].deadline = deadline;
    } else {
      // A holderless lease moves into the caller's set.
      ok = on_holderless_locked(set, hb, name,
                                [&](LeaseSet& s, std::uint64_t j) {
                                  s.erase_at(j);
                                  set.put(name, deadline);
                                });
    }
  }
  if (ok) {
    lower_gate(deadline + grace_);
  } else if (stripe != nullptr) {
    stripe->add(ctr_guard_trips_);
  }
  return ok;
}

bool LeaseTable::validate(sim::Name name, const Heartbeat* hb,
                          telemetry::MetricsRegistry::ThreadStripe* stripe) {
  LeaseSet& set = own_set(hb);
  {
    std::lock_guard<SimMutex> lock(set.mu);
    if (set.find(name) != set.capacity()) return true;
    ++set.guard_trips;
  }
  if (stripe != nullptr) stripe->add(ctr_guard_trips_);
  return false;
}

std::uint64_t LeaseTable::expire_locked(LeaseSet& set, std::uint64_t beat,
                                        std::uint64_t now_ticks,
                                        std::vector<Expiry>& out) {
  std::uint64_t next = kNever;
  for (std::uint64_t i = 0; i < set.capacity();) {
    const detail::Slot s = set.slots[i];
    const std::uint64_t eff = effective_deadline(s.deadline, beat);
    if (s.name == detail::kFree || eff > now_ticks) {
      if (s.name != detail::kFree) next = std::min(next, eff);
      ++i;
    } else {
      out.push_back({eff, s.name});
      ++set.expired;
      set.erase_at(i);  // a later entry may have shifted into slot i
    }
  }
  return next;
}

std::size_t LeaseTable::reap(std::uint64_t now_ticks,
                             telemetry::MetricsRegistry::ThreadStripe* stripe) {
  LOREN_SIM_POINT("lease.reap");
  std::unique_lock<SimMutex> pass(pass_mu_);
  return reap_pass(now_ticks, stripe, pass);
}

std::size_t LeaseTable::try_reap(std::uint64_t now_ticks,
                                 telemetry::MetricsRegistry::ThreadStripe* stripe) {
  LOREN_SIM_POINT("lease.reap");
  // mo:relaxed-ok(a stale gate moves this poll's pass by one poll; it can
  // never hide a due lease from the next one)
  if (now_ticks < next_due_.load(std::memory_order_relaxed)) return 0;
  std::unique_lock<SimMutex> pass(pass_mu_, std::try_to_lock);
  if (!pass.owns_lock()) return 0;  // another thread is reaping
  return reap_pass(now_ticks, stripe, pass);
}

std::size_t LeaseTable::reap_pass(std::uint64_t now_ticks,
                                  telemetry::MetricsRegistry::ThreadStripe* stripe,
                                  std::unique_lock<SimMutex>& pass_lock) {
  ++passes_;
  // Reset before any size is read: an open this pass misses reads the
  // reset and lowers the gate itself (the proof is in docs/leases.md).
  next_due_.store(kNever, std::memory_order_seq_cst);
  std::uint64_t due = kNever;
  std::vector<Expiry> out;
  std::vector<Heartbeat*> orphans;
  for_each_set([&](LeaseSet& set, Heartbeat* hb) {
    if (set.size.load(std::memory_order_seq_cst) == 0) return;
    // mo:relaxed-ok(single-writer heartbeat stamp; a stale read only
    // delays expiry by one reap pass, the max() can't go early)
    const std::uint64_t beat = hb != nullptr ? hb->last.load(std::memory_order_relaxed) : 0;
    // A fresh heartbeat bounds every lease the holder has or will open.
    if (const std::uint64_t fresh = effective_deadline(0, beat);
        beat != 0 && fresh > now_ticks) {
      due = std::min(due, fresh);
      return;
    }
    std::lock_guard<SimMutex> lock(set.mu);
    due = std::min(due, expire_locked(set, beat, now_ticks, out));
    note_orphan_locked(set, hb, orphans);
  });
  lower_gate(due);
  retire_orphans(orphans);
  pass_lock.unlock();
  std::stable_sort(out.begin(), out.end(),
                   [](const Expiry& a, const Expiry& b) { return a.due < b.due; });
  std::size_t reclaimed = 0;
  for (const Expiry& e : out) {
    if (stripe != nullptr) {
      stripe->add(ctr_expired_);
      stripe->record(hist_reap_late_, now_ticks - e.due);
    }
    LOREN_SIM_POINT("lease.expire");
    if (reclaim_ != nullptr && reclaim_(reclaim_ctx_, e.name)) ++reclaimed;
  }
  return reclaimed;
}

void LeaseTable::clear() {
  std::vector<Heartbeat*> orphans;
  for_each_set([&](LeaseSet& set, Heartbeat* hb) {
    std::lock_guard<SimMutex> lock(set.mu);
    set.clear();
    note_orphan_locked(set, hb, orphans);
  });
  retire_orphans(orphans);
  // mo:relaxed-ok(clear() requires quiescence, like the service reset)
  next_due_.store(kNever, std::memory_order_relaxed);
}

template <class Get>
std::uint64_t LeaseTable::sum(Get get) const {
  std::uint64_t total = 0;
  for_each_set([&](LeaseSet& set, const Heartbeat*) {
    std::lock_guard<SimMutex> lock(set.mu);
    total += get(set);
  });
  return total;
}

std::uint64_t LeaseTable::leases_live() const {
  return sum([](const LeaseSet& s) {
    // mo:relaxed-ok(read under mu, which every store of size holds)
    return std::uint64_t{s.size.load(std::memory_order_relaxed)};
  });
}
std::uint64_t LeaseTable::opened() const {
  return sum([](const LeaseSet& s) { return s.opened; });
}
std::uint64_t LeaseTable::closed() const {
  return sum([](const LeaseSet& s) { return s.closed; });
}
std::uint64_t LeaseTable::expired() const {
  return sum([](const LeaseSet& s) { return s.expired; });
}
std::uint64_t LeaseTable::guard_trips() const {
  return sum([](const LeaseSet& s) { return s.guard_trips; });
}

}  // namespace loren::lease
