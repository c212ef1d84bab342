#include "lease/lease_table.h"

#include <algorithm>
#include <bit>

namespace loren::lease {
namespace {

/// splitmix64-style finalizer: shard selection takes the high bits, the
/// per-shard map takes the low bits, so the two indices decorrelate even
/// for the services' structured (shard-interleaved / tag-packed) names.
std::uint64_t mix_name(sim::Name name) {
  auto x = static_cast<std::uint64_t>(name);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

std::uint64_t pow2_at_least(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

constexpr std::size_t kInitialBuckets = 64;

}  // namespace

LeaseTable::LeaseTable(const LeaseOptions& opts,
                       telemetry::MetricsRegistry* registry)
    : ttl_(opts.ttl_ticks),
      grace_(opts.grace),
      clock_(opts.clock != nullptr ? opts.clock : &telemetry::trace_ticks),
      release_guard_(opts.release_guard),
      registry_(registry) {
  const std::uint64_t n =
      pow2_at_least(opts.table_shards == 0 ? 1 : opts.table_shards);
  shard_mask_ = n - 1;
  shards_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->buckets.assign(kInitialBuckets, kNil);
    for (auto& level : s->wheel) {
      for (auto& slot : level) slot = kNil;
    }
    for (auto& bits : s->occupied) bits = 0;
    for (auto& c : s->cursor) c = 0;
    shards_.push_back(std::move(s));
  }
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
  std::lock_guard<SimMutex> lock(hb_mu_);
  heartbeats_.push_back(std::make_unique<Heartbeat>());
  return *heartbeats_.back();
}

LeaseTable::Shard& LeaseTable::shard_for(sim::Name name) {
  return *shards_[(mix_name(name) >> 48) & shard_mask_];
}

const LeaseTable::Shard& LeaseTable::shard_for(sim::Name name) const {
  return *shards_[(mix_name(name) >> 48) & shard_mask_];
}

std::uint32_t LeaseTable::find_locked(Shard& s, sim::Name name) const {
  const std::uint64_t b = mix_name(name) & (s.buckets.size() - 1);
  for (std::uint32_t i = s.buckets[b]; i != kNil; i = s.records[i].hnext) {
    if (s.records[i].name == name) return i;
  }
  return kNil;
}

void LeaseTable::unlink_locked(Shard& s, std::uint32_t idx) {
  const std::uint64_t b =
      mix_name(s.records[idx].name) & (s.buckets.size() - 1);
  std::uint32_t* p = &s.buckets[b];
  while (*p != idx) p = &s.records[*p].hnext;
  *p = s.records[idx].hnext;
  s.records[idx].hnext = kNil;
}

std::uint32_t LeaseTable::alloc_record_locked(Shard& s) {
  if (s.live_count >= s.buckets.size()) {
    // Rehash to double. Only map-linked records (live == true) move;
    // records on the freelist are not in any chain.
    std::vector<std::uint32_t> nb(s.buckets.size() * 2, kNil);
    for (std::uint32_t i = 0; i < s.records.size(); ++i) {
      Record& r = s.records[i];
      if (!r.live) continue;
      const std::uint64_t b = mix_name(r.name) & (nb.size() - 1);
      r.hnext = nb[b];
      nb[b] = i;
    }
    s.buckets.swap(nb);
  }
  std::uint32_t idx;
  if (s.free_head != kNil) {
    idx = s.free_head;
    s.free_head = s.records[idx].wnext;
    s.records[idx].wnext = kNil;
  } else {
    idx = static_cast<std::uint32_t>(s.records.size());
    s.records.emplace_back();
  }
  return idx;
}

void LeaseTable::free_record_locked(Shard& s, std::uint32_t idx) {
  unlink_locked(s, idx);
  Record& r = s.records[idx];
  r.live = false;
  r.wnext = s.free_head;
  s.free_head = idx;
  --s.live_count;
}

void LeaseTable::wheel_insert_locked(Shard& s, std::uint32_t idx,
                                     std::uint64_t due,
                                     std::uint64_t now_ticks) {
  if (due <= now_ticks) due = now_ticks + 1;
  const std::uint64_t delta = due - now_ticks;
  // Smallest level whose span (64^(level+1) ticks) covers the delta; far
  // deadlines saturate at the top level and cascade as they approach.
  unsigned level = 0;
  while (level + 1 < kWheelLevels &&
         (delta >> (kWheelBits * (level + 1))) != 0) {
    ++level;
  }
  // A pass visits buckets (cursor, now], so only buckets in (cursor,
  // cursor + 64] come up at their own time; any other would alias to a
  // slot the sweep reaches a revolution early (a deadline past the
  // wheel's span) or late (an open whose tick predates the last reap).
  // Clamped into that window, the entry is visited no later than due and
  // at most once per revolution before it; the exact check at the visit
  // re-arms it.
  const std::uint64_t cur = s.cursor[level];
  const std::uint64_t bucket = std::clamp(due >> (kWheelBits * level),
                                          cur + 1, cur + kWheelSlots);
  const auto slot = static_cast<std::uint32_t>(bucket & (kWheelSlots - 1));
  Record& r = s.records[idx];
  const std::uint32_t head = s.wheel[level][slot];
  r.wnext = head;
  r.wprev = kNil;
  r.wpos = static_cast<std::uint16_t>(level * kWheelSlots + slot);
  if (head != kNil) s.records[head].wprev = idx;
  s.wheel[level][slot] = idx;
  // Stored only on a change: an insert into an occupied slot, the common
  // case, reads the bitmap without dirtying it.
  const std::uint64_t bit = std::uint64_t{1} << slot;
  if ((s.occupied[level] & bit) == 0) s.occupied[level] |= bit;
}

void LeaseTable::wheel_unlink_locked(Shard& s, std::uint32_t idx) {
  const Record& r = s.records[idx];
  if (r.wnext != kNil) s.records[r.wnext].wprev = r.wprev;
  if (r.wprev != kNil) {
    s.records[r.wprev].wnext = r.wnext;
    return;
  }
  const unsigned level = r.wpos / kWheelSlots;
  const unsigned slot = r.wpos % kWheelSlots;
  s.wheel[level][slot] = r.wnext;
  if (r.wnext == kNil) s.occupied[level] &= ~(std::uint64_t{1} << slot);
}

std::uint64_t LeaseTable::effective_deadline_locked(const Record& rec) const {
  std::uint64_t hb_deadline = 0;
  if (rec.hb != nullptr) {
    // mo:relaxed-ok(single-writer heartbeat stamp; a stale read only
    // delays expiry by one reap pass, the max() below can't go early)
    const std::uint64_t beat = rec.hb->last.load(std::memory_order_relaxed);
    if (beat != 0) hb_deadline = beat + ttl_;
  }
  return std::max(rec.deadline, hb_deadline) + grace_;
}

void LeaseTable::advance_locked(Shard& s, std::uint64_t now_ticks,
                                std::vector<sim::Name>& out,
                                std::vector<std::uint64_t>& late) {
  for (unsigned level = 0; level < kWheelLevels; ++level) {
    const unsigned shift = kWheelBits * level;
    const std::uint64_t now_b = now_ticks >> shift;
    const std::uint64_t cur = s.cursor[level];
    if (now_b <= cur) continue;
    const std::uint64_t steps = now_b - cur;
    // Advanced first, so that a lease re-armed at this level below is
    // placed against the cursor the next pass starts from.
    s.cursor[level] = now_b;
    // The occupied slots the clock crossed, rotated so that bit k-1 is
    // slot cur + k: walking set bits upward visits them in crossing
    // order. A jump past a whole revolution visits each slot once.
    std::uint64_t due = std::rotr(
        s.occupied[level], static_cast<int>((cur + 1) & (kWheelSlots - 1)));
    if (steps < kWheelSlots) due &= (std::uint64_t{1} << steps) - 1;
    for (; due != 0; due &= due - 1) {
      const auto slot = static_cast<std::uint32_t>(
          (cur + 1 + static_cast<unsigned>(std::countr_zero(due))) &
          (kWheelSlots - 1));
      std::uint32_t i = s.wheel[level][slot];
      s.wheel[level][slot] = kNil;
      s.occupied[level] &= ~(std::uint64_t{1} << slot);
      while (i != kNil) {
        Record& r = s.records[i];
        const std::uint32_t next = r.wnext;
        if (const std::uint64_t eff = effective_deadline_locked(r);
            eff > now_ticks) {
          // Renewed (explicitly or via heartbeat): re-arm at the fresher
          // deadline. This exactness check is what makes early expiry
          // impossible — the wheel position is only a visit time.
          wheel_insert_locked(s, i, eff, now_ticks);
        } else {
          ++s.expired;
          out.push_back(r.name);
          late.push_back(now_ticks - eff);
          free_record_locked(s, i);
        }
        i = next;
      }
    }
  }
}

std::size_t LeaseTable::finish_reap(const std::vector<sim::Name>& names,
                                    const std::vector<std::uint64_t>& late,
                                    telemetry::MetricsRegistry::ThreadStripe* stripe) {
  std::size_t reclaimed = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (stripe != nullptr) {
      stripe->add(ctr_expired_);
      stripe->record(hist_reap_late_, late[i]);
    }
    LOREN_SIM_POINT("lease.expire");
    if (reclaim_ != nullptr && reclaim_(reclaim_ctx_, names[i])) ++reclaimed;
  }
  return reclaimed;
}

void LeaseTable::open(sim::Name name, std::uint64_t now_ticks,
                      const Heartbeat* hb, telemetry::MetricsRegistry::ThreadStripe* stripe) {
  LOREN_SIM_POINT("lease.open");
  Shard& s = shard_for(name);
  {
    std::lock_guard<SimMutex> lock(s.mu);
    const std::uint32_t idx = alloc_record_locked(s);
    Record& r = s.records[idx];
    r.name = name;
    r.deadline = now_ticks + ttl_;
    r.hb = hb;
    r.live = true;
    const std::uint64_t b = mix_name(name) & (s.buckets.size() - 1);
    r.hnext = s.buckets[b];
    s.buckets[b] = idx;
    ++s.live_count;
    ++s.opened;
    wheel_insert_locked(s, idx, r.deadline + grace_, now_ticks);
  }
  if (stripe != nullptr) stripe->add(ctr_opened_);
}

bool LeaseTable::close(sim::Name name, const Heartbeat* hb,
                       telemetry::MetricsRegistry::ThreadStripe* stripe) {
  LOREN_SIM_POINT("lease.close");
  Shard& s = shard_for(name);
  bool ok;
  {
    std::lock_guard<SimMutex> lock(s.mu);
    const std::uint32_t idx = find_locked(s, name);
    if (idx == kNil ||
        (s.records[idx].hb != nullptr && s.records[idx].hb != hb)) {
      // The reaper won — the cell was reclaimed, and if the name bits
      // were already reissued the lease we found belongs to a *different*
      // holder (the hb mismatch). Either way this close must not free
      // the cell.
      ++s.guard_trips;
      ok = false;
    } else {
      wheel_unlink_locked(s, idx);
      free_record_locked(s, idx);
      ++s.closed;
      ok = true;
    }
  }
  if (stripe != nullptr) stripe->add(ok ? ctr_closed_ : ctr_guard_trips_);
  return ok;
}

bool LeaseTable::renew(sim::Name name, std::uint64_t now_ticks,
                       const Heartbeat* hb,
                       telemetry::MetricsRegistry::ThreadStripe* stripe) {
  LOREN_SIM_POINT("lease.renew");
  Shard& s = shard_for(name);
  bool ok;
  {
    std::lock_guard<SimMutex> lock(s.mu);
    const std::uint32_t idx = find_locked(s, name);
    if (idx == kNil ||
        (s.records[idx].hb != nullptr && s.records[idx].hb != hb)) {
      ++s.guard_trips;
      ok = false;
    } else {
      // Lazy re-arm: only the deadline moves; the wheel entry re-checks
      // the effective deadline when its old visit time comes up.
      s.records[idx].deadline = now_ticks + ttl_;
      ok = true;
    }
  }
  if (stripe != nullptr) stripe->add(ok ? ctr_renewals_ : ctr_guard_trips_);
  return ok;
}

bool LeaseTable::rebind(sim::Name name, std::uint64_t now_ticks,
                        const Heartbeat* hb) {
  Shard& s = shard_for(name);
  std::lock_guard<SimMutex> lock(s.mu);
  const std::uint32_t idx = find_locked(s, name);
  if (idx == kNil ||
      (s.records[idx].hb != nullptr && s.records[idx].hb != hb)) {
    // Gone (reaped) or bound to a different live holder: not stealable.
    ++s.guard_trips;
    return false;
  }
  s.records[idx].hb = hb;
  s.records[idx].deadline = now_ticks + ttl_;
  return true;
}

bool LeaseTable::validate(sim::Name name, const Heartbeat* hb) {
  Shard& s = shard_for(name);
  std::lock_guard<SimMutex> lock(s.mu);
  const std::uint32_t idx = find_locked(s, name);
  if (idx != kNil && s.records[idx].hb == hb) return true;
  ++s.guard_trips;
  return false;
}

std::size_t LeaseTable::reap(std::uint64_t now_ticks,
                             telemetry::MetricsRegistry::ThreadStripe* stripe) {
  return reap_pass(now_ticks, stripe, /*wait=*/true);
}

std::size_t LeaseTable::try_reap(std::uint64_t now_ticks,
                                 telemetry::MetricsRegistry::ThreadStripe* stripe) {
  return reap_pass(now_ticks, stripe, /*wait=*/false);
}

std::size_t LeaseTable::reap_pass(std::uint64_t now_ticks,
                                  telemetry::MetricsRegistry::ThreadStripe* stripe,
                                  bool wait) {
  LOREN_SIM_POINT("lease.reap");
  std::size_t reclaimed = 0;
  std::vector<sim::Name> names;
  std::vector<std::uint64_t> late;
  for (auto& sp : shards_) {
    Shard& s = *sp;
    names.clear();
    late.clear();
    {
      std::unique_lock<SimMutex> lock(s.mu, std::defer_lock);
      if (wait) {
        lock.lock();
      } else if (!lock.try_lock()) {
        continue;  // someone else is reaping this shard
      }
      advance_locked(s, now_ticks, names, late);
    }
    reclaimed += finish_reap(names, late, stripe);
  }
  return reclaimed;
}

void LeaseTable::clear() {
  for (auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard<SimMutex> lock(s.mu);
    std::fill(s.buckets.begin(), s.buckets.end(), kNil);
    s.records.clear();
    s.free_head = kNil;
    s.live_count = 0;
    for (auto& level : s.wheel) {
      for (auto& slot : level) slot = kNil;
    }
    for (auto& bits : s.occupied) bits = 0;
    for (auto& c : s.cursor) c = 0;
  }
}

std::uint64_t LeaseTable::leases_live() const {
  std::uint64_t total = 0;
  for (const auto& sp : shards_) {
    std::lock_guard<SimMutex> lock(sp->mu);
    total += sp->live_count;
  }
  return total;
}

std::uint64_t LeaseTable::opened() const {
  std::uint64_t total = 0;
  for (const auto& sp : shards_) {
    std::lock_guard<SimMutex> lock(sp->mu);
    total += sp->opened;
  }
  return total;
}

std::uint64_t LeaseTable::expired() const {
  std::uint64_t total = 0;
  for (const auto& sp : shards_) {
    std::lock_guard<SimMutex> lock(sp->mu);
    total += sp->expired;
  }
  return total;
}

std::uint64_t LeaseTable::guard_trips() const {
  std::uint64_t total = 0;
  for (const auto& sp : shards_) {
    std::lock_guard<SimMutex> lock(sp->mu);
    total += sp->guard_trips;
  }
  return total;
}

}  // namespace loren::lease
