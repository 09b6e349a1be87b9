#include "translate/address_space.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ndp {

namespace {
// kswapd-style watermarks as fractions of the pool: reclaim kicks in below
// low_watermark() free frames and recovers up to high_watermark().
// (16 GB pool: low = 64 MB, high = 192 MB.)
std::uint64_t low_watermark(const PhysicalMemory& pm) {
  return pm.num_frames() / 256;
}
std::uint64_t high_watermark(const PhysicalMemory& pm) {
  return pm.num_frames() / 256 * 3;
}
// Reverse-map sizing: at most kMaxLoadNum/kMaxLoadDen of the index slots
// are full, and an index never has fewer than kMinSlots slots.
constexpr std::size_t kMaxLoadNum = 3;
constexpr std::size_t kMaxLoadDen = 4;
constexpr std::size_t kMinSlots = 64;
// A flush prefetches the home slot of the log entry this far ahead.
constexpr std::size_t kPrefetchAhead = 8;

std::size_t index_capacity_for(std::size_t n) {
  std::size_t capacity = kMinSlots;
  while (capacity * kMaxLoadNum < n * kMaxLoadDen) capacity *= 2;
  return capacity;
}
}  // namespace

void AddressSpace::FrameOwners::flush() {
  if (logged_ == 0) return;
  const std::size_t capacity =
      index_capacity_for(std::max(planned_, size_ + logged_));
  if (capacity > slots_.size()) rehash(capacity);
  // Random slots: prefetching a few entries ahead overlaps their misses.
  for (std::size_t i = 0; i < logged_; ++i) {
    if (i + kPrefetchAhead < logged_)
      __builtin_prefetch(&slots_[home(log_entry(i + kPrefetchAhead).pfn)], 1);
    insert(log_entry(i));
  }
  size_ += logged_;
  logged_ = 0;
  log_.clear();
}

void AddressSpace::FrameOwners::rehash(std::size_t capacity) {
  static_assert(kMinSlots >= 2 * kRunLen, "home() needs at least two runs");
  std::vector<Slot> old(capacity, Slot{kEmpty, 0});
  old.swap(slots_);
  mask_ = capacity - 1;
  shift_ = 64;
  for (std::size_t runs = capacity >> kRunBits; runs > 1; runs >>= 1) --shift_;
  for (const Slot& s : old)
    if (s.pfn != kEmpty) insert(s);
}

void AddressSpace::FrameOwners::insert(const Slot& s) {
  assert(s.pfn != kEmpty);
  std::size_t i = home(s.pfn);
  while (slots_[i].pfn != kEmpty) {
    assert(slots_[i].pfn != s.pfn && "frame assigned twice");
    i = next(i);
  }
  slots_[i] = s;
}

const Vpn* AddressSpace::FrameOwners::find(Pfn pfn) {
  flush();
  if (slots_.empty()) return nullptr;
  for (std::size_t i = home(pfn);; i = next(i)) {
    if (slots_[i].pfn == pfn) return &slots_[i].vpn;
    if (slots_[i].pfn == kEmpty) return nullptr;
  }
}

void AddressSpace::FrameOwners::erase(Pfn pfn) {
  flush();
  if (slots_.empty()) return;
  std::size_t hole = home(pfn);
  while (slots_[hole].pfn != pfn) {
    if (slots_[hole].pfn == kEmpty) return;
    hole = next(hole);
  }
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home lies strictly between the hole and its slot.
  for (std::size_t i = next(hole); slots_[i].pfn != kEmpty; i = next(i)) {
    if (((i - home(slots_[i].pfn)) & mask_) >= ((i - hole) & mask_)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole].pfn = kEmpty;
  --size_;
}

AddressSpace::AddressSpace(PhysicalMemory& pm, std::unique_ptr<PageTable> pt,
                           bool use_huge_pages)
    : pm_(pm), pt_(std::move(pt)), huge_(use_huge_pages),
      c_prefault_done_(stats_.counter("prefault_done")),
      c_fault_4k_(stats_.counter("fault_4k")),
      c_fault_2m_(stats_.counter("fault_2m")),
      c_fault_2m_compacted_(stats_.counter("fault_2m_compacted")),
      c_fault_2m_fallback_(stats_.counter("fault_2m_fallback")),
      c_demand_faults_(stats_.counter("demand_faults")),
      c_fault_cycles_(stats_.counter("fault_cycles")),
      c_fault_lock_wait_(stats_.counter("fault_lock_wait")),
      c_set_conflict_evictions_(stats_.counter("set_conflict_evictions")),
      c_reclaim_events_(stats_.counter("reclaim_events")),
      c_reclaimed_frames_(stats_.counter("reclaimed_frames")),
      c_reclaim_cycles_(stats_.counter("reclaim_cycles")),
      c_relocated_frames_(stats_.counter("relocated_frames")) {
  pm_.set_relocate_hook(
      [this](Pfn oldf, Pfn newf) { on_relocate(oldf, newf); });
}

AddressSpace::~AddressSpace() {
  pm_.set_relocate_hook(nullptr);
  // Return data frames; the page table returns its own frames in its dtor.
  frame_owner_.for_each([this](Pfn pfn, Vpn) { pm_.free_frame(pfn); });
  for (const auto& [vpn, base] : huge_blocks_) {
    (void)vpn;
    pm_.free_huge(base);
  }
}

void AddressSpace::abandon_frames() {
  frame_owner_ = FrameOwners();
  huge_blocks_ = {};
}

void AddressSpace::add_region(VmRegion region) {
  assert(region.bytes > 0);
  assert(page_offset(region.base) == 0 && "regions must be page aligned");
  regions_.push_back(std::move(region));
}

void AddressSpace::prefault_all() {
  // Plan the reverse map for every 4 KB page prefault can map, so an index
  // built mid-prefault (compaction reads it) is sized once and never
  // rehashes. Huge mode maps 2 MB blocks, which the reverse map does not
  // hold; its rare 4 KB fallbacks grow it instead.
  if (!huge_) {
    std::uint64_t pages = frame_owner_.size();
    for (const VmRegion& r : regions_)
      if (r.prefault) pages += vpn_of(r.end() - 1) - vpn_of(r.base) + 1;
    frame_owner_.reserve(pages);
  }
  for (const VmRegion& r : regions_) {
    if (!r.prefault) continue;
    if (huge_) {
      // Round the region outward to 2 MB boundaries; THP-style policy maps
      // the whole extent with huge pages where possible.
      const Vpn first = vpn_of(r.base) & ~0x1FFull;
      const Vpn last = vpn_of(r.end() - 1) | 0x1FFull;
      for (Vpn v = first; v <= last; v += 512) {
        if (!pt_->lookup(v)) fault_in_2m(v);
      }
    } else {
      for (Vpn v = vpn_of(r.base); v <= vpn_of(r.end() - 1); ++v) {
        if (!pt_->lookup(v)) fault_in_4k(v);
      }
    }
  }
  c_prefault_done_->add();
}

Cycle AddressSpace::maybe_reclaim(std::uint64_t frames_needed) {
  if (pm_.free_frames() >= low_watermark(pm_) + frames_needed) return 0;
  Cycle cost = pm_.costs().shootdown;  // one IPI round per reclaim batch
  std::uint64_t freed = 0;
  const std::uint64_t goal = high_watermark(pm_) + frames_needed;
  auto unmap_4k = [&](Vpn vpn) -> bool {
    const auto pfn = pt_->lookup(vpn);
    if (!pfn) return false;
    // Only 4 KB mappings sit in fifo_4k_; huge blocks live in fifo_2m_.
    if (!pt_->unmap(vpn)) return false;
    frame_owner_.erase(*pfn);
    pm_.free_frame(*pfn);
    --mapped_4k_;
    ++freed;
    cost += pm_.costs().reclaim_per_frame;
    if (shootdown_) shootdown_(vpn);
    return true;
  };
  while (pm_.free_frames() < goal && (!fifo_4k_.empty() || !fifo_2m_.empty())) {
    // Alternate: prefer reclaiming huge blocks first when present — they
    // recover 512 frames per unmap and are the bloat we are fighting.
    if (!fifo_2m_.empty()) {
      const Vpn base = fifo_2m_.front();
      fifo_2m_.pop_front();
      auto it = huge_blocks_.find(base);
      if (it == huge_blocks_.end()) continue;  // stale entry
      pt_->unmap(base);
      pm_.free_huge(it->second);
      huge_blocks_.erase(it);
      --mapped_2m_;
      freed += 512;
      // Sequential writeback of 2 MB is far cheaper per frame than random
      // 4 KB swaps; charge a quarter of the per-frame rate.
      cost += 512 * (pm_.costs().reclaim_per_frame / 4);
      if (shootdown_) shootdown_(base);
      continue;
    }
    const Vpn vpn = fifo_4k_.front();
    fifo_4k_.pop_front();
    unmap_4k(vpn);
  }
  c_reclaim_events_->add();
  c_reclaimed_frames_->add(freed);
  c_reclaim_cycles_->add(cost);
  return cost;
}

Cycle AddressSpace::fault_in_4k(Vpn vpn) {
  const Pfn pfn = pm_.alloc_frame(FrameUse::kData);
  const MapResult mr = pt_->map(vpn, pfn, kPageShift);
  frame_owner_.assign(pfn, vpn);
  fifo_4k_.push_back(vpn);
  ++mapped_4k_;
  c_fault_4k_->add();
  Cycle extra = 0;
  if (mr.evicted) {
    // Restricted-associativity set conflict: the displaced page is gone —
    // release its frame, forget it, and shoot down stale TLB entries. The
    // page re-faults on its next touch (DIPTA's page-conflict penalty).
    const auto [evpn, epfn] = *mr.evicted;
    frame_owner_.erase(epfn);
    pm_.free_frame(epfn);
    --mapped_4k_;
    if (shootdown_) shootdown_(evpn);
    c_set_conflict_evictions_->add();
    extra += pm_.costs().reclaim_per_frame + pm_.costs().shootdown;
  }
  // Node allocations are zeroed 4 KB frames: charge like small faults.
  return extra + pm_.costs().fault_4k() +
         (mr.bytes_allocated / 1024) * pm_.costs().zero_per_kb;
}

Cycle AddressSpace::fault_in_2m(Vpn vpn_aligned) {
  assert((vpn_aligned & 0x1FFull) == 0);
  const PhysicalMemory::HugeResult hr = pm_.alloc_huge();
  if (!hr.fell_back) {
    const MapResult mr = pt_->map(vpn_aligned, hr.base, kHugePageShift);
    huge_blocks_[vpn_aligned] = hr.base;
    fifo_2m_.push_back(vpn_aligned);
    ++mapped_2m_;
    c_fault_2m_->add();
    if (hr.used_compaction) c_fault_2m_compacted_->add();
    return hr.cost + (mr.bytes_allocated / 1024) * pm_.costs().zero_per_kb;
  }
  // THP failure: splinter to a single 4 KB page for the touched vpn's slot.
  // The failed huge attempt still cost the allocation/compaction scan.
  c_fault_2m_fallback_->add();
  return pm_.costs().huge_fault_extra + fault_in_4k(vpn_aligned);
}

AddressSpace::TouchResult AddressSpace::touch(VirtAddr va, Cycle now) {
  const Vpn vpn = vpn_of(va);
  if (pt_->lookup(vpn)) return TouchResult{};
  TouchResult r;
  r.faulted = true;
  // mmap-lock: wait out any fault still being serviced.
  const Cycle lock_wait = now < fault_lock_until_ ? fault_lock_until_ - now : 0;
  Cycle work = maybe_reclaim(huge_ ? 512 : 1);
  if (huge_) {
    const Vpn aligned = vpn & ~0x1FFull;
    work += fault_in_2m(aligned);
    // Splintered fallback maps only `aligned`; make sure the touched page
    // itself is resident.
    if (!pt_->lookup(vpn)) work += fault_in_4k(vpn);
  } else {
    work += fault_in_4k(vpn);
  }
  fault_lock_until_ = std::max(fault_lock_until_, now) + work;
  r.cost = lock_wait + work;
  c_demand_faults_->add();
  c_fault_cycles_->add(r.cost);
  c_fault_lock_wait_->add(lock_wait);
  return r;
}

void AddressSpace::touch_untimed(VirtAddr va) {
  const Vpn vpn = vpn_of(va);
  if (pt_->lookup(vpn)) return;
  if (huge_) {
    const Vpn aligned = vpn & ~0x1FFull;
    fault_in_2m(aligned);
    if (!pt_->lookup(vpn)) fault_in_4k(vpn);
  } else {
    fault_in_4k(vpn);
  }
}

std::optional<PhysAddr> AddressSpace::translate(VirtAddr va) const {
  const auto pfn = pt_->lookup(vpn_of(va));
  if (!pfn) return std::nullopt;
  return frame_base(*pfn) + page_offset(va);
}

void AddressSpace::on_relocate(Pfn old_pfn, Pfn new_pfn) {
  const Vpn* owner = frame_owner_.find(old_pfn);
  assert(owner && "compaction moved a data frame this space does not own");
  const Vpn vpn = *owner;
  const bool ok = pt_->remap(vpn, new_pfn);
  assert(ok && "reverse map points at an unmapped vpn");
  (void)ok;
  frame_owner_.erase(old_pfn);
  frame_owner_.assign(new_pfn, vpn);
  // The frame moved under the translation: TLBs must not serve the old pa.
  if (shootdown_) shootdown_(vpn);
  c_relocated_frames_->add();
}

void AddressSpace::save_state(BlobWriter& out) const {
  out.str("AddressSpace");
  out.u64(huge_ ? 1 : 0);
  out.u64(regions_.size());
  for (const VmRegion& r : regions_) {
    out.str(r.name);
    out.u64(r.base);
    out.u64(r.bytes);
    out.u64(r.prefault ? 1 : 0);
  }
  // Hash maps serialize sorted by key so identical state always produces
  // identical bytes (the store's byte-identity contract).
  std::vector<std::pair<Pfn, Vpn>> owners;
  owners.reserve(frame_owner_.size());
  frame_owner_.for_each(
      [&owners](Pfn pfn, Vpn vpn) { owners.emplace_back(pfn, vpn); });
  std::sort(owners.begin(), owners.end());
  std::vector<std::uint64_t> opfns(owners.size()), ovpns(owners.size());
  for (std::size_t i = 0; i < owners.size(); ++i) {
    opfns[i] = owners[i].first;
    ovpns[i] = owners[i].second;
  }
  out.u64s(opfns);
  out.u64s(ovpns);
  std::vector<std::pair<Vpn, Pfn>> huge(huge_blocks_.begin(),
                                        huge_blocks_.end());
  std::sort(huge.begin(), huge.end());
  std::vector<std::uint64_t> hvpns(huge.size()), hpfns(huge.size());
  for (std::size_t i = 0; i < huge.size(); ++i) {
    hvpns[i] = huge[i].first;
    hpfns[i] = huge[i].second;
  }
  out.u64s(hvpns);
  out.u64s(hpfns);
  out.u64s(std::vector<std::uint64_t>(fifo_4k_.begin(), fifo_4k_.end()));
  out.u64s(std::vector<std::uint64_t>(fifo_2m_.begin(), fifo_2m_.end()));
  out.u64(fault_lock_until_);
  out.u64(mapped_4k_);
  out.u64(mapped_2m_);
  stats_.save_state(out);
}

bool AddressSpace::load_state(BlobReader& in) {
  if (in.str() != "AddressSpace" || in.u64() != (huge_ ? 1u : 0u))
    return false;
  const std::uint64_t n_regions = in.u64();
  if (!in.ok() || n_regions > in.remaining()) return false;
  std::vector<VmRegion> regions;
  regions.reserve(n_regions);
  for (std::uint64_t i = 0; i < n_regions && in.ok(); ++i) {
    VmRegion r;
    r.name = in.str();
    r.base = in.u64();
    r.bytes = in.u64();
    r.prefault = in.u64() != 0;
    regions.push_back(std::move(r));
  }
  const std::vector<std::uint64_t> opfns = in.u64s();
  const std::vector<std::uint64_t> ovpns = in.u64s();
  const std::vector<std::uint64_t> hvpns = in.u64s();
  const std::vector<std::uint64_t> hpfns = in.u64s();
  const std::vector<std::uint64_t> f4 = in.u64s();
  const std::vector<std::uint64_t> f2 = in.u64s();
  const Cycle lock_until = in.u64();
  const std::uint64_t m4 = in.u64();
  const std::uint64_t m2 = in.u64();
  if (!in.ok() || opfns.size() != ovpns.size() || hvpns.size() != hpfns.size())
    return false;
  // The owner list is written sorted by pfn with one entry per 4 KB
  // mapping; anything else is corrupt (a duplicate pfn would silently
  // collapse into one entry and leak a frame).
  if (opfns.size() != m4) return false;
  for (std::size_t i = 1; i < opfns.size(); ++i)
    if (opfns[i] <= opfns[i - 1]) return false;
  if (!stats_.load_state(in)) return false;
  regions_ = std::move(regions);
  frame_owner_ = FrameOwners();
  frame_owner_.reserve(opfns.size());
  for (std::size_t i = 0; i < opfns.size(); ++i)
    frame_owner_.assign(opfns[i], ovpns[i]);
  huge_blocks_.clear();
  huge_blocks_.reserve(hvpns.size());
  for (std::size_t i = 0; i < hvpns.size(); ++i)
    huge_blocks_.emplace(hvpns[i], hpfns[i]);
  fifo_4k_.assign(f4.begin(), f4.end());
  fifo_2m_.assign(f2.begin(), f2.end());
  fault_lock_until_ = lock_until;
  mapped_4k_ = m4;
  mapped_2m_ = m2;
  // PhysicalMemory::restore() cleared the relocate hook; this space owns
  // the restored frames again, so compaction callbacks must reach it.
  pm_.set_relocate_hook(
      [this](Pfn oldf, Pfn newf) { on_relocate(oldf, newf); });
  return true;
}

}  // namespace ndp
