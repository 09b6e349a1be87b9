// Process address space: VM regions, demand paging, pre-faulting, and the
// OS fault-cost model — the software half of translation.
//
// Workload generators declare their data structures as VM regions. Regions
// marked `prefault` are populated before timing starts (the paper measures
// steady state after the 8-33 GB datasets are resident); the rest fault on
// first touch during the run, which is where the Huge Page baseline pays
// its allocation/compaction bill.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "os/phys_mem.h"
#include "translate/page_table.h"

namespace ndp {

struct VmRegion {
  std::string name;
  VirtAddr base = 0;
  std::uint64_t bytes = 0;
  bool prefault = true;

  VirtAddr end() const { return base + bytes; }
  bool contains(VirtAddr va) const { return va >= base && va < end(); }
};

class AddressSpace {
 public:
  /// `use_huge_pages`: map at 2 MB granularity (the Huge Page baseline);
  /// requires a page table whose preferred leaf supports it.
  AddressSpace(PhysicalMemory& pm, std::unique_ptr<PageTable> pt,
               bool use_huge_pages = false);
  ~AddressSpace();

  void add_region(VmRegion region);
  const std::vector<VmRegion>& regions() const { return regions_; }

  /// Map every prefault region (no timing; setup phase).
  void prefault_all();

  struct TouchResult {
    bool faulted = false;
    Cycle cost = 0;  ///< OS cycles charged to the faulting access
  };
  /// Demand paging: ensure the page of va is mapped. Runs watermark-based
  /// reclaim first when free physical memory is low (kswapd-style), which
  /// is where the Huge Page baseline's bloat turns into thrashing.
  ///
  /// Faults serialize on the address-space lock (mmap-lock semantics): a
  /// fault arriving at `now` while an earlier fault is still being serviced
  /// waits for it. This is the mechanism behind huge-page latency spikes
  /// under concurrency — 2 MB zero+compaction holds the lock ~50x longer
  /// than a 4 KB fault, so fault-heavy multi-core runs queue behind it.
  TouchResult touch(VirtAddr va, Cycle now = 0);
  /// Map without charging costs or taking the lock (the Ideal mechanism).
  void touch_untimed(VirtAddr va);

  /// Forget every data frame and 2 MB block this space owns without
  /// returning them to the pool — for a pool that is destroyed or restored
  /// wholesale right after this space. Afterwards the space may only be
  /// destroyed. The page table still frees its own frames.
  void abandon_frames();

  /// Invoked for every vpn whose translation is torn down by reclaim, so
  /// the owner can shoot down TLBs. Set by the System assembly.
  void set_shootdown_hook(std::function<void(Vpn)> fn) {
    shootdown_ = std::move(fn);
  }

  /// Functional translation (no timing); nullopt if unmapped.
  std::optional<PhysAddr> translate(VirtAddr va) const;

  PageTable& page_table() { return *pt_; }
  const PageTable& page_table() const { return *pt_; }
  PhysicalMemory& phys() { return pm_; }
  bool huge_pages() const { return huge_; }
  StatSet& stats() { return stats_; }
  const StatSet& stats() const { return stats_; }
  std::uint64_t mapped_pages() const { return mapped_4k_ + mapped_2m_ * 512; }
  std::uint64_t mapped_bytes() const { return mapped_pages() * kPageSize; }

  /// Serialize the space's complete post-prefault state — regions, frame
  /// ownership, reclaim FIFO order, lock horizon, and statistics. The page
  /// table serializes separately (PageTable::save_state).
  void save_state(BlobWriter& out) const;
  /// Restore state written by save_state. The backing PhysicalMemory must
  /// already be restored to the matching snapshot (ownership is adopted,
  /// never re-allocated), and this re-registers the relocate hook that
  /// PhysicalMemory::restore() cleared. Returns false on malformed input,
  /// leaving the non-statistics members untouched.
  bool load_state(BlobReader& in);

 private:
  Cycle fault_in_4k(Vpn vpn);
  Cycle fault_in_2m(Vpn vpn_aligned);
  /// Evict FIFO victims until free memory recovers; returns cycles charged.
  Cycle maybe_reclaim(std::uint64_t frames_needed);
  void on_relocate(Pfn old_pfn, Pfn new_pfn);

  PhysicalMemory& pm_;
  std::unique_ptr<PageTable> pt_;
  bool huge_;
  std::vector<VmRegion> regions_;
  /// Reverse map for compaction: data frame -> vpn (4 KB mappings only;
  /// 2 MB blocks and page-table frames are never relocated). It holds one
  /// entry per resident data page, but most spaces never read it (only
  /// compaction, reclaim and DIPTA set conflicts do). So it has two parts:
  /// a write-only log that assign() appends to, and a flat open-addressing
  /// index (one slot array, linear probing, backward-shift erase) that the
  /// first find() or erase() builds from the log in one prefetched pass.
  /// The build frees the log, and from then on the log is flushed whenever
  /// it reaches kMaxLog entries, so it never again grows beside a full
  /// index. The log is a list of fixed-size chunks, not one array sized per
  /// space: a daemon builds space after space, and per-space sizes left
  /// its heap fragmented (peak RSS about 25% higher for the same served
  /// requests). The hash keeps runs of kRunLen neighbouring pfns in
  /// neighbouring slots.
  class FrameOwners {
   public:
    /// Plan for `n` entries in total: the index is sized for them when it
    /// is next built or grown. Never shrinks.
    void reserve(std::size_t n) { planned_ = std::max(planned_, n); }
    /// Map pfn -> vpn; pfn must not be in the map already.
    void assign(Pfn pfn, Vpn vpn) {
      if (logged_ % kLogChunk == 0) {
        if (logged_ >= kMaxLog && !slots_.empty()) flush();
        log_.emplace_back(new Slot[kLogChunk]);
      }
      log_[logged_ / kLogChunk][logged_ % kLogChunk] = Slot{pfn, vpn};
      ++logged_;
    }
    /// The vpn owning pfn, or nullptr.
    const Vpn* find(Pfn pfn);
    /// Remove pfn's entry, if any.
    void erase(Pfn pfn);
    std::size_t size() const { return size_ + logged_; }
    /// Visit every (pfn, vpn) once, in an unspecified deterministic order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (const Slot& s : slots_)
        if (s.pfn != kEmpty) fn(s.pfn, s.vpn);
      for (std::size_t i = 0; i < logged_; ++i) {
        const Slot& s = log_entry(i);
        fn(s.pfn, s.vpn);
      }
    }

   private:
    struct Slot {
      Pfn pfn;
      Vpn vpn;
    };
    static constexpr Pfn kEmpty = ~Pfn{0};
    static constexpr unsigned kRunBits = 4;
    static constexpr std::size_t kRunLen = std::size_t{1} << kRunBits;
    /// Entries per log chunk (64 KB).
    static constexpr std::size_t kLogChunk = std::size_t{1} << 12;
    /// Log length that triggers a flush once the index exists.
    static constexpr std::size_t kMaxLog = 4 * kLogChunk;

    std::size_t home(Pfn pfn) const {
      const std::uint64_t run = (pfn >> kRunBits) * 0x9E3779B97F4A7C15ull;
      return static_cast<std::size_t>(((run >> shift_) << kRunBits) |
                                      (pfn & (kRunLen - 1)));
    }
    std::size_t next(std::size_t i) const { return (i + 1) & mask_; }
    const Slot& log_entry(std::size_t i) const {
      return log_[i / kLogChunk][i % kLogChunk];
    }
    /// Move the log into the index, building or growing the index first.
    void flush();
    void rehash(std::size_t capacity);
    /// Place `s` in its probe run; the index must have a free slot.
    void insert(const Slot& s);

    std::vector<std::unique_ptr<Slot[]>> log_;  ///< chunks of kLogChunk
    std::size_t logged_ = 0;                    ///< entries in log_
    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;  ///< 64 - log2(capacity / kRunLen)
    std::size_t size_ = 0;     ///< entries in slots_
    std::size_t planned_ = 0;  ///< entries reserve() was told to expect
  };
  FrameOwners frame_owner_;
  /// 2 MB blocks owned by this space: base vpn -> base pfn.
  std::unordered_map<Vpn, Pfn> huge_blocks_;
  /// Reclaim FIFOs (allocation order). Entries may be stale (already
  /// reclaimed or relocated); validated on pop.
  std::deque<Vpn> fifo_4k_;
  std::deque<Vpn> fifo_2m_;
  std::function<void(Vpn)> shootdown_;
  Cycle fault_lock_until_ = 0;  ///< mmap-lock busy horizon
  std::uint64_t mapped_4k_ = 0;
  std::uint64_t mapped_2m_ = 0;
  StatSet stats_;
  // Counter handles resolved once at construction — the fault path (and
  // prefault, which runs it per resident page) never does a string-keyed
  // lookup. Names match the previous inc() keys exactly.
  StatSet::Counter* c_prefault_done_;
  StatSet::Counter* c_fault_4k_;
  StatSet::Counter* c_fault_2m_;
  StatSet::Counter* c_fault_2m_compacted_;
  StatSet::Counter* c_fault_2m_fallback_;
  StatSet::Counter* c_demand_faults_;
  StatSet::Counter* c_fault_cycles_;
  StatSet::Counter* c_fault_lock_wait_;
  StatSet::Counter* c_set_conflict_evictions_;
  StatSet::Counter* c_reclaim_events_;
  StatSet::Counter* c_reclaimed_frames_;
  StatSet::Counter* c_reclaim_cycles_;
  StatSet::Counter* c_relocated_frames_;
};

}  // namespace ndp
