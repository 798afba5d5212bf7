// Per-worker in-memory block store with capacity enforcement, pinning, and
// built-in O(1) eviction — the data-plane hot path.
//
// Two usage modes mirror the two OpuS deployment modes:
//  - unmanaged (eviction-driven): Insert() evicts per policy when full —
//    the Alluxio-default LRU behaviour of Sec. VI-A.
//  - managed (allocation-driven): the master pins exactly the blocks the
//    allocation algorithm selected; pinned blocks are never eviction
//    victims, and the master repins on every reallocation.
//
// Layout: one open-addressing flat hash table maps BlockId to a slot index;
// the slot co-locates bytes, the pinned flag, and the intrusive
// eviction-policy links, so a Read probe is a single lookup instead of the
// former blocks_/pinned_/policy triple probe. Eviction order is maintained
// with index links inside the slots — an O(1) LRU list and an O(1)
// frequency-bucket LFU whose victim order is exactly the (freq, seq)
// ordering of the std::map reference (see eviction.h) — so a touch never
// allocates. Victim sequences and resident sets are bit-identical to
// ReferenceBlockStore under any op sequence (property-tested).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/eviction.h"
#include "cache/types.h"
#include "obs/metrics.h"

namespace opus::cache {

class BlockStore {
 public:
  BlockStore(std::uint64_t capacity_bytes, EvictionKind kind);
  // Convenience: parses "lru" | "lfu".
  BlockStore(std::uint64_t capacity_bytes, const std::string& policy_name);

  // Inserts a block, evicting unpinned victims as needed. Returns false
  // (without inserting) when the block cannot fit even after evicting every
  // unpinned block. Inserting an already-resident block refreshes its
  // recency/frequency exactly like Access() and returns true, so a
  // cache-on-read path that re-inserts a resident block keeps the policy
  // state honest.
  bool Insert(BlockId block, std::uint64_t bytes);

  // Marks an access for the eviction policy. Returns true iff cached.
  bool Access(BlockId block);

  bool Contains(BlockId block) const;

  // Removes a block if present (also unpins it).
  void Erase(BlockId block);

  // Pins / unpins. Pinned blocks are ignored by eviction. Pinning a block
  // not in the store is a no-op returning false. Unpinning re-enters the
  // block into the eviction order as a fresh insert (most recent, freq 1).
  bool Pin(BlockId block);
  void Unpin(BlockId block);
  bool IsPinned(BlockId block) const;

  std::uint64_t capacity_bytes() const { return capacity_; }
  std::uint64_t used_bytes() const { return used_; }
  std::uint64_t pinned_bytes() const { return pinned_bytes_; }
  std::size_t num_blocks() const { return num_blocks_; }
  std::uint64_t evictions() const { return evictions_; }
  EvictionKind eviction_kind() const { return kind_; }

  // Snapshot of resident blocks (unordered).
  std::vector<BlockId> ResidentBlocks() const;

  // Mirrors future evictions into `counter` (e.g. "cluster.worker.W
  // .evictions" in the owning cluster's registry). Pass nullptr to detach.
  void set_eviction_counter(obs::Counter* counter) {
    eviction_counter_ = counter;
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  // One resident block. `bytes == 0` marks a slot on the free list (Insert
  // rejects zero-byte blocks, so it cannot collide with live state).
  struct Slot {
    BlockId block = 0;
    std::uint64_t bytes = 0;
    // Policy list links: neighbours in the LRU order (LRU) or within the
    // owning frequency bucket (LFU). `next` doubles as the free-list link.
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t bucket = kNil;  // LFU: owning FreqBucket index
    bool pinned = false;
  };

  // LFU frequency bucket: blocks with the same access count, linked in
  // arrival order (arrival seq is globally monotonic, so head = oldest seq
  // = the std::map (freq, seq) victim within the bucket). Buckets link to
  // their frequency neighbours; head bucket = lowest frequency.
  struct FreqBucket {
    std::uint64_t freq = 0;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;  // also the bucket free-list link
  };

  // --- hash table -------------------------------------------------------
  std::uint32_t FindSlot(BlockId block) const;
  void TableInsert(std::uint32_t slot);
  void TableErase(BlockId block);
  void GrowTableIfNeeded();

  // --- slot storage -----------------------------------------------------
  std::uint32_t AllocSlot();
  void FreeSlot(std::uint32_t slot);

  // --- eviction order (dispatches on kind_) -----------------------------
  void PolicyInsert(std::uint32_t slot);
  void PolicyAccess(std::uint32_t slot);
  void PolicyRemove(std::uint32_t slot);
  std::uint32_t PolicyVictim() const;

  void LruUnlink(std::uint32_t slot);
  void LruPushBack(std::uint32_t slot);

  std::uint32_t AllocBucket();
  void FreeBucket(std::uint32_t bucket);
  void BucketAppend(std::uint32_t bucket, std::uint32_t slot);
  void BucketUnlink(std::uint32_t slot);

  bool EvictOne();

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t pinned_bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::size_t num_blocks_ = 0;
  EvictionKind kind_;
  obs::Counter* eviction_counter_ = nullptr;  // borrowed, optional

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::vector<std::uint32_t> table_;  // power-of-two, kNil = empty

  // LRU list (head = least recent).
  std::uint32_t lru_head_ = kNil;
  std::uint32_t lru_tail_ = kNil;

  // LFU buckets (bucket_head_ = lowest frequency).
  std::vector<FreqBucket> buckets_;
  std::uint32_t bucket_head_ = kNil;
  std::uint32_t bucket_free_ = kNil;
};

}  // namespace opus::cache
