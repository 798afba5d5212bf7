#include "cache/block_store.h"

#include "common/check.h"

namespace opus::cache {
namespace {

// splitmix64 mixer (same family as placement hashing): block ids are
// (file << 32 | index) with tiny entropy in the low bits, so table probing
// needs real avalanche.
inline std::uint64_t HashBlock(BlockId x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::size_t kInitialTableSize = 16;  // power of two

}  // namespace

BlockStore::BlockStore(std::uint64_t capacity_bytes, EvictionKind kind)
    : capacity_(capacity_bytes), kind_(kind) {
  table_.assign(kInitialTableSize, kNil);
}

BlockStore::BlockStore(std::uint64_t capacity_bytes,
                       const std::string& policy_name)
    : BlockStore(capacity_bytes, ParseEvictionKind(policy_name)) {}

// ----------------------------------------------------------- hash table

std::uint32_t BlockStore::FindSlot(BlockId block) const {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = HashBlock(block) & mask;
  while (true) {
    const std::uint32_t s = table_[i];
    if (s == kNil) return kNil;
    if (slots_[s].block == block) return s;
    i = (i + 1) & mask;
  }
}

void BlockStore::TableInsert(std::uint32_t slot) {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = HashBlock(slots_[slot].block) & mask;
  while (table_[i] != kNil) i = (i + 1) & mask;
  table_[i] = slot;
}

void BlockStore::GrowTableIfNeeded() {
  // Keep occupancy under 3/4 so linear probes stay short.
  if ((num_blocks_ + 1) * 4 <= table_.size() * 3) return;
  std::vector<std::uint32_t> old = std::move(table_);
  table_.assign(old.size() * 2, kNil);
  for (std::uint32_t s : old) {
    if (s != kNil) TableInsert(s);
  }
}

void BlockStore::TableErase(BlockId block) {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = HashBlock(block) & mask;
  while (table_[i] == kNil || slots_[table_[i]].block != block) {
    OPUS_CHECK(table_[i] != kNil);  // caller guarantees presence
    i = (i + 1) & mask;
  }
  // Backward-shift deletion (no tombstones): walk the probe chain after the
  // hole and pull back any entry whose ideal position does not lie in the
  // cyclic interval (hole, current].
  std::size_t j = i;
  while (true) {
    j = (j + 1) & mask;
    if (table_[j] == kNil) break;
    const std::size_t k = HashBlock(slots_[table_[j]].block) & mask;
    const bool reachable_from_own_run =
        (i <= j) ? (i < k && k <= j) : (i < k || k <= j);
    if (reachable_from_own_run) continue;
    table_[i] = table_[j];
    i = j;
  }
  table_[i] = kNil;
}

// ---------------------------------------------------------- slot storage

std::uint32_t BlockStore::AllocSlot() {
  if (free_head_ != kNil) {
    const std::uint32_t s = free_head_;
    free_head_ = slots_[s].next;
    return s;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void BlockStore::FreeSlot(std::uint32_t slot) {
  slots_[slot].bytes = 0;
  slots_[slot].pinned = false;
  slots_[slot].bucket = kNil;
  slots_[slot].next = free_head_;
  free_head_ = slot;
}

// ------------------------------------------------------------------ LRU

void BlockStore::LruPushBack(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = lru_tail_;
  s.next = kNil;
  if (lru_tail_ != kNil) {
    slots_[lru_tail_].next = slot;
  } else {
    lru_head_ = slot;
  }
  lru_tail_ = slot;
}

void BlockStore::LruUnlink(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    lru_head_ = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    lru_tail_ = s.prev;
  }
}

// ------------------------------------------------------------------ LFU

std::uint32_t BlockStore::AllocBucket() {
  if (bucket_free_ != kNil) {
    const std::uint32_t b = bucket_free_;
    bucket_free_ = buckets_[b].next;
    return b;
  }
  buckets_.emplace_back();
  return static_cast<std::uint32_t>(buckets_.size() - 1);
}

void BlockStore::FreeBucket(std::uint32_t bucket) {
  FreqBucket& b = buckets_[bucket];
  if (b.prev != kNil) {
    buckets_[b.prev].next = b.next;
  } else {
    bucket_head_ = b.next;
  }
  if (b.next != kNil) buckets_[b.next].prev = b.prev;
  b.next = bucket_free_;
  bucket_free_ = bucket;
}

void BlockStore::BucketAppend(std::uint32_t bucket, std::uint32_t slot) {
  FreqBucket& b = buckets_[bucket];
  Slot& s = slots_[slot];
  s.bucket = bucket;
  s.prev = b.tail;
  s.next = kNil;
  if (b.tail != kNil) {
    slots_[b.tail].next = slot;
  } else {
    b.head = slot;
  }
  b.tail = slot;
}

void BlockStore::BucketUnlink(std::uint32_t slot) {
  Slot& s = slots_[slot];
  FreqBucket& b = buckets_[s.bucket];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    b.head = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    b.tail = s.prev;
  }
  const std::uint32_t owner = s.bucket;
  s.bucket = kNil;
  if (buckets_[owner].head == kNil) FreeBucket(owner);
}

// --------------------------------------------------------------- policy

void BlockStore::PolicyInsert(std::uint32_t slot) {
  if (kind_ == EvictionKind::kLru) {
    LruPushBack(slot);
    return;
  }
  // Fresh blocks enter at frequency 1. Arrival order within the bucket is
  // global insertion order, matching the reference's (freq=1, seq) keys.
  if (bucket_head_ == kNil || buckets_[bucket_head_].freq != 1) {
    const std::uint32_t b = AllocBucket();
    buckets_[b] = FreqBucket{};
    buckets_[b].freq = 1;
    buckets_[b].next = bucket_head_;
    buckets_[b].prev = kNil;
    if (bucket_head_ != kNil) buckets_[bucket_head_].prev = b;
    bucket_head_ = b;
  }
  BucketAppend(bucket_head_, slot);
}

void BlockStore::PolicyAccess(std::uint32_t slot) {
  if (kind_ == EvictionKind::kLru) {
    LruUnlink(slot);
    LruPushBack(slot);
    return;
  }
  // Move to the freq+1 bucket. Appending keeps the bucket ordered by bump
  // sequence — the reference reassigns seq on every bump, so arrival order
  // in the target bucket is exactly (freq+1, new seq) order.
  const std::uint32_t from = slots_[slot].bucket;
  const std::uint64_t freq = buckets_[from].freq;
  std::uint32_t target = buckets_[from].next;
  if (target == kNil || buckets_[target].freq != freq + 1) {
    target = AllocBucket();
    // AllocBucket may recycle; re-read `from` links after it.
    buckets_[target] = FreqBucket{};
    buckets_[target].freq = freq + 1;
    buckets_[target].prev = from;
    buckets_[target].next = buckets_[from].next;
    if (buckets_[from].next != kNil) buckets_[buckets_[from].next].prev = target;
    buckets_[from].next = target;
  }
  BucketUnlink(slot);  // may free `from` (relinks neighbours around it)
  BucketAppend(target, slot);
}

void BlockStore::PolicyRemove(std::uint32_t slot) {
  if (kind_ == EvictionKind::kLru) {
    LruUnlink(slot);
    return;
  }
  BucketUnlink(slot);
}

std::uint32_t BlockStore::PolicyVictim() const {
  if (kind_ == EvictionKind::kLru) return lru_head_;
  if (bucket_head_ == kNil) return kNil;
  return buckets_[bucket_head_].head;
}

// ------------------------------------------------------------------ API

bool BlockStore::Insert(BlockId block, std::uint64_t bytes) {
  OPUS_CHECK_GT(bytes, 0u);
  const std::uint32_t existing = FindSlot(block);
  if (existing != kNil) {
    // Re-insert of a resident block counts as an access: refresh recency /
    // frequency so cache-on-read paths that Insert on hit stay honest.
    if (!slots_[existing].pinned) PolicyAccess(existing);
    return true;
  }
  if (bytes > capacity_) return false;
  while (used_ + bytes > capacity_) {
    if (!EvictOne()) return false;
  }
  const std::uint32_t slot = AllocSlot();
  slots_[slot].block = block;
  slots_[slot].bytes = bytes;
  slots_[slot].pinned = false;
  GrowTableIfNeeded();
  TableInsert(slot);
  ++num_blocks_;
  used_ += bytes;
  PolicyInsert(slot);
  return true;
}

bool BlockStore::EvictOne() {
  const std::uint32_t victim = PolicyVictim();
  if (victim == kNil) return false;  // everything remaining is pinned
  used_ -= slots_[victim].bytes;
  PolicyRemove(victim);
  TableErase(slots_[victim].block);
  FreeSlot(victim);
  --num_blocks_;
  ++evictions_;
  if (eviction_counter_ != nullptr) eviction_counter_->Increment();
  return true;
}

bool BlockStore::Access(BlockId block) {
  const std::uint32_t slot = FindSlot(block);
  if (slot == kNil) return false;
  if (!slots_[slot].pinned) PolicyAccess(slot);
  return true;
}

bool BlockStore::Contains(BlockId block) const {
  return FindSlot(block) != kNil;
}

void BlockStore::Erase(BlockId block) {
  const std::uint32_t slot = FindSlot(block);
  if (slot == kNil) return;
  used_ -= slots_[slot].bytes;
  if (slots_[slot].pinned) {
    pinned_bytes_ -= slots_[slot].bytes;
  } else {
    PolicyRemove(slot);
  }
  TableErase(block);
  FreeSlot(slot);
  --num_blocks_;
}

bool BlockStore::Pin(BlockId block) {
  const std::uint32_t slot = FindSlot(block);
  if (slot == kNil) return false;
  if (!slots_[slot].pinned) {
    slots_[slot].pinned = true;
    pinned_bytes_ += slots_[slot].bytes;
    // Pinned blocks leave the eviction order so they can never be victims.
    PolicyRemove(slot);
  }
  return true;
}

void BlockStore::Unpin(BlockId block) {
  const std::uint32_t slot = FindSlot(block);
  if (slot == kNil) return;
  if (slots_[slot].pinned) {
    slots_[slot].pinned = false;
    pinned_bytes_ -= slots_[slot].bytes;
    PolicyInsert(slot);
  }
}

bool BlockStore::IsPinned(BlockId block) const {
  const std::uint32_t slot = FindSlot(block);
  return slot != kNil && slots_[slot].pinned;
}

std::vector<BlockId> BlockStore::ResidentBlocks() const {
  std::vector<BlockId> out;
  out.reserve(num_blocks_);
  for (const Slot& s : slots_) {
    if (s.bytes > 0) out.push_back(s.block);
  }
  return out;
}

}  // namespace opus::cache
