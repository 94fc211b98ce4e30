#include <algorithm>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat/flat_map.h"
#include "common/flat/flat_set.h"
#include "common/flat/lru.h"
#include "common/flat/small_vec.h"
#include "common/flat/wyhash.h"
#include "testing/rng.h"

namespace tic {
namespace {

using testing::Entropy;

// ---------------------------------------------------------------------------
// wyhash / Fp128

TEST(WyHash, MixesLowBits) {
  // The flat tables index with `hash & mask`; sequential keys must not yield
  // sequential low bits. Count collisions of the low byte over a small range.
  std::unordered_set<uint64_t> low;
  for (uint64_t i = 0; i < 64; ++i) low.insert(flat::WyHash64(i) & 0xff);
  EXPECT_GT(low.size(), 40u);  // near-uniform; identity hashing would give 64 sequential values
}

TEST(WyHash, BytesMatchAcrossCalls) {
  std::string s = "the quick brown fox";
  EXPECT_EQ(flat::WyHashBytes(s.data(), s.size()),
            flat::WyHashBytes(s.data(), s.size()));
  for (size_t len = 0; len <= s.size(); ++len) {
    for (size_t other = 0; other < len; ++other) {
      EXPECT_NE(flat::WyHashBytes(s.data(), len),
                flat::WyHashBytes(s.data(), other))
          << "prefix lengths " << len << " vs " << other;
    }
  }
}

// Regression: the 9..15-byte tail once read past the buffer bounds, so the
// hash depended on whatever bytes happened to surround the key — equal
// strings in different buffers could hash apart. Hash the same content out
// of two buffers padded with different garbage on both sides.
TEST(WyHash, DependsOnlyOnTheHashedBytes) {
  for (size_t len = 1; len <= 40; ++len) {
    std::vector<uint8_t> a(len + 32, 0xAA), b(len + 32, 0x55);
    for (size_t i = 0; i < len; ++i) {
      a[16 + i] = b[16 + i] = static_cast<uint8_t>(i * 37 + 11);
    }
    EXPECT_EQ(flat::WyHashBytes(a.data() + 16, len),
              flat::WyHashBytes(b.data() + 16, len))
        << "hash of a " << len << "-byte key read outside the key";
  }
}

TEST(Fp128, DistinguishesStrings) {
  flat::Fp128 a = flat::Fp128::OfString("abc");
  flat::Fp128 b = flat::Fp128::OfString("abd");
  flat::Fp128 a2 = flat::Fp128::OfString("abc");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// FlatMap / FlatSet differential vs std::unordered_*

// One randomized op script driven by Entropy, applied in lockstep to the
// flat container and the std reference; every divergence is a bug in the
// robin-hood insert/erase/backward-shift logic.
template <typename FlatM>
void RunMapDifferential(uint64_t seed, uint32_t key_range, int ops) {
  Entropy rng(seed);
  FlatM fm;
  std::unordered_map<uint32_t, uint32_t> ref;
  for (int i = 0; i < ops; ++i) {
    uint32_t key = rng.Below(key_range);
    switch (rng.Below(5)) {
      case 0:
      case 1: {  // insert (keep-existing semantics, like emplace)
        uint32_t value = rng.Raw();
        auto [e, inserted] = fm.Emplace(key, value);
        auto [it, ref_inserted] = ref.emplace(key, value);
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_NE(e, nullptr);
        ASSERT_EQ(e->second, it->second);
        break;
      }
      case 2: {  // erase
        ASSERT_EQ(fm.Erase(key), ref.erase(key) == 1);
        break;
      }
      case 3: {  // find
        uint32_t* v = fm.Get(key);
        auto it = ref.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
      case 4: {  // occasional clear, else insert-or-overwrite
        if (rng.Below(64) == 0) {
          fm.Clear();
          ref.clear();
        } else {
          uint32_t value = rng.Raw();
          auto [e, inserted] = fm.Emplace(key, value);
          ASSERT_NE(e, nullptr);
          if (!inserted) e->second = value;
          ref[key] = value;
        }
        break;
      }
    }
    ASSERT_EQ(fm.size(), ref.size());
  }
  // Full-content sweep both ways.
  size_t seen = 0;
  fm.ForEach([&](const typename FlatM::Entry& e) {
    auto it = ref.find(e.first);
    ASSERT_NE(it, ref.end());
    ASSERT_EQ(it->second, e.second);
    ++seen;
  });
  EXPECT_EQ(seen, ref.size());
}

TEST(FlatMap, DifferentialSmallKeyRange) {
  // Narrow key range maximizes duplicate inserts and erase-of-present.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunMapDifferential<flat::FlatMap<uint32_t, uint32_t>>(seed, 64, 4000);
  }
}

TEST(FlatMap, DifferentialWideKeyRange) {
  for (uint64_t seed = 100; seed <= 104; ++seed) {
    RunMapDifferential<flat::FlatMap<uint32_t, uint32_t>>(seed, 100000, 20000);
  }
}

// All keys share one hash: every insert lands in one probe chain, making
// robin-hood displacement and backward-shift deletion the ONLY paths taken.
struct CollidingHash {
  uint64_t operator()(uint32_t) const { return 0x1234; }
};

TEST(FlatMap, DifferentialWorstCaseCollisions) {
  for (uint64_t seed = 7; seed <= 10; ++seed) {
    RunMapDifferential<flat::FlatMap<uint32_t, uint32_t, CollidingHash>>(
        seed, 48, 3000);
  }
}

TEST(FlatMap, BackwardShiftPreservesChain) {
  // Deterministic displacement scenario: colliding keys 0..9, erase from the
  // middle, every survivor must stay findable (no tombstone, no hole).
  flat::FlatMap<uint32_t, uint32_t, CollidingHash> fm;
  for (uint32_t k = 0; k < 10; ++k) fm.Emplace(k, k * 100);
  for (uint32_t victim : {4u, 0u, 9u}) {
    ASSERT_TRUE(fm.Erase(victim));
    ASSERT_FALSE(fm.Contains(victim));
    for (uint32_t k = 0; k < 10; ++k) {
      if (k == victim || fm.Get(k) == nullptr) continue;
      ASSERT_EQ(*fm.Get(k), k * 100);
    }
    fm.Emplace(victim, victim * 100);  // restore for the next round
  }
  EXPECT_EQ(fm.size(), 10u);
}

TEST(FlatMap, StringKeysOwnTheirMemory) {
  // Heap-owning keys/values through grow + erase + clear; ASan/LSan guard
  // the destructor and rehash-move paths.
  flat::FlatMap<std::string, std::string> fm;
  std::unordered_map<std::string, std::string> ref;
  Entropy rng(42);
  for (int i = 0; i < 2000; ++i) {
    std::string key(1 + rng.Below(24), static_cast<char>('a' + rng.Below(26)));
    key += std::to_string(rng.Below(128));
    if (rng.Below(3) == 0) {
      ASSERT_EQ(fm.Erase(key), ref.erase(key) == 1) << key;
    } else {
      std::string value = key + "-v";
      fm.Emplace(key, value);
      ref.emplace(key, value);
    }
    ASSERT_EQ(fm.size(), ref.size());
  }
  for (const auto& [k, v] : ref) {
    ASSERT_NE(fm.Get(k), nullptr) << k;
    ASSERT_EQ(*fm.Get(k), v);
  }
}

TEST(FlatMap, ClearKeepsBucketsWarm) {
  flat::FlatMap<uint32_t, uint32_t> fm;
  for (uint32_t k = 0; k < 1000; ++k) fm.Emplace(k, k);
  size_t buckets = fm.bucket_count();
  fm.Clear();
  EXPECT_EQ(fm.size(), 0u);
  EXPECT_EQ(fm.bucket_count(), buckets);
  for (uint32_t k = 0; k < 1000; ++k) fm.Emplace(k, k + 1);
  EXPECT_EQ(fm.bucket_count(), buckets);  // refill within warm capacity
}

TEST(FlatMap, ReserveThenFillNeverRehashes) {
  flat::FlatMap<uint32_t, uint32_t> fm;
  fm.Reserve(5000);
  size_t buckets = fm.bucket_count();
  for (uint32_t k = 0; k < 5000; ++k) fm.Emplace(k, k);
  EXPECT_EQ(fm.bucket_count(), buckets);
}

TEST(FlatMap, CopyAndMove) {
  flat::FlatMap<uint32_t, std::string> fm;
  for (uint32_t k = 0; k < 100; ++k) fm.Emplace(k, std::to_string(k));
  flat::FlatMap<uint32_t, std::string> copy(fm);
  ASSERT_EQ(copy.size(), 100u);
  EXPECT_EQ(*copy.Get(42), "42");
  flat::FlatMap<uint32_t, std::string> moved(std::move(fm));
  EXPECT_EQ(moved.size(), 100u);
  EXPECT_EQ(*moved.Get(7), "7");
  EXPECT_EQ(fm.size(), 0u);  // NOLINT(bugprone-use-after-move): documented reset
  copy = moved;
  EXPECT_EQ(copy.size(), 100u);
}

TEST(FlatSet, Differential) {
  for (uint64_t seed = 3; seed <= 8; ++seed) {
    Entropy rng(seed);
    flat::FlatSet<uint32_t> fs;
    std::unordered_set<uint32_t> ref;
    for (int i = 0; i < 6000; ++i) {
      uint32_t key = rng.Below(512);
      switch (rng.Below(3)) {
        case 0:
          ASSERT_EQ(fs.Insert(key), ref.insert(key).second);
          break;
        case 1:
          ASSERT_EQ(fs.Erase(key), ref.erase(key) == 1);
          break;
        case 2:
          ASSERT_EQ(fs.Contains(key), ref.count(key) == 1);
          break;
      }
      ASSERT_EQ(fs.size(), ref.size());
    }
    size_t seen = 0;
    fs.ForEach([&](uint32_t k) {
      ASSERT_TRUE(ref.count(k) == 1);
      ++seen;
    });
    EXPECT_EQ(seen, ref.size());
  }
}

// ---------------------------------------------------------------------------
// Fixed-capacity variants

TEST(FixedFlatMap, DifferentialWithinCapacity) {
  // Key range < capacity: behavior must be indistinguishable from the
  // dynamic variant / std reference.
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    RunMapDifferential<flat::FixedFlatMap<uint32_t, uint32_t, 64>>(seed, 48, 4000);
  }
}

TEST(FixedFlatMap, CapacityExhaustion) {
  flat::FixedFlatMap<uint32_t, uint32_t, 16> fm;
  for (uint32_t k = 0; k < 16; ++k) {
    auto [e, inserted] = fm.Emplace(k, k);
    ASSERT_TRUE(inserted);
    ASSERT_NE(e, nullptr);
  }
  EXPECT_TRUE(fm.full());
  EXPECT_EQ(fm.size(), 16u);

  // New key at capacity: refused, table untouched.
  auto [e, inserted] = fm.Emplace(999u, 1u);
  EXPECT_EQ(e, nullptr);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(fm.size(), 16u);

  // Existing key at capacity: still found (full() must not break hits).
  auto [hit, hit_inserted] = fm.Emplace(5u, 777u);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(hit_inserted);
  EXPECT_EQ(hit->second, 5u);  // keep-existing semantics

  // Erase makes room again.
  ASSERT_TRUE(fm.Erase(3u));
  EXPECT_FALSE(fm.full());
  auto [e2, inserted2] = fm.Emplace(999u, 1u);
  ASSERT_NE(e2, nullptr);
  EXPECT_TRUE(inserted2);
  EXPECT_TRUE(fm.full());
}

TEST(FixedFlatMap, WorstCaseCollisionsStayInline) {
  flat::FixedFlatMap<uint32_t, uint32_t, 32, CollidingHash> fm;
  for (uint32_t k = 0; k < 32; ++k) ASSERT_TRUE(fm.Emplace(k, k).second);
  for (uint32_t k = 0; k < 32; ++k) ASSERT_EQ(*fm.Get(k), k);
  for (uint32_t k = 0; k < 32; k += 2) ASSERT_TRUE(fm.Erase(k));
  for (uint32_t k = 1; k < 32; k += 2) ASSERT_EQ(*fm.Get(k), k);
  EXPECT_EQ(fm.size(), 16u);
}

// ---------------------------------------------------------------------------
// SmallVec

TEST(SmallVec, DifferentialAcrossSpillBoundary) {
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    Entropy rng(seed);
    flat::SmallVec<uint32_t, 4> sv;  // tiny inline tier: spills constantly
    std::vector<uint32_t> ref;
    for (int i = 0; i < 3000; ++i) {
      switch (rng.Below(4)) {
        case 0:
        case 1: {
          uint32_t v = rng.Raw();
          sv.push_back(v);
          ref.push_back(v);
          break;
        }
        case 2: {
          if (ref.empty()) break;
          size_t at = rng.Below(static_cast<uint32_t>(ref.size() + 1));
          uint32_t v = rng.Raw();
          sv.insert_at(at, v);
          ref.insert(ref.begin() + at, v);
          break;
        }
        case 3: {
          if (ref.empty()) break;
          size_t at = rng.Below(static_cast<uint32_t>(ref.size()));
          sv.erase_at(at);
          ref.erase(ref.begin() + at);
          break;
        }
      }
      ASSERT_EQ(sv.size(), ref.size());
    }
    ASSERT_TRUE(std::equal(sv.begin(), sv.end(), ref.begin(), ref.end()));
  }
}

TEST(SmallVec, CopyMoveEquality) {
  flat::SmallVec<uint32_t, 4> a;
  for (uint32_t i = 0; i < 3; ++i) a.push_back(i);  // inline
  flat::SmallVec<uint32_t, 4> b = a;
  EXPECT_EQ(a, b);
  b.push_back(99);
  EXPECT_NE(a, b);
  for (uint32_t i = 0; i < 10; ++i) a.push_back(i);  // spilled
  flat::SmallVec<uint32_t, 4> c = a;
  EXPECT_EQ(a, c);
  flat::SmallVec<uint32_t, 4> d = std::move(a);
  EXPECT_EQ(c, d);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): documented reset
  a = d;                    // reassign after move-out
  EXPECT_EQ(a, c);
}

// ---------------------------------------------------------------------------
// FlatLru

// Reference LRU built on std::list, mirroring the VerdictCache original.
class RefLru {
 public:
  explicit RefLru(size_t cap) : cap_(cap) {}
  int* Find(uint64_t k) {
    auto it = index_.find(k);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }
  void Insert(uint64_t k, int v) {
    auto it = index_.find(k);
    if (it != index_.end()) {
      it->second->second = v;
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(k, v);
    index_[k] = order_.begin();
    if (order_.size() > cap_) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
  }
  size_t size() const { return order_.size(); }

 private:
  size_t cap_;
  std::list<std::pair<uint64_t, int>> order_;
  std::unordered_map<uint64_t, std::list<std::pair<uint64_t, int>>::iterator> index_;
};

TEST(FlatLru, DifferentialVsListLru) {
  for (uint64_t seed = 31; seed <= 34; ++seed) {
    Entropy rng(seed);
    flat::FlatLru<uint64_t, int> lru(32);
    RefLru ref(32);
    for (int i = 0; i < 20000; ++i) {
      uint64_t key = rng.Below(100);  // ~3x capacity: constant eviction
      if (rng.Below(2) == 0) {
        int* got = lru.Find(key);
        int* want = ref.Find(key);
        ASSERT_EQ(got != nullptr, want != nullptr) << "key " << key;
        if (got != nullptr) {
          ASSERT_EQ(*got, *want);
        }
      } else {
        int v = static_cast<int>(rng.Raw());
        lru.Insert(key, v);
        ref.Insert(key, v);
      }
      ASSERT_EQ(lru.size(), ref.size());
    }
  }
}

TEST(FlatLru, EvictsLeastRecentlyUsed) {
  flat::FlatLru<uint64_t, int> lru(3);
  lru.Insert(1, 10);
  lru.Insert(2, 20);
  lru.Insert(3, 30);
  ASSERT_NE(lru.Find(1), nullptr);  // 1 becomes MRU; LRU order now 2,3,1
  lru.Insert(4, 40);                // evicts 2
  EXPECT_EQ(lru.Find(2), nullptr);
  EXPECT_NE(lru.Find(1), nullptr);
  EXPECT_NE(lru.Find(3), nullptr);
  EXPECT_NE(lru.Find(4), nullptr);
  EXPECT_EQ(lru.evictions(), 1u);
}

TEST(FlatLru, ValueOwningMemory) {
  flat::FlatLru<uint64_t, std::string> lru(4);
  for (uint64_t k = 0; k < 100; ++k) {
    lru.Insert(k, std::string(100, static_cast<char>('a' + k % 26)));
  }
  EXPECT_EQ(lru.size(), 4u);
  ASSERT_NE(lru.Find(99), nullptr);
  EXPECT_EQ(lru.Find(99)->front(), 'a' + 99 % 26);
}

}  // namespace
}  // namespace tic
