#ifndef TIC_COMMON_FLAT_FLAT_SET_H_
#define TIC_COMMON_FLAT_FLAT_SET_H_

#include <functional>
#include <utility>

#include "common/flat/flat_table.h"
#include "common/flat/wyhash.h"

namespace tic {
namespace flat {

/// Robin-hood open-addressing set; the set view of flat_table.h. Same
/// contract as FlatMap: pointer-returning lookups, entries move on insert,
/// Clear() keeps the bucket array warm.
template <typename K, typename HashT = Hash<K>, typename EqT = std::equal_to<K>>
class FlatSet {
 public:
  struct GetKey {
    const K& operator()(const K& e) const { return e; }
  };

  bool Contains(const K& key) const { return table_.Contains(key); }

  /// Returns true when the key was inserted (false: already present).
  template <typename KeyArg>
  bool Insert(KeyArg&& key) {
    auto [e, inserted] =
        table_.FindOrEmplace(key, [&] { return K(std::forward<KeyArg>(key)); });
    (void)e;
    return inserted;
  }

  /// STL-compatible spelling, so generic collectors (`out->insert(v)`) accept
  /// a FlatSet wherever they accept a std::unordered_set.
  template <typename KeyArg>
  bool insert(KeyArg&& key) { return Insert(std::forward<KeyArg>(key)); }

  bool Erase(const K& key) { return table_.Erase(key); }
  void Clear() { table_.Clear(); }
  void Reserve(size_t n) { table_.Reserve(n); }

  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  size_t capacity() const { return table_.capacity(); }
  size_t bucket_count() const { return table_.bucket_count(); }

  template <typename Fn>
  void ForEach(Fn fn) const { table_.ForEach(fn); }

 private:
  FlatTable<K, K, GetKey, HashT, EqT> table_;
};

}  // namespace flat
}  // namespace tic

#endif  // TIC_COMMON_FLAT_FLAT_SET_H_
