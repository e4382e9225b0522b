#ifndef SPIDER_TESTS_TESTING_DIGEST_H_
#define SPIDER_TESTS_TESTING_DIGEST_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "base/tuple.h"
#include "base/value.h"
#include "query/binding.h"
#include "storage/instance.h"

namespace spider::testing {

/// Order-sensitive 64-bit FNV-1a digest over a canonical rendering of
/// engine outputs. Pin tests record digests of a known-good build and
/// compare later builds against them: any drift in content or order
/// (row order, null ids, step order) changes the value.
class Digest {
 public:
  Digest& Add(std::string_view bytes) {
    for (char c : bytes) {
      hash_ ^= static_cast<uint8_t>(c);
      hash_ *= 0x100000001b3ULL;
    }
    hash_ ^= 0xff;  // Field separator: "ab","c" differs from "a","bc".
    hash_ *= 0x100000001b3ULL;
    return *this;
  }
  Digest& Add(int64_t n) { return Add(std::to_string(n)); }
  Digest& Add(const Value& v) { return Add(v.ToString()); }
  Digest& Add(const Tuple& t) { return Add(t.ToString()); }

  /// Every variable slot in order; unbound slots render as "_".
  Digest& Add(const Binding& b) {
    Add(static_cast<int64_t>(b.size()));
    for (size_t v = 0; v < b.size(); ++v) {
      VarId var = static_cast<VarId>(v);
      if (b.IsBound(var)) {
        Add(b.Get(var));
      } else {
        Add(std::string_view("_"));
      }
    }
    return *this;
  }

  /// Every relation's tuples in row order.
  Digest& Add(const Instance& inst) {
    Add(static_cast<int64_t>(inst.NumRelations()));
    for (size_t r = 0; r < inst.NumRelations(); ++r) {
      const auto& rows = inst.tuples(static_cast<RelationId>(r));
      Add(static_cast<int64_t>(rows.size()));
      for (const Tuple& t : rows) Add(t);
    }
    return *this;
  }

  uint64_t value() const { return hash_; }

  /// `0x...ULL` literal, ready to paste into a pin table.
  static std::string Hex(uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                  static_cast<unsigned long long>(v));
    return buf;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace spider::testing

#endif  // SPIDER_TESTS_TESTING_DIGEST_H_
