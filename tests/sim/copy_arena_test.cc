// The scenario engine's copy arena against one std::vector of copies
// per row, through seeded stores, refreshes and evictions.
#include "sim/engine/copy_arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"

namespace p2prange {
namespace sim {
namespace {

auto Key(const StoredDesc& d) {
  return std::tie(d.home, d.lo, d.hi, d.holder, d.home_epoch);
}

std::vector<StoredDesc> SortedByKey(std::vector<StoredDesc> copies) {
  std::sort(copies.begin(), copies.end(),
            [](const StoredDesc& a, const StoredDesc& b) {
              return Key(a) < Key(b);
            });
  return copies;
}

bool SameCopies(std::span<const StoredDesc> a,
                std::span<const StoredDesc> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const StoredDesc& x, const StoredDesc& y) {
                      return Key(x) == Key(y);
                    });
}

// Seeded stores (one in three refreshes a copy the row holds), scans
// that evict part of one home's run, and new rows, against a vector
// of copies per row that stores and evicts the way the engine's
// per-identifier vectors did. The first row takes a quarter of the
// stores and grows into blocks a page each; the rest keep more than a
// page of class-0 blocks live. After every step, the row it touched
// must hold the reference row's copies as a multiset, sorted by home,
// every other row must read exactly as it did, and every size class
// must have carved exactly as many blocks as it ever held at once: a
// freed block is reused before a new one, or a new page, is carved.
TEST(CopyArenaTest, MatchesVectorRowsThroughGrowth) {
  constexpr size_t kFirstRows = 300;
  constexpr int kSteps = 4000;
  constexpr uint32_t kHomes = 16;
  constexpr uint32_t kHolders = 64;
  auto draw = [](Rng* rng, uint64_t bound) {
    return static_cast<uint32_t>(rng->NextBounded(bound));
  };
  for (const int replication : {1, 3}) {
    CopyArena arena(replication);
    std::vector<std::vector<StoredDesc>> ref;
    // Each arena row as it read after the last step that touched it.
    std::vector<std::vector<StoredDesc>> verified;
    // A row's class follows its largest size so far: blocks never
    // shrink.
    std::vector<int> row_class;
    std::vector<size_t> peak_rows_in_class;
    Rng rng(0xA4E4A + static_cast<uint64_t>(replication));

    auto class_for = [&](size_t size) {
      int size_class = 0;
      while ((static_cast<size_t>(replication) << size_class) < size) {
        ++size_class;
      }
      return size_class;
    };
    auto add_row = [&] {
      arena.AddRow();
      ref.emplace_back();
      verified.emplace_back();
      row_class.push_back(0);
    };
    auto check = [&](uint32_t touched, const std::string& where) {
      std::vector<size_t> rows_in_class;
      for (const int c : row_class) {
        if (rows_in_class.size() <= static_cast<size_t>(c)) {
          rows_in_class.resize(static_cast<size_t>(c) + 1);
        }
        ++rows_in_class[static_cast<size_t>(c)];
      }
      if (peak_rows_in_class.size() < rows_in_class.size()) {
        peak_rows_in_class.resize(rows_in_class.size());
      }
      for (size_t c = 0; c < rows_in_class.size(); ++c) {
        peak_rows_in_class[c] =
            std::max(peak_rows_in_class[c], rows_in_class[c]);
      }
      for (size_t c = 0; c <= peak_rows_in_class.size(); ++c) {
        const size_t want =
            c < peak_rows_in_class.size() ? peak_rows_in_class[c] : 0;
        ASSERT_EQ(arena.blocks_carved(static_cast<int>(c)), want)
            << where << " class " << c;
      }
      ASSERT_EQ(arena.num_rows(), ref.size()) << where;
      for (uint32_t row = 0; row < ref.size(); ++row) {
        const std::span<const StoredDesc> got = arena.Copies(row);
        if (row != touched) {
          ASSERT_TRUE(SameCopies(got, verified[row]))
              << where << " untouched row " << row;
          continue;
        }
        const auto by_home = [](const StoredDesc& a, const StoredDesc& b) {
          return a.home < b.home;
        };
        ASSERT_TRUE(std::is_sorted(got.begin(), got.end(), by_home))
            << where << " row " << row;
        ASSERT_TRUE(SameCopies(SortedByKey({got.begin(), got.end()}),
                               SortedByKey(ref[row])))
            << where << " row " << row;
        verified[row].assign(got.begin(), got.end());
      }
    };

    for (size_t i = 0; i < kFirstRows; ++i) add_row();
    check(0, "first rows");
    for (int step = 0; step < kSteps; ++step) {
      const std::string where = "replication " + std::to_string(replication) +
                                " step " + std::to_string(step);
      const uint32_t op = draw(&rng, 64);
      if (op == 0) {
        add_row();
        check(static_cast<uint32_t>(ref.size() - 1), where);
        continue;
      }
      // A quarter of the stores and scans go to row 0, the rest spread
      // evenly.
      const uint32_t row = draw(&rng, 4) == 0 ? 0 : draw(&rng, ref.size());
      std::vector<StoredDesc>& want = ref[row];
      if (op < 56) {
        StoredDesc d;
        if (!want.empty() && draw(&rng, 3) == 0) {
          d = want[draw(&rng, want.size())];
        } else {
          d.home = draw(&rng, kHomes);
          d.lo = draw(&rng, 2000);
          d.hi = d.lo + draw(&rng, 50);
        }
        d.holder = draw(&rng, kHolders);
        d.home_epoch = static_cast<uint16_t>(draw(&rng, 4));
        arena.Store(row, d);
        // The reference: refresh the first copy of the same range at
        // the same home, else append.
        auto same = std::find_if(want.begin(), want.end(),
                                 [&](const StoredDesc& e) {
                                   return e.home == d.home && e.lo == d.lo &&
                                          e.hi == d.hi;
                                 });
        if (same != want.end()) {
          *same = d;
        } else {
          want.push_back(d);
        }
        row_class[row] = std::max(row_class[row], class_for(want.size()));
      } else {
        // One holder in 16 is dead; the scan evicts its copies at home.
        const uint32_t home = draw(&rng, kHomes);
        const uint32_t dead = draw(&rng, 16);
        std::vector<StoredDesc> seen;
        const size_t erased =
            arena.ScanHome(row, home, [&](const StoredDesc& d) {
              seen.push_back(d);
              return d.holder % 16 == dead;
            });
        std::vector<StoredDesc> at_home;
        for (const StoredDesc& d : want) {
          if (d.home == home) at_home.push_back(d);
        }
        ASSERT_TRUE(SameCopies(SortedByKey(seen), SortedByKey(at_home)))
            << where;
        const auto evicted = std::remove_if(
            want.begin(), want.end(), [&](const StoredDesc& d) {
              return d.home == home && d.holder % 16 == dead;
            });
        ASSERT_EQ(erased, static_cast<size_t>(want.end() - evicted)) << where;
        want.erase(evicted, want.end());
      }
      check(row, where);
    }
    // Row 0 reached a class whose blocks take a page each, and the
    // other rows kept more than a page of class-0 blocks.
    EXPECT_GE(row_class[0], CopyArena::kPageLog2)
        << "replication " << replication;
    EXPECT_GT(arena.blocks_carved(0), size_t{1} << CopyArena::kPageLog2)
        << "replication " << replication;
  }
}

}  // namespace
}  // namespace sim
}  // namespace p2prange
