//===- tests/test_suffixtree.cpp - Repeat detector property tests ---------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The suffix array's repeat enumeration checked against a naive O(n^3)
/// finder, its SA-IS construction against the prefix-doubling oracle, and
/// its view (non-owning) construction against owned copies.
///
//===----------------------------------------------------------------------===//

#include "suffixtree/SuffixArray.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

using namespace calibro;
using namespace calibro::st;

namespace {

/// Repeated content -> its ascending occurrence positions.
using Repeats = std::map<std::vector<Symbol>, std::vector<uint32_t>>;

std::vector<Symbol> fromString(const char *S) {
  std::vector<Symbol> V;
  for (const char *P = S; *P; ++P)
    V.push_back(static_cast<Symbol>(*P));
  return V;
}

/// Naive O(n^3) reference: all repeated substrings of length >= MinLen with
/// their occurrence positions.
Repeats naiveRepeats(const std::vector<Symbol> &T, uint32_t MinLen,
                     uint32_t MaxLen) {
  Repeats Out;
  for (std::size_t Len = MinLen; Len <= MaxLen && Len <= T.size(); ++Len) {
    Repeats ByKey;
    for (std::size_t P = 0; P + Len <= T.size(); ++P) {
      std::vector<Symbol> Key(T.begin() + P, T.begin() + P + Len);
      ByKey[Key].push_back(static_cast<uint32_t>(P));
    }
    for (auto &[Key, Positions] : ByKey)
      if (Positions.size() >= 2)
        Out.emplace(Key, Positions);
  }
  return Out;
}

/// The naive finder's right-maximal repeats: those whose occurrences are
/// followed by at least two distinct symbols, the end of the text counting
/// as a symbol of its own. These are exactly the LCP intervals of the
/// suffix array (and the internal nodes of the suffix tree).
Repeats naiveRightMaximal(const std::vector<Symbol> &T) {
  Repeats Out;
  for (auto &[Key, Pos] : naiveRepeats(T, 1, static_cast<uint32_t>(T.size()))) {
    std::set<Symbol> Next;
    bool AtEnd = false;
    for (uint32_t P : Pos) {
      if (P + Key.size() == T.size())
        AtEnd = true;
      else
        Next.insert(T[P + Key.size()]);
    }
    if (Next.size() + AtEnd >= 2)
      Out.emplace(Key, Pos);
  }
  return Out;
}

/// Every repeat \p A reports (lengths clamped to \p MaxLen), keyed by its
/// content in \p T.
Repeats enumerateRepeats(const SuffixArray &A, const std::vector<Symbol> &T,
                         uint32_t MaxLen) {
  Repeats Out;
  A.forEachRepeat(1, MaxLen, 2, [&](const RepeatInfo &R) {
    auto Pos = A.positionsOf(R.Node);
    EXPECT_EQ(Pos.size(), R.Count);
    Out[{T.begin() + Pos[0], T.begin() + Pos[0] + R.Length}] = Pos;
  });
  return Out;
}

/// A random text over a small alphabet, with unique separators mixed in at
/// rate \p SepRate like LTBO's group sequences.
std::vector<Symbol> randomText(Rng &R, std::size_t N, unsigned Alphabet,
                               double SepRate = 0) {
  std::vector<Symbol> T;
  T.reserve(N);
  for (std::size_t I = 0; I < N; ++I) {
    if (SepRate > 0 && R.nextBool(SepRate))
      T.push_back(SeparatorBase + I);
    else
      T.push_back('a' + R.nextBelow(Alphabet));
  }
  return T;
}

TEST(SuffixArray, Banana) {
  // The paper's §2.1.2 example: "banana" has the right-maximal repeats
  // "a" (x3), "ana" (x2) and "na" (x2). "an" is not right-maximal (every
  // "an" extends to "ana"), so it is no interval. "ana"'s occurrences
  // overlap, which is fine here: the non-overlap rule is applied by the
  // outliner, not the detector.
  std::vector<Symbol> T = fromString("banana");
  SuffixArray A{std::vector<Symbol>(T)};
  EXPECT_EQ(A.textSize(), 6u);
  Repeats Found = enumerateRepeats(A, T, 100);
  EXPECT_EQ(Found.size(), 3u);
  EXPECT_EQ(Found[fromString("a")], (std::vector<uint32_t>{1, 3, 5}));
  EXPECT_EQ(Found[fromString("ana")], (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(Found[fromString("na")], (std::vector<uint32_t>{2, 4}));
}

TEST(SuffixArray, NoRepeatsInUniqueText) {
  std::vector<Symbol> T;
  for (uint32_t I = 0; I < 100; ++I)
    T.push_back(SeparatorBase + I);
  SuffixArray A(std::move(T));
  std::size_t Count = 0;
  A.forEachRepeat(1, 100, 2, [&](const RepeatInfo &) { ++Count; });
  EXPECT_EQ(Count, 0u);
}

TEST(SuffixArray, SeparatorsConfineRepeats) {
  // "abc | abc" with a unique separator: "abc" repeats, nothing longer.
  SuffixArray A({'a', 'b', 'c', SeparatorBase, 'a', 'b', 'c'});
  uint32_t MaxLen = 0;
  A.forEachRepeat(1, 100, 2, [&](const RepeatInfo &R) {
    MaxLen = std::max(MaxLen, R.Length);
  });
  EXPECT_EQ(MaxLen, 3u);
}

class SuffixArrayRandom : public ::testing::TestWithParam<uint64_t> {};

/// Property: every interval the array reports is a genuine repeat with
/// exactly the naive finder's positions; and every naive repeat is covered
/// by some reported interval (for each repeated substring S, the array
/// reports an interval whose string has S as a prefix and whose positions
/// equal S's — S's shortest right-maximal extension).
TEST_P(SuffixArrayRandom, MatchesNaiveFinder) {
  Rng R(GetParam());
  for (int Round = 0; Round < 20; ++Round) {
    std::size_t N = 30 + R.nextBelow(120);
    auto T = randomText(R, N, 2 + static_cast<unsigned>(R.nextBelow(5)));
    auto Naive = naiveRepeats(T, 1, static_cast<uint32_t>(N));
    SuffixArray A{std::vector<Symbol>(T)};
    Repeats Found = enumerateRepeats(A, T, static_cast<uint32_t>(N));

    // Soundness: each reported interval is a naive repeat, same positions.
    for (const auto &[Key, Pos] : Found) {
      auto It = Naive.find(Key);
      ASSERT_NE(It, Naive.end()) << "array reported a non-repeat";
      EXPECT_EQ(It->second, Pos);
    }
    // Completeness: every naive repeat's position set is reported.
    for (const auto &[Key, Pos] : Naive) {
      bool Covered = false;
      for (const auto &[FKey, FPos] : Found) {
        if (FKey.size() >= Key.size() &&
            std::equal(Key.begin(), Key.end(), FKey.begin()) && FPos == Pos) {
          Covered = true;
          break;
        }
      }
      EXPECT_TRUE(Covered) << "naive repeat not covered by any interval";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuffixArrayRandom,
                         ::testing::Values(7, 99, 1234, 0xabcdef, 31337));

/// Unclamped, the array reports exactly the naive finder's right-maximal
/// repeats: the same contents with the same occurrence sets, no more and
/// no fewer.
class NaiveOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NaiveOracle, IntervalsAreTheRightMaximalRepeats) {
  Rng R(GetParam());
  for (int Round = 0; Round < 15; ++Round) {
    std::size_t N = 40 + R.nextBelow(200);
    auto T = randomText(R, N, 2 + static_cast<unsigned>(R.nextBelow(6)),
                        /*SepRate=*/0.05);
    SuffixArray A{std::vector<Symbol>(T)};
    Repeats Found = enumerateRepeats(A, T, static_cast<uint32_t>(N) + 1);
    EXPECT_EQ(Found, naiveRightMaximal(T)) << "N=" << N;
    EXPECT_EQ(Found.size(), A.numNodes()) << "N=" << N;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NaiveOracle,
                         ::testing::Values(3, 17, 2718, 31415));

TEST(SuffixArray, LargePeriodicText) {
  // Heavily periodic input: one long chain of nested intervals.
  std::vector<Symbol> T;
  for (int I = 0; I < 5000; ++I)
    T.push_back('a' + (I % 3));
  SuffixArray A(std::move(T));
  bool FoundLong = false;
  A.forEachRepeat(100, 200, 2, [&](const RepeatInfo &R) {
    FoundLong |= R.Length >= 100 && R.Count >= 2;
  });
  EXPECT_TRUE(FoundLong);
}

TEST(SuffixArray, PositionsSorted) {
  SuffixArray A(fromString("xyxyxyxyxy"));
  A.forEachRepeat(1, 10, 2, [&](const RepeatInfo &R) {
    auto Pos = A.positionsOf(R.Node);
    EXPECT_TRUE(std::is_sorted(Pos.begin(), Pos.end()));
    EXPECT_EQ(Pos.size(), R.Count);
  });
}

TEST(SuffixArray, FirstPositionMatchesPositions) {
  Rng R(0xf157);
  for (int Case = 0; Case < 10; ++Case) {
    SuffixArray A(randomText(R, 20 + R.nextBelow(200), 4));
    A.forEachRepeat(1, 64, 2, [&](const RepeatInfo &Rep) {
      EXPECT_EQ(A.firstPositionOf(Rep.Node), A.positionsOf(Rep.Node).front());
    });
  }
}

/// Clamped-candidate dedup property, checked against the naive finder:
///  - no content (the length-R.Length prefix at the reported positions) is
///    reported twice — deep intervals collapse onto the shallowest interval
///    of LCP >= MaxLen on their root path;
///  - every clamped report carries the FULL occurrence set of its
///    length-MaxLen content (the deeper duplicates it replaced only held
///    subsets);
///  - every distinct length-MaxLen repeat is still reported (dedup loses
///    no candidate).
void checkClampedDedup(const std::vector<Symbol> &T, uint32_t MaxLen) {
  SuffixArray A{std::vector<Symbol>(T)};
  auto Naive = naiveRepeats(T, MaxLen, MaxLen);
  Repeats Reported;
  A.forEachRepeat(1, MaxLen, 2, [&](const RepeatInfo &R) {
    ASSERT_LE(R.Length, MaxLen);
    auto Pos = A.positionsOf(R.Node);
    std::vector<Symbol> Key(T.begin() + Pos[0], T.begin() + Pos[0] + R.Length);
    auto [It, Inserted] = Reported.emplace(Key, Pos);
    EXPECT_TRUE(Inserted) << "content reported twice (len " << R.Length
                          << ")";
    if (R.Length == MaxLen) {
      auto NIt = Naive.find(Key);
      ASSERT_NE(NIt, Naive.end()) << "reported a non-repeat";
      EXPECT_EQ(NIt->second, Pos) << "clamped report lost occurrences";
    }
  });
  for (const auto &[Key, Pos] : Naive) {
    auto It = Reported.find(Key);
    ASSERT_NE(It, Reported.end()) << "length-MaxLen repeat not reported";
    EXPECT_EQ(It->second, Pos);
  }
}

std::vector<Symbol> periodicText(std::size_t Period, std::size_t Len) {
  std::vector<Symbol> T;
  for (std::size_t I = 0; I < Len; ++I)
    T.push_back('a' + static_cast<Symbol>(I % Period));
  return T;
}

TEST(ClampedDedup, PeriodicText) {
  // "ababab...": the worst case — one deep chain of intervals, all
  // clamping to the same two length-5 contents ("ababa"/"babab").
  checkClampedDedup(periodicText(2, 80), 5);
  checkClampedDedup(periodicText(3, 90), 7);
}

TEST(ClampedDedup, RandomTexts) {
  Rng R(0xc0ffee);
  for (int Round = 0; Round < 20; ++Round) {
    std::size_t N = 60 + R.nextBelow(120);
    unsigned Alphabet = 2 + static_cast<unsigned>(R.nextBelow(3));
    uint32_t MaxLen = 3 + static_cast<uint32_t>(R.nextBelow(6));
    checkClampedDedup(randomText(R, N, Alphabet), MaxLen);
  }
}

//===----------------------------------------------------------------------===//
// SA-IS vs prefix doubling: construction differential
//===----------------------------------------------------------------------===//

// The SA of a text with a unique smallest (virtual) sentinel is unique, so
// SA-IS and the retained prefix-doubling oracle must agree ELEMENT FOR
// ELEMENT — not merely produce equivalent repeat sets.
void checkSaIsMatchesDoubling(const std::vector<Symbol> &T) {
  SuffixArray A{std::vector<Symbol>(T)};
  std::vector<uint32_t> Oracle = prefixDoublingSuffixArray(T);
  auto Got = A.suffixArray();
  ASSERT_EQ(Got.size(), Oracle.size()) << "n=" << T.size();
  ASSERT_EQ(Got.size(), T.size() + 1);
  EXPECT_EQ(Got.front(), static_cast<uint32_t>(T.size()))
      << "sentinel suffix must sort first";
  for (std::size_t I = 0; I < Oracle.size(); ++I)
    ASSERT_EQ(Got[I], Oracle[I]) << "row " << I << " (n=" << T.size() << ")";
}

TEST(SaIsDifferential, EdgeShapes) {
  checkSaIsMatchesDoubling({});                  // Empty text.
  checkSaIsMatchesDoubling({42});                // Single symbol.
  checkSaIsMatchesDoubling(fromString("aaaaaaaaaaaaaaaa")); // All equal.
  checkSaIsMatchesDoubling(fromString("ab"));
  checkSaIsMatchesDoubling(fromString("ba"));
  checkSaIsMatchesDoubling(fromString("banana"));
  checkSaIsMatchesDoubling(fromString("mississippi"));
  // Sparse 64-bit symbols, including values around the separator range and
  // the old reserved sentinel — all legal under the virtual sentinel.
  checkSaIsMatchesDoubling({SeparatorBase, 0, SeparatorBase + 1, 0,
                            ~uint64_t(0), 0, ~uint64_t(0)});
}

TEST(SaIsDifferential, RandomTexts) {
  Rng R(0x5a15);
  for (int Case = 0; Case < 60; ++Case) {
    std::size_t N = 1 + R.nextBelow(300);
    uint64_t Alphabet = 1 + R.nextBelow(8);
    std::vector<Symbol> T;
    T.reserve(N);
    for (std::size_t I = 0; I < N; ++I)
      T.push_back('a' + R.nextBelow(Alphabet));
    checkSaIsMatchesDoubling(T);
  }
}

//===----------------------------------------------------------------------===//
// Hybrid construction-backend auto-pick
//===----------------------------------------------------------------------===//

// The pick must be a deterministic function of the text, exercise BOTH
// backends across the expected regimes, and never change the output: the
// SA with a unique smallest sentinel is unique, so whichever backend runs
// must match the prefix-doubling oracle element for element.
TEST(SaBackendPick, SmallTextUsesPrefixDoubling) {
  // Below the symbol-count threshold SA-IS's setup cost dominates
  // (BENCH_build_time: sais_speedup 0.617 at scale 2) — even on maximally
  // repeat-heavy text the pick must stay with doubling.
  std::vector<Symbol> T(4096, 'a');
  SuffixArray A{std::vector<Symbol>(T)};
  EXPECT_EQ(A.constructionBackend(), SaBackend::PrefixDoubling);
  checkSaIsMatchesDoubling(T);
}

TEST(SaBackendPick, LargeRepeatHeavyTextUsesSaIs) {
  // Large text over a tiny alphabet: nearly every sampled bigram repeats,
  // so doubling would run deep rank-resolution rounds — SA-IS territory.
  Rng R(0xbac0);
  std::vector<Symbol> T;
  T.reserve(1 << 16);
  for (std::size_t I = 0; I < (1u << 16); ++I)
    T.push_back('a' + R.nextBelow(4));
  SuffixArray A{std::vector<Symbol>(T)};
  EXPECT_EQ(A.constructionBackend(), SaBackend::SaIs);
  checkSaIsMatchesDoubling(T);
}

TEST(SaBackendPick, LargeRepeatPoorTextUsesPrefixDoubling) {
  // Large but almost-unique symbols: ranks go unique within a couple of
  // doubling rounds, which O(n) construction cannot beat in practice.
  std::vector<Symbol> T;
  T.reserve(1 << 16);
  for (std::size_t I = 0; I < (1u << 16); ++I)
    T.push_back(0x1000 + I * 3);
  SuffixArray A{std::vector<Symbol>(T)};
  EXPECT_EQ(A.constructionBackend(), SaBackend::PrefixDoubling);
  checkSaIsMatchesDoubling(T);
}

TEST(SaBackendPick, PickIsDeterministicAndNamed) {
  Rng R(0x9e1c);
  std::vector<Symbol> T;
  for (std::size_t I = 0; I < 50000; ++I)
    T.push_back('a' + R.nextBelow(3));
  SuffixArray A{std::vector<Symbol>(T)};
  SuffixArray B{std::vector<Symbol>(T)};
  EXPECT_EQ(A.constructionBackend(), B.constructionBackend());
  EXPECT_STREQ(saBackendName(SaBackend::SaIs), "sa_is");
  EXPECT_STREQ(saBackendName(SaBackend::PrefixDoubling), "prefix_doubling");
}

TEST(SaIsDifferential, SeededRepeatTexts) {
  // Repeat-heavy inputs exercise the SA-IS recursion (many equal LMS
  // substrings force non-unique names): periodic texts, doubled random
  // blocks, and runs, with unique separators mixed in like the outliner's
  // group sequences.
  Rng R(0xd0b1);
  for (int Case = 0; Case < 30; ++Case) {
    std::vector<Symbol> Block;
    std::size_t BlockLen = 2 + R.nextBelow(12);
    for (std::size_t I = 0; I < BlockLen; ++I)
      Block.push_back('a' + R.nextBelow(3));
    std::vector<Symbol> T;
    uint64_t Sep = 0;
    std::size_t Reps = 2 + R.nextBelow(20);
    for (std::size_t K = 0; K < Reps; ++K) {
      T.insert(T.end(), Block.begin(), Block.end());
      if (R.nextBelow(3) == 0)
        T.push_back(SeparatorBase + Sep++);
    }
    checkSaIsMatchesDoubling(T);
  }
}

TEST(SaIsDifferential, ExternalArenaMatchesPrivate) {
  // Same text through a caller-supplied arena (reused and reset between
  // constructions, like the Phase B pool does) and through the private
  // arena: identical arrays, identical repeat enumeration.
  Rng R(0xae1a);
  support::Arena Scratch;
  for (int Case = 0; Case < 10; ++Case) {
    std::size_t N = 50 + R.nextBelow(200);
    std::vector<Symbol> T;
    for (std::size_t I = 0; I < N; ++I)
      T.push_back('a' + R.nextBelow(4));

    SuffixArray WithPool(std::vector<Symbol>(T), &Scratch);
    Scratch.reset(); // Construction scratch is dead the moment it returns.
    SuffixArray Private{std::vector<Symbol>(T)};
    ASSERT_EQ(WithPool.suffixArray().size(), Private.suffixArray().size());
    for (std::size_t I = 0; I < Private.suffixArray().size(); ++I)
      ASSERT_EQ(WithPool.suffixArray()[I], Private.suffixArray()[I]);
    EXPECT_EQ(WithPool.numNodes(), Private.numNodes());
    EXPECT_GT(Scratch.bytesReserved(), 0u);
  }
}

//===----------------------------------------------------------------------===//
// View (non-owning) construction: windowed linking builds suffix arrays
// over spans of caller-held text. A view-built array must be
// indistinguishable from an owned one over the same bytes.
//===----------------------------------------------------------------------===//

void checkViewMatchesOwned(const std::vector<Symbol> &T) {
  const uint32_t MaxLen = static_cast<uint32_t>(T.size()) + 1;
  SuffixArray Owned{std::vector<Symbol>(T)};
  SuffixArray Viewed{std::span<const Symbol>(T)};

  EXPECT_EQ(Owned.textSize(), Viewed.textSize());
  EXPECT_EQ(Owned.numNodes(), Viewed.numNodes());
  // Both modes account the text identically (the owned copy is exact-size),
  // so the whole working set matches byte for byte.
  EXPECT_EQ(Owned.workingSetBytes(), Viewed.workingSetBytes());
  EXPECT_EQ(enumerateRepeats(Owned, T, MaxLen),
            enumerateRepeats(Viewed, T, MaxLen))
      << "view diverged from owned (n=" << T.size() << ")";
}

TEST(ViewConstruction, EdgeShapes) {
  for (const char *S : {"", "x", "aaaaaaaa", "banana", "mississippi"})
    checkViewMatchesOwned(fromString(S));
  // Symbols around the separator range and the all-ones value: legal text,
  // never confused with the virtual sentinel.
  checkViewMatchesOwned({SeparatorBase, 0, ~uint64_t(0), 0, ~uint64_t(0),
                         SeparatorBase + 1});
}

TEST(ViewConstruction, RandomTextsDifferential) {
  Rng R(0x71e3);
  for (int Case = 0; Case < 25; ++Case) {
    std::size_t N = 1 + R.nextBelow(250);
    unsigned Alphabet = 2 + static_cast<unsigned>(R.nextBelow(6));
    checkViewMatchesOwned(randomText(R, N, Alphabet, /*SepRate=*/0.05));
  }
}

TEST(ViewConstruction, TandemRepeatTextsDifferential) {
  // Repeat-heavy corpora (tandem blocks with occasional separators): the
  // shapes that stress deep interval chains and the SA-IS recursion.
  Rng R(0x7a2d);
  for (int Case = 0; Case < 20; ++Case) {
    std::vector<Symbol> Block;
    std::size_t BlockLen = 2 + R.nextBelow(10);
    for (std::size_t I = 0; I < BlockLen; ++I)
      Block.push_back('a' + R.nextBelow(3));
    std::vector<Symbol> T;
    uint64_t Sep = 0;
    std::size_t Reps = 3 + R.nextBelow(25);
    for (std::size_t K = 0; K < Reps; ++K) {
      T.insert(T.end(), Block.begin(), Block.end());
      if (R.nextBelow(4) == 0)
        T.push_back(SeparatorBase + Sep++);
    }
    checkViewMatchesOwned(T);
  }
}

TEST(ViewConstruction, WindowedSlicesMatchWholeCopies) {
  // The windowed pipeline's actual usage: views over sub-ranges of one big
  // caller-held buffer. Each slice's view array must equal an owned array
  // over a private copy of that slice.
  Rng R(0x5117);
  std::vector<Symbol> Whole = randomText(R, 400, 4);
  for (int Case = 0; Case < 15; ++Case) {
    std::size_t Lo = R.nextBelow(Whole.size());
    std::size_t Len = 1 + R.nextBelow(Whole.size() - Lo);
    std::span<const Symbol> Slice(Whole.data() + Lo, Len);
    std::vector<Symbol> Copy(Slice.begin(), Slice.end());
    const uint32_t MaxLen = static_cast<uint32_t>(Len) + 1;

    SuffixArray View{Slice};
    SuffixArray Owned{std::vector<Symbol>(Copy)};
    EXPECT_EQ(enumerateRepeats(View, Copy, MaxLen),
              enumerateRepeats(Owned, Copy, MaxLen));
  }
}

TEST(ViewConstruction, ReleaseWorkingSetAccounting) {
  Rng R(0x4e1e);
  const std::vector<Symbol> T = randomText(R, 300, 3);
  const std::size_t TextBytes = T.size() * sizeof(Symbol);
  SuffixArray Owned{std::vector<Symbol>(T)};
  SuffixArray Viewed{std::span<const Symbol>(T)};
  auto Repeats = enumerateRepeats(Owned, T, 16);

  const std::size_t Before = Owned.workingSetBytes();
  ASSERT_EQ(Before, Viewed.workingSetBytes());
  ASSERT_GE(Before, TextBytes);
  Owned.releaseWorkingSet();
  Viewed.releaseWorkingSet();
  // The text contribution returns to zero in BOTH modes — dropping a view
  // must shed exactly as many accounted bytes as freeing an owned copy.
  EXPECT_EQ(Owned.workingSetBytes(), Viewed.workingSetBytes());
  EXPECT_LE(Owned.workingSetBytes(), Before - TextBytes);
  // Enumeration survives release (it reads only the retained arrays).
  EXPECT_EQ(enumerateRepeats(Viewed, T, 16), Repeats);
}

} // namespace
