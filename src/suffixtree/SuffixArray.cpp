//===- suffixtree/SuffixArray.cpp - SA+LCP repeat detection ----------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "suffixtree/SuffixArray.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace calibro;
using namespace calibro::st;

namespace {

/// Maps the sparse 64-bit symbols of \p Txt to dense uint32 ranks via an
/// LSD radix sort (4 x 16-bit passes, passes whose key bits are all zero
/// are skipped — instruction words use only the low 32 bits). Position
/// Txt.size() is the virtual sentinel: rank 0, strictly smaller than every
/// real symbol's rank (those start at 1). No reserved symbol value exists,
/// so ANY uint64 sequence is legal input — the old "input may not contain
/// ~0" precondition is gone by construction.
///
/// Returns the dense per-position ranks (size Txt.size() + 1, allocated
/// from \p A) and sets \p AlphabetOut to one past the largest rank.
std::span<uint32_t> compactRanks(std::span<const Symbol> Txt,
                                 uint32_t &AlphabetOut, support::Arena &A) {
  const uint32_t n = static_cast<uint32_t>(Txt.size());
  std::span<uint32_t> Idx = A.allocSpan<uint32_t>(n);
  std::span<uint32_t> Tmp = A.allocSpan<uint32_t>(n);
  std::span<uint32_t> Cnt = A.allocSpan<uint32_t>(1u << 16);
  // One OR over the text decides up front which passes carry any key bits
  // (instruction words use only the low 32, so passes 2 and 3 usually
  // drop out) — cheaper than probing per pass.
  uint64_t OrAll = 0;
  for (uint32_t I = 0; I < n; ++I)
    OrAll |= Txt[I];
  uint32_t *Src = Idx.data(), *Dst = Tmp.data();
  bool Seeded = false;
  for (int Pass = 0; Pass < 4; ++Pass) {
    const int Shift = Pass * 16;
    if (Pass > 0 && ((OrAll >> Shift) & 0xffff) == 0)
      continue;
    std::fill(Cnt.begin(), Cnt.end(), 0);
    for (uint32_t I = 0; I < n; ++I)
      ++Cnt[(Txt[I] >> Shift) & 0xffff];
    uint32_t Sum = 0;
    for (uint32_t &C : Cnt) {
      uint32_t T = C;
      C = Sum;
      Sum += T;
    }
    if (!Seeded) {
      // First active pass seeds the order directly from the text; no iota
      // pass, no indirection through a not-yet-meaningful index array.
      for (uint32_t I = 0; I < n; ++I)
        Dst[Cnt[(Txt[I] >> Shift) & 0xffff]++] = I;
      Seeded = true;
    } else {
      for (uint32_t I = 0; I < n; ++I)
        Dst[Cnt[(Txt[Src[I]] >> Shift) & 0xffff]++] = Src[I];
    }
    std::swap(Src, Dst);
  }
  std::span<uint32_t> Rank = A.allocSpan<uint32_t>(n + 1);
  uint32_t R = 0;
  for (uint32_t I = 0; I < n; ++I) {
    if (I > 0 && Txt[Src[I]] != Txt[Src[I - 1]])
      ++R;
    Rank[Src[I]] = R + 1;
  }
  Rank[n] = 0; // The virtual sentinel suffix.
  AlphabetOut = n == 0 ? 1 : R + 2;
  return Rank;
}

/// Empty suffix-array slot during induced sorting. Positions are < N, so
/// the all-ones pattern can never collide with a real entry.
constexpr uint32_t SaEmpty = ~uint32_t(0);

/// SA-IS (Nong, Zhang, Chan: "Two Efficient Algorithms for Linear Time
/// Suffix Array Construction"): linear-time suffix-array construction by
/// induced sorting.
///
/// Preconditions: N >= 1, all values of S are < K, and S[N - 1] is the
/// unique smallest symbol (the compacted virtual sentinel guarantees
/// exactly this). All workspace comes from \p A; nothing is freed here —
/// the caller resets the arena after construction.
void saIs(const uint32_t *S, uint32_t N, uint32_t K, uint32_t *Sa,
          support::Arena &A) {
  if (N == 1) {
    Sa[0] = 0;
    return;
  }

  // Classify L/S-types right to left and fuse the type bit into the symbol:
  // SP[I] = S[I] * 2 + type, type 1 = S-type (suffix smaller than its right
  // neighbour; the sentinel is S-type by definition). One random read of SP
  // then yields both the symbol and the type during the induce scans — the
  // separate type-array lookup was half their cache misses.
  //
  // Bucketing directly on SP (2K buckets) places every suffix exactly where
  // symbol-bucketing would: within one symbol's bucket the L-suffixes form
  // the head and the S-suffixes the tail of the final suffix order, so the
  // (c, L) sub-bucket start is the c bucket start and the (c, S) sub-bucket
  // end is the c bucket end.
  std::span<uint32_t> SP = A.allocSpan<uint32_t>(N);
  SP[N - 1] = S[N - 1] * 2 + 1;
  for (uint32_t I = N - 1; I-- > 0;)
    SP[I] = S[I] * 2 +
            (S[I] < S[I + 1] || (S[I] == S[I + 1] && (SP[I + 1] & 1)));
  auto IsLms = [&](uint32_t I) {
    return I > 0 && (SP[I] & 1) && !(SP[I - 1] & 1);
  };

  // Packed-symbol histogram + a bucket cursor array, shared by every pass.
  std::span<uint32_t> Cnt = A.allocSpan<uint32_t>(2 * K);
  std::span<uint32_t> Bkt = A.allocSpan<uint32_t>(2 * K);
  std::fill(Cnt.begin(), Cnt.end(), 0);
  for (uint32_t I = 0; I < N; ++I)
    ++Cnt[SP[I]];
  auto BucketEnds = [&] {
    uint32_t Sum = 0;
    for (uint32_t C = 0; C < 2 * K; ++C) {
      Sum += Cnt[C];
      Bkt[C] = Sum;
    }
  };
  auto BucketStarts = [&] {
    uint32_t Sum = 0;
    for (uint32_t C = 0; C < 2 * K; ++C) {
      Bkt[C] = Sum;
      Sum += Cnt[C];
    }
  };

  // Induce L-suffixes left to right from bucket starts, then S-suffixes
  // right to left from bucket ends. After this, every suffix occupies
  // exactly one slot.
  auto Induce = [&] {
    BucketStarts();
    for (uint32_t I = 0; I < N; ++I) {
      uint32_t J = Sa[I];
      if (J == SaEmpty || J == 0)
        continue;
      uint32_t P = SP[J - 1];
      if (!(P & 1))
        Sa[Bkt[P]++] = J - 1;
    }
    BucketEnds();
    for (uint32_t I = N; I-- > 0;) {
      uint32_t J = Sa[I];
      if (J == SaEmpty || J == 0)
        continue;
      uint32_t P = SP[J - 1];
      if (P & 1)
        Sa[--Bkt[P]] = J - 1;
    }
  };

  // Stage 1: drop the LMS suffixes at their bucket ends in arbitrary order
  // and induce once — this sorts the LMS *substrings*.
  std::fill(Sa, Sa + N, SaEmpty);
  BucketEnds();
  for (uint32_t I = 1; I < N; ++I)
    if (IsLms(I))
      Sa[--Bkt[SP[I]]] = I;
  Induce();

  // Compact the LMS positions out of Sa; their order is now the sorted
  // order of their LMS substrings.
  uint32_t NumLms = 0;
  for (uint32_t I = 0; I < N; ++I)
    if (IsLms(Sa[I]))
      Sa[NumLms++] = Sa[I];

  // Stage 2: name each LMS substring by rank; equal substrings share a
  // name. An LMS substring runs from its LMS position up to AND including
  // the next LMS position. Comparing packed symbols compares symbol and
  // type at once.
  std::span<uint32_t> SortedLms = A.allocSpan<uint32_t>(NumLms);
  std::copy(Sa, Sa + NumLms, SortedLms.begin());
  std::span<uint32_t> NameOf = A.allocSpan<uint32_t>(N);
  auto LmsEqual = [&](uint32_t PA, uint32_t PB) {
    if (PA == N - 1 || PB == N - 1)
      return false; // The sentinel's substring is unique by construction.
    for (uint32_t D = 0;; ++D) {
      if (SP[PA + D] != SP[PB + D])
        return false;
      if (D > 0 && (IsLms(PA + D) || IsLms(PB + D)))
        return IsLms(PA + D) && IsLms(PB + D);
    }
  };
  uint32_t Names = 0;
  for (uint32_t R = 0; R < NumLms; ++R) {
    if (R > 0 && !LmsEqual(SortedLms[R - 1], SortedLms[R]))
      ++Names;
    NameOf[SortedLms[R]] = Names;
  }
  const uint32_t NumNames = NumLms ? Names + 1 : 0;

  // The reduced string: LMS names in text order. Its last character is the
  // sentinel's name 0 — unique smallest, so the recursion's precondition
  // holds at every level.
  std::span<uint32_t> LmsPos = A.allocSpan<uint32_t>(NumLms);
  std::span<uint32_t> Reduced = A.allocSpan<uint32_t>(NumLms);
  {
    uint32_t W = 0;
    for (uint32_t I = 1; I < N; ++I)
      if (IsLms(I)) {
        LmsPos[W] = I;
        Reduced[W] = NameOf[I];
        ++W;
      }
  }

  // Sort the LMS *suffixes*: directly when every name is unique, otherwise
  // by recursing on the reduced string (at most half the length).
  std::span<uint32_t> SaLms = A.allocSpan<uint32_t>(NumLms);
  if (NumNames == NumLms) {
    for (uint32_t R = 0; R < NumLms; ++R)
      SaLms[Reduced[R]] = R;
  } else {
    saIs(Reduced.data(), NumLms, NumNames, SaLms.data(), A);
  }

  
  // Stage 3: seed the buckets with the LMS suffixes in their final sorted
  // order (filled right to left so bucket ends stay stable) and induce once
  // more — the result is the complete suffix array.
  std::fill(Sa, Sa + N, SaEmpty);
  BucketEnds();
  for (uint32_t R = NumLms; R-- > 0;) {
    uint32_t P = LmsPos[SaLms[R]];
    Sa[--Bkt[SP[P]]] = P;
  }
  Induce();

}

/// Prefix doubling over already-compacted dense ranks, writing the full
/// N-entry suffix array into \p Sa. Identical algorithm to the
/// prefixDoublingSuffixArray oracle below (which now delegates here) —
/// counting-sort doubling, O(n) per round, early exit once every rank is
/// unique. \p Rank0 is read-only (build() still needs it for Kasai); all
/// workspace, including the mutable rank copy, comes from \p A.
void prefixDoubleFromRanks(const uint32_t *Rank0, uint32_t N,
                           uint32_t Alphabet, uint32_t *Sa,
                           support::Arena &A) {
  std::span<uint32_t> Rank = A.allocSpan<uint32_t>(N);
  std::copy(Rank0, Rank0 + N, Rank.begin());
  std::span<uint32_t> Tmp = A.allocSpan<uint32_t>(N);
  std::span<uint32_t> NewRank = A.allocSpan<uint32_t>(N);
  // Re-ranking can widen the alphabet up to N + 1, so size the histogram
  // for the worst round once instead of per round.
  std::span<uint32_t> Cnt = A.allocSpan<uint32_t>(N + 2);

  // Seed: counting sort of the single-symbol ranks.
  std::fill(Cnt.begin(), Cnt.begin() + Alphabet, 0);
  for (uint32_t I = 0; I < N; ++I)
    ++Cnt[Rank[I]];
  uint32_t Sum = 0;
  for (uint32_t C = 0; C < Alphabet; ++C) {
    uint32_t T = Cnt[C];
    Cnt[C] = Sum;
    Sum += T;
  }
  for (uint32_t I = 0; I < N; ++I)
    Sa[Cnt[Rank[I]]++] = I;

  for (uint32_t K = 1; K < N; K *= 2) {
    // Order by the second key (Rank[I + K], out-of-range smallest):
    // positions I >= N - K have no second key and come first; the rest
    // follow in the current suffix-array order, shifted by K. This keeps
    // the sort stable in the second key, so the subsequent counting sort
    // by the first key yields the (first, second) lexicographic order.
    uint32_t P = 0;
    for (uint32_t I = N - K; I < N; ++I)
      Tmp[P++] = I;
    for (uint32_t I = 0; I < N; ++I)
      if (Sa[I] >= K)
        Tmp[P++] = Sa[I] - K;
    // Stable counting sort by the first key.
    std::fill(Cnt.begin(), Cnt.begin() + Alphabet, 0);
    for (uint32_t I = 0; I < N; ++I)
      ++Cnt[Rank[I]];
    Sum = 0;
    for (uint32_t C = 0; C < Alphabet; ++C) {
      uint32_t T = Cnt[C];
      Cnt[C] = Sum;
      Sum += T;
    }
    for (uint32_t I = 0; I < N; ++I)
      Sa[Cnt[Rank[Tmp[I]]]++] = Tmp[I];
    // Re-rank: adjacent rows with equal (first, second) keys share a rank.
    auto Second = [&](uint32_t S) { return S + K < N ? Rank[S + K] + 1 : 0; };
    NewRank[Sa[0]] = 0;
    uint32_t R = 0;
    for (uint32_t I = 1; I < N; ++I) {
      uint32_t A2 = Sa[I - 1], B = Sa[I];
      R += !(Rank[A2] == Rank[B] && Second(A2) == Second(B));
      NewRank[B] = R;
    }
    std::swap(Rank, NewRank); // Span handles, not contents: O(1).
    Alphabet = R + 2;
    if (R == N - 1)
      break;
  }
}

/// Symbol count below which prefix doubling always wins: each round is a
/// handful of linear passes over tiny arrays, while SA-IS pays its
/// type-classification, bucket and recursion setup regardless of n.
/// BENCH_build_time's sais_speedup of 0.617 at scale 2 is exactly this
/// regime.
constexpr uint32_t SaIsMinSymbols = 1u << 15;

/// Hybrid backend pick. A pure function of the compacted ranks, so the
/// choice is deterministic per text: symbol-count threshold first, then a
/// strided bigram repeat-density probe — repeat-poor text resolves all
/// rank ties within a few doubling rounds, which the O(n) construction
/// cannot beat in practice. Either backend yields the same bits (the
/// suffix array with a unique smallest sentinel is unique), so a wrong
/// guess costs only wall clock.
SaBackend chooseBackend(std::span<const uint32_t> Rank, uint32_t n) {
  if (n < SaIsMinSymbols)
    return SaBackend::PrefixDoubling;
  const uint32_t Want = 1024;
  const uint32_t Stride = std::max<uint32_t>(1, (n - 1) / Want);
  std::vector<uint64_t> Keys;
  Keys.reserve(Want + 1);
  for (uint32_t I = 0; I + 1 < n; I += Stride)
    Keys.push_back((uint64_t(Rank[I]) << 32) | Rank[I + 1]);
  std::sort(Keys.begin(), Keys.end());
  std::size_t Dups = 0;
  for (std::size_t I = 1; I < Keys.size(); ++I)
    Dups += Keys[I] == Keys[I - 1];
  // A quarter of sampled bigrams repeating marks the corpus repeat-heavy
  // enough for the doubling rounds to run deep.
  return Dups * 4 >= Keys.size() ? SaBackend::SaIs
                                 : SaBackend::PrefixDoubling;
}

} // namespace

const char *st::saBackendName(SaBackend B) {
  switch (B) {
  case SaBackend::SaIs:
    return "sa_is";
  case SaBackend::PrefixDoubling:
    return "prefix_doubling";
  }
  return "unknown";
}

SuffixArray::SuffixArray(std::vector<Symbol> Text, support::Arena *Scratch)
    : Owned(std::move(Text)), View(Owned), TextLen(Owned.size()) {
  build(Scratch);
}

SuffixArray::SuffixArray(std::span<const Symbol> Text, support::Arena *Scratch)
    : View(Text), TextLen(Text.size()) {
  build(Scratch);
}

void SuffixArray::build(support::Arena *Scratch) {
  const uint32_t n = static_cast<uint32_t>(TextLen);
  const uint32_t N = n + 1; // Plus the virtual sentinel position n.

  support::Arena Local;
  support::Arena &A = Scratch ? *Scratch : Local;

  uint32_t Alphabet = 0;
  std::span<uint32_t> Rank = compactRanks(View, Alphabet, A);

  // Construction over the dense ranks via the hybrid auto-pick: SA-IS
  // (O(n), no doubling rounds) on large repeat-heavy text, radix prefix
  // doubling (O(n log n) but with a tiny constant and shallow rounds) on
  // small or repeat-poor text. The suffix array of a text with a unique
  // smallest sentinel is unique, so both backends are bit-identical —
  // the pick can only change the construction wall clock. Neither backend
  // writes Rank, and the arena only grows during construction, so the
  // span stays valid for Kasai below.
  Backend = chooseBackend(Rank, n);
  Sa.resize(N);
  if (Backend == SaBackend::SaIs)
    saIs(Rank.data(), N, Alphabet, Sa.data(), A);
  else
    prefixDoubleFromRanks(Rank.data(), N, Alphabet, Sa.data(), A);

  // Kasai's LCP: Lcp[I] = lcp(SA[I-1], SA[I]); Lcp[0] = 0. Comparing the
  // initial dense ranks is exact: equal ranks iff equal symbols, and both
  // positions are < n (the sentinel suffix never has a positive LCP with
  // any neighbour — its rank is unique), so half the working set of a raw
  // 64-bit symbol scan. The array is construction scratch only: intervals
  // are enumerated right below and die with the arena.
  std::span<uint32_t> Lcp = A.allocSpan<uint32_t>(N);
  std::fill(Lcp.begin(), Lcp.end(), 0);
  {
    std::span<uint32_t> Inv = A.allocSpan<uint32_t>(N);
    for (uint32_t I = 0; I < N; ++I)
      Inv[Sa[I]] = I;
    uint32_t H = 0;
    for (uint32_t S = 0; S < N; ++S) {
      if (Inv[S] == 0) {
        H = 0;
        continue;
      }
      uint32_t Prev = Sa[Inv[S] - 1];
      while (S + H < n && Prev + H < n && Rank[S + H] == Rank[Prev + H])
        ++H;
      Lcp[Inv[S]] = H;
      if (H)
        --H;
    }
  }

  // Enumerate LCP intervals (a suffix tree's internal nodes) with the
  // classic stack sweep (Abouelhoda et al.).
  struct Open {
    uint32_t LcpVal;
    uint32_t Lo;
  };
  std::vector<Open> Stack;
  Stack.push_back({0, 0});
  for (uint32_t I = 1; I <= N; ++I) {
    uint32_t Cur = I < N ? Lcp[I] : 0;
    uint32_t Lo = I - 1;
    while (Stack.back().LcpVal > Cur) {
      Open Top = Stack.back();
      Stack.pop_back();
      // Interval [Top.Lo, I-1] with repeat length Top.LcpVal. Its parent
      // is either the enclosing interval still on the stack or the one
      // about to be opened with LCP value Cur, whichever is deeper.
      uint32_t ParentLen = std::max(Cur, Stack.back().LcpVal);
      Intervals.push_back({Top.Lo, I - 1, Top.LcpVal, ParentLen});
      Lo = Top.Lo;
    }
    if (Cur > Stack.back().LcpVal)
      Stack.push_back({Cur, Lo});
  }
}

void SuffixArray::forEachRepeat(
    uint32_t MinLen, uint32_t MaxLen, uint32_t MinCount,
    const std::function<void(const RepeatInfo &)> &Fn) const {
  assert(MinCount >= 2 && "a repeat needs at least two occurrences");
  for (std::size_t K = 0; K < Intervals.size(); ++K) {
    const Interval &IV = Intervals[K];
    uint32_t Count = IV.Hi - IV.Lo + 1;
    if (Count < MinCount || IV.Len < MinLen)
      continue;
    // Clamped-candidate dedup: the parent interval reports the same
    // length-MaxLen prefix over a superset of rows, so this interval would
    // be a duplicate.
    if (IV.ParentLen >= MaxLen)
      continue;
    RepeatInfo R;
    R.Node = static_cast<int32_t>(K);
    R.Length = IV.Len < MaxLen ? IV.Len : MaxLen;
    R.Count = Count;
    Fn(R);
  }
}

std::vector<uint32_t> SuffixArray::positionsOf(int32_t Interval) const {
  std::vector<uint32_t> Positions;
  positionsOf(Interval, Positions);
  return Positions;
}

void SuffixArray::positionsOf(int32_t Interval,
                              std::vector<uint32_t> &Out) const {
  const auto &IV = Intervals[static_cast<std::size_t>(Interval)];
  Out.assign(Sa.begin() + IV.Lo, Sa.begin() + IV.Hi + 1);
  std::sort(Out.begin(), Out.end());
}

uint32_t SuffixArray::firstPositionOf(int32_t Interval) const {
  const auto &IV = Intervals[static_cast<std::size_t>(Interval)];
  uint32_t Min = Sa[IV.Lo];
  for (uint32_t Row = IV.Lo + 1; Row <= IV.Hi; ++Row)
    Min = std::min(Min, Sa[Row]);
  return Min;
}

std::size_t SuffixArray::workingSetBytes() const {
  // Viewed text counts like owned text while the view is live — the caller's
  // storage is resident on this array's behalf — and drops to zero after
  // releaseWorkingSet().
  std::size_t TextBytes = Owned.empty() ? View.size() * sizeof(Symbol)
                                        : Owned.capacity() * sizeof(Symbol);
  return TextBytes + Sa.capacity() * sizeof(uint32_t) +
         Intervals.capacity() * sizeof(Interval);
}

void SuffixArray::releaseWorkingSet() {
  std::vector<Symbol>().swap(Owned);
  View = {};
}

std::vector<uint32_t>
st::prefixDoublingSuffixArray(const std::vector<Symbol> &Text) {
  const uint32_t N = static_cast<uint32_t>(Text.size()) + 1;

  // Prefix doubling over dense ranks with counting (radix) sorts: O(n) per
  // round, O(log n) rounds, O(n log n) total. This was the production
  // construction before SA-IS; it survives as the differential oracle and
  // as one leg of the hybrid auto-pick (same helper, so oracle and
  // production path cannot drift apart).
  support::Arena A;
  uint32_t Alphabet = 0;
  std::span<uint32_t> Rank0 = compactRanks(Text, Alphabet, A);
  std::vector<uint32_t> Sa(N);
  prefixDoubleFromRanks(Rank0.data(), N, Alphabet, Sa.data(), A);
  return Sa;
}
