//===- suffixtree/SuffixArray.h - SA+LCP repeat detection -------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LTBO's repeat detector: a suffix array with Kasai's LCP array,
/// enumerating repeated sequences as LCP intervals.
///
/// This is the redundancy-detection substrate of the paper (§2.1.2,
/// §3.3.2). The paper builds a suffix tree; the LCP intervals of a suffix
/// array correspond one-to-one to that tree's internal nodes, so the array
/// reports exactly the same repeats with the same occurrence sets, from a
/// smaller working set. The whole program's instruction stream is mapped
/// to a symbol sequence (instruction encodings, with every basic-block
/// terminator replaced by a globally unique separator symbol); every LCP
/// interval with >= 2 rows names a repeated sequence whose length is the
/// interval's LCP value and whose occurrences are the interval's suffixes.
/// Unique separators can never appear inside a repeated sequence, which
/// confines every candidate to a basic block exactly as §3.3.2 requires.
///
/// Construction is O(n): the sparse 64-bit alphabet is first compacted to
/// dense uint32 ranks (LSD radix sort of the symbols), then SA-IS (suffix
/// array by induced sorting, Nong/Zhang/Chan) builds the array in linear
/// time. The sentinel is a *virtual* position with a by-construction
/// unique smallest rank — no symbol value is reserved, so any uint64
/// sequence is legal input.
///
/// The suffix array of a text whose (virtual) sentinel is strictly smaller
/// than every other symbol is unique, so the SA-IS result is bit-identical
/// to what prefix doubling produces — detection output cannot shift with
/// the construction algorithm. prefixDoublingSuffixArray() keeps the
/// O(n log n) construction alive as the differential oracle the tests and
/// the build-time bench compare against.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_SUFFIXTREE_SUFFIXARRAY_H
#define CALIBRO_SUFFIXTREE_SUFFIXARRAY_H

#include "support/Arena.h"

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace calibro {
namespace st {

/// Sequence symbol. Instruction words occupy [0, 2^32); separator symbols
/// live above.
using Symbol = uint64_t;

/// First symbol value reserved for separators. Callers allocate unique
/// separators as SeparatorBase + counter.
inline constexpr Symbol SeparatorBase = uint64_t(1) << 32;

/// A repeated sequence found by SuffixArray::forEachRepeat.
struct RepeatInfo {
  int32_t Node;    ///< LCP-interval handle, usable with positionsOf().
  uint32_t Length; ///< Repeated-sequence length (clamped to MaxLen).
  uint32_t Count;  ///< Number of (possibly overlapping) occurrences.
};

/// Which algorithm constructed the raw suffix array. The suffix array of a
/// text with a unique smallest (virtual) sentinel is unique, so the choice
/// can never change the output — only the construction wall clock.
enum class SaBackend : uint8_t {
  SaIs,           ///< O(n) induced sorting; wins on large repeat-heavy text.
  PrefixDoubling, ///< O(n log n) radix doubling; wins on small/plain text.
};

/// Returns the identifier-style name of \p B.
const char *saBackendName(SaBackend B);

/// Suffix array + LCP over one symbol sequence, with repeat enumeration
/// over its LCP intervals.
///
/// Construction auto-picks its backend per text (hybrid): SA-IS's linear
/// time only pays off once the doubling round count grows, which needs
/// both scale and repeat density — BENCH_build_time measured SA-IS at
/// 0.617x doubling's speed on the small scale-2 corpus. The pick is a
/// pure function of the text (symbol count + a strided bigram
/// repeat-density probe), so it is deterministic, and the resulting array
/// is bit-identical either way.
class SuffixArray {
public:
  /// Builds the array in O(n): alphabet rank-compaction followed by SA-IS
  /// induced sorting, then Kasai's LCP and the LCP-interval sweep. Accepts
  /// any symbol values — the sentinel is virtual, nothing is reserved.
  ///
  /// \p Scratch optionally supplies the construction workspace (rank
  /// arrays, SA-IS type/bucket/recursion arrays, LCP scratch). Everything
  /// allocated from it is dead once the constructor returns — the caller
  /// may reset() the arena immediately afterwards. Null uses a private
  /// arena that is freed with the constructor frame.
  explicit SuffixArray(std::vector<Symbol> Text,
                       support::Arena *Scratch = nullptr);

  /// Same construction over a NON-OWNING view of \p Text — no private copy
  /// is made, so the symbols may live in an mmap'd image or an arena. The
  /// caller must keep the storage alive until releaseWorkingSet() (or
  /// destruction); afterwards the array no longer touches it. Output is
  /// byte-identical to the owning constructor's.
  explicit SuffixArray(std::span<const Symbol> Text,
                       support::Arena *Scratch = nullptr);

  /// Length of the original sequence. Valid even after
  /// releaseWorkingSet().
  std::size_t textSize() const { return TextLen; }

  /// The stored (or viewed) sequence. Invalid after releaseWorkingSet().
  std::span<const Symbol> text() const { return View; }

  /// Number of LCP intervals — the internal nodes of the corresponding
  /// suffix tree (its leaves are implicit in the array itself).
  std::size_t numNodes() const { return Intervals.size(); }

  /// Visits every LCP interval whose repeat length is >= \p MinLen with
  /// >= \p MinCount occurrences. The Node handle indexes the internal
  /// interval table. Lengths longer than \p MaxLen are reported clamped to
  /// MaxLen (the occurrence positions stay valid for the length-MaxLen
  /// prefix). Clamped candidates are deduplicated: an interval whose parent
  /// interval's LCP value is already >= MaxLen is skipped, because the
  /// parent reports the identical length-MaxLen prefix with a superset of
  /// the occurrence positions. Visit order is deterministic.
  void forEachRepeat(uint32_t MinLen, uint32_t MaxLen, uint32_t MinCount,
                     const std::function<void(const RepeatInfo &)> &Fn) const;

  /// Start positions of the repeat named by \p Interval, ascending.
  std::vector<uint32_t> positionsOf(int32_t Interval) const;

  /// Buffer-reusing variant: fills \p Out (cleared first) with the same
  /// ascending positions. Hot-path friendly — no allocation once \p Out has
  /// grown to the largest occurrence count.
  void positionsOf(int32_t Interval, std::vector<uint32_t> &Out) const;

  /// Earliest start position of the repeat named by \p Interval. O(count)
  /// with no copy and no sort — the selector's candidate ordering needs
  /// only this one value per candidate.
  uint32_t firstPositionOf(int32_t Interval) const;

  /// The construction algorithm the hybrid auto-pick chose for this text.
  SaBackend constructionBackend() const { return Backend; }

  /// The raw suffix array, including the virtual-sentinel row: textSize()+1
  /// entries, the first of which is always textSize() (the sentinel suffix
  /// sorts strictly smallest). Exposed for the construction differential
  /// tests and benches.
  std::span<const uint32_t> suffixArray() const {
    return std::span<const uint32_t>(Sa.data(), Sa.size());
  }

  /// Bytes held by the detection-relevant arrays right now (text — owned
  /// or viewed, suffix array, interval table; all construction scratch
  /// lives in the arena and is already dead). Shrinks after
  /// releaseWorkingSet(): the text contribution returns to zero.
  std::size_t workingSetBytes() const;

  /// Drops the stored text (frees it when owned, forgets the view when
  /// not). forEachRepeat/positionsOf/numNodes/textSize stay valid (they
  /// read only Sa and Intervals); text() does not. Call once repeat
  /// enumeration no longer needs the raw symbols.
  void releaseWorkingSet();

private:
  struct Interval {
    uint32_t Lo;        ///< First suffix-array row (inclusive).
    uint32_t Hi;        ///< Last suffix-array row (inclusive).
    uint32_t Len;       ///< Repeat length (the interval's LCP value).
    uint32_t ParentLen; ///< LCP value of the enclosing (parent) interval.
  };

  void build(support::Arena *Scratch);

  std::vector<Symbol> Owned;    ///< Backing storage of the owning ctor.
  std::span<const Symbol> View; ///< The sequence (owned or caller-owned).
  std::size_t TextLen = 0;
  SaBackend Backend = SaBackend::SaIs;
  std::vector<uint32_t> Sa;
  std::vector<Interval> Intervals;
};

/// Reference O(n log n) construction: the radix-sorted prefix doubling that
/// SA-IS replaced. Returns the full suffix array over \p Text plus the
/// virtual sentinel (size Text.size() + 1, row 0 is the sentinel suffix) —
/// directly comparable with SuffixArray::suffixArray(). Kept as the
/// differential oracle for the SA-IS fuzz tests and as the baseline the
/// build-time bench measures the linear construction against; not used on
/// any production path.
std::vector<uint32_t> prefixDoublingSuffixArray(const std::vector<Symbol> &Text);

} // namespace st
} // namespace calibro

#endif // CALIBRO_SUFFIXTREE_SUFFIXARRAY_H
