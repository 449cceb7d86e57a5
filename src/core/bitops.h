// Packed binary vectors/matrices and the XNOR-popcount kernels of Eq. (3).
//
// Encoding: bit 1 represents +1, bit 0 represents -1. For two {-1,+1}
// vectors a and w of length L,
//     dot(a, w) = 2 * popcount(XNOR(a, w)) - L,
// which is the arithmetic the paper's in-memory fabric executes (XNOR in the
// PCSA, popcount in shared logic). These kernels are the software-exact
// counterpart used for deployment-mode inference and as the golden reference
// for the hardware-mapped engine in src/arch.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace rrambnn::core {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::int64_t size);

  /// Packs a float vector by sign: v >= 0 -> +1 (bit 1), v < 0 -> -1.
  static BitVector FromSigns(std::span<const float> values);

  /// Packs a {-1,+1} integer vector.
  static BitVector FromPm1(std::span<const int> values);

  std::int64_t size() const { return size_; }

  /// Element i as +1/-1.
  int Get(std::int64_t i) const;
  void Set(std::int64_t i, int pm1);

  /// Flips element i.
  void Flip(std::int64_t i);

  /// Number of matching bits between two equal-length vectors:
  /// popcount(XNOR(a, b)).
  std::int64_t XnorPopcount(const BitVector& other) const;

  /// {-1,+1} dot product via XNOR-popcount.
  std::int64_t DotPm1(const BitVector& other) const {
    return 2 * XnorPopcount(other) - size_;
  }

  /// Number of +1 entries.
  std::int64_t CountOnes() const;

  /// Unpacks to a {-1,+1} integer vector.
  std::vector<int> ToPm1() const;

  const std::vector<std::uint64_t>& words() const { return words_; }

  bool operator==(const BitVector& other) const = default;

 private:
  friend class BitMatrix;
  void CheckIndex(std::int64_t i) const;
  /// Mask selecting the valid bits of the final word.
  std::uint64_t TailMask() const;

  std::int64_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Row-major packed binary matrix; each row is word-aligned.
///
/// Storage is copy-on-write over an optional borrowed source: a matrix
/// normally owns its words, but FromBorrowedWords builds one whose words
/// live elsewhere (an mmap-ed artifact), pinned by a keepalive shared_ptr.
/// Copies of a borrowed matrix share the borrow (pointer + refcount, no
/// word copy) — which is what makes backend-by-value model copies stay
/// zero-copy. Any mutation first materializes a private owned copy, so
/// borrowing is never observable through the API, only through borrowed().
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::int64_t rows, std::int64_t cols);

  /// Packs a float matrix (row-major, rows x cols) by sign.
  static BitMatrix FromSigns(std::span<const float> values, std::int64_t rows,
                             std::int64_t cols);

  /// Packs a batch of float feature rows by sign in one word-building pass —
  /// the deployment-path packer: builds each 64-bit word directly instead of
  /// setting bits one at a time, with a runtime-dispatched AVX2 kernel
  /// (cmp_ps + movemask) on x86-64. Both kernels produce identical bits;
  /// see SignPackKernelName / SetSignPackForceScalar. Bit semantics
  /// identical to FromSigns.
  static BitMatrix FromSignRows(std::span<const float> values,
                                std::int64_t rows, std::int64_t cols);

  /// Rebuilds a matrix from its packed words (the artifact loader's inverse
  /// of words()). `words` must hold rows * ceil(cols/64) entries with every
  /// padding bit of each row's final word zero; throws
  /// std::invalid_argument otherwise.
  static BitMatrix FromWords(std::int64_t rows, std::int64_t cols,
                             std::vector<std::uint64_t> words);

  /// Builds a matrix whose words are *borrowed* from `words` — zero copy.
  /// `keepalive` must own the memory behind `words` (a MappedArtifact or a
  /// decompressed chunk buffer) and keeps it alive for as long as this
  /// matrix or any copy of it borrows. Validation is identical to
  /// FromWords (word count, zero padding bits).
  static BitMatrix FromBorrowedWords(std::int64_t rows, std::int64_t cols,
                                     std::span<const std::uint64_t> words,
                                     std::shared_ptr<const void> keepalive);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }

  int Get(std::int64_t r, std::int64_t c) const;
  void Set(std::int64_t r, std::int64_t c, int pm1);
  void Flip(std::int64_t r, std::int64_t c);

  /// Flips every bit of a row (used to absorb negative BN gains so all
  /// neurons share the popcount >= threshold comparison).
  void FlipRow(std::int64_t r);

  /// XNOR-popcount of row r against x (x.size() must equal cols).
  std::int64_t RowXnorPopcount(std::int64_t r, const BitVector& x) const;

  /// {-1,+1} dot product of row r with x.
  std::int64_t RowDotPm1(std::int64_t r, const BitVector& x) const {
    return 2 * RowXnorPopcount(r, x) - cols_;
  }

  /// Row as a BitVector copy.
  BitVector Row(std::int64_t r) const;
  void SetRow(std::int64_t r, const BitVector& v);

  /// Copies row r into `out`, reusing out's storage when the width already
  /// matches (the allocation-free row extractor of the serving hot loop).
  void ExtractRow(std::int64_t r, BitVector& out) const;

  /// Copies rows [begin, end) into a new matrix of the same width.
  BitMatrix RowSlice(std::int64_t begin, std::int64_t end) const;

  /// 64-bit words of one packed row (padding bits are always zero).
  std::span<const std::uint64_t> RowWords(std::int64_t r) const;

  /// All packed words, row-major with word-aligned rows (serialization).
  std::span<const std::uint64_t> words() const {
    return {WordData(), static_cast<std::size_t>(rows_ * words_per_row_)};
  }

  std::int64_t words_per_row() const { return words_per_row_; }

  /// Total storage in bits (rows * cols; padding excluded).
  std::int64_t bits() const { return rows_ * cols_; }

  /// True while the words live in borrowed (mapped) memory.
  bool borrowed() const { return view_ != nullptr; }

  /// Forces a private owned copy of borrowed words (no-op when owned
  /// already). The explicit form of what any mutator does implicitly.
  void Materialize() { EnsureOwned(); }

  /// Value equality of shape and bits, regardless of where the words live.
  bool operator==(const BitMatrix& other) const;

 private:
  void CheckAddress(std::int64_t r, std::int64_t c) const;
  const std::uint64_t* WordData() const {
    return view_ != nullptr ? view_ : words_.data();
  }
  void EnsureOwned();

  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t words_per_row_ = 0;
  /// Owned storage; empty while borrowing.
  std::vector<std::uint64_t> words_;
  /// Borrowed storage (artifact mapping); null when owned.
  const std::uint64_t* view_ = nullptr;
  std::shared_ptr<const void> keepalive_;
};

/// Bits [bit, bit + len) of `words` as the low bits of a word; len in
/// [1, 64], bit + len must not exceed the array's bit capacity.
inline std::uint64_t ExtractField(const std::uint64_t* words, std::int64_t bit,
                                  int len) {
  const auto w = static_cast<std::size_t>(bit >> 6);
  const int off = static_cast<int>(bit & 63);
  std::uint64_t v = words[w] >> off;
  if (off + len > 64) v |= words[w + 1] << (64 - off);
  return v & (~std::uint64_t{0} >> (64 - len));
}

/// Appends bit fields to a word array from low to high bits, holding the
/// partial word in a register. Every bit past the last Put is zero once
/// Flush has written the partial word.
class BitWriter {
 public:
  explicit BitWriter(std::uint64_t* out) : out_(out) {}

  /// Appends the low `len` bits of `v`; len in [1, 64] and no higher bit of
  /// `v` may be set.
  void Put(std::uint64_t v, int len) {
    cur_ |= v << fill_;
    fill_ += len;
    if (fill_ >= 64) {
      *out_++ = cur_;
      fill_ -= 64;
      cur_ = fill_ != 0 ? v >> (len - fill_) : 0;
    }
  }

  void PutZeros(std::int64_t len) {
    for (; len > 0; len -= 64) Put(0, len < 64 ? static_cast<int>(len) : 64);
  }

  void Flush() {
    if (fill_ != 0) *out_++ = cur_;
    cur_ = 0;
    fill_ = 0;
  }

 private:
  std::uint64_t* out_;
  std::uint64_t cur_ = 0;
  int fill_ = 0;
};

/// Name of the sign-packing kernel the runtime dispatcher selected for
/// BitMatrix::FromSignRows ("avx2" or "scalar").
const char* SignPackKernelName();

/// Forces the scalar sign-packer regardless of CPU support
/// (tests/benchmarks compare the two). Returns the previous setting.
bool SetSignPackForceScalar(bool force);

}  // namespace rrambnn::core
