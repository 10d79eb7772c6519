// Stage-local SRAM register arrays and the stateful-ALU access discipline:
// one read-modify-write per packet pass, on a single cell (section 2.4).
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "support/bits.hpp"

namespace lucid::pisa {

/// The cell an index addresses in an array of `n` (> 0) cells: out-of-range
/// indexes wrap, negative ones from the end (hardware indexes are
/// width-masked; the apps always mask explicitly, this is the safety net).
[[nodiscard]] inline std::size_t wrap_index(std::int64_t index,
                                            std::size_t n) {
  assert(n != 0);
  const auto len = static_cast<std::int64_t>(n);
  std::int64_t i = index % len;
  if (i < 0) i += len;
  return static_cast<std::size_t>(i);
}

class RegisterArray {
 public:
  RegisterArray() = default;
  RegisterArray(std::string name, int width_bits, std::int64_t size)
      : name_(std::move(name)),
        width_(width_bits),
        cells_(static_cast<std::size_t>(size), 0) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] std::int64_t size() const {
    return static_cast<std::int64_t>(cells_.size());
  }

  /// Values are truncated to the cell width, like hardware SRAM words.
  [[nodiscard]] std::int64_t get(std::int64_t index) const {
    return cells_[clamp(index)];
  }
  void set(std::int64_t index, std::int64_t value) {
    cells_[clamp(index)] = mask(value);
  }

  /// The engines' one truncation rule (Sema keeps widths in 1..64).
  [[nodiscard]] std::int64_t mask(std::int64_t value) const {
    return support::mask_width(value, width_);
  }

  [[nodiscard]] std::size_t clamp(std::int64_t index) const {
    return wrap_index(index, cells_.size());
  }

  void fill(std::int64_t value) {
    for (auto& c : cells_) c = mask(value);
  }

  /// Raw cell storage, size() cells. The differential harness
  /// (src/native/differential.hpp) copies it out to compare the
  /// interpreter's state with a native replica's cells byte for byte.
  [[nodiscard]] const std::int64_t* data() const { return cells_.data(); }

 private:
  std::string name_;
  int width_ = 32;
  std::vector<std::int64_t> cells_;
};

}  // namespace lucid::pisa
