// Stage-local SRAM register arrays and the stateful-ALU access discipline:
// one read-modify-write per packet pass, on a single cell (section 2.4), and
// the register file both engines hold: interp::Runtime and native::Replica
// each own one RegisterFile, in IR declaration order, so a control-plane
// write or a differential comparison addresses the same object in either.
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

  /// The cells, for byte comparisons between engines.
  [[nodiscard]] const std::vector<std::int64_t>& cells() const {
    return cells_;
  }
  /// Raw cell storage (size() cells, never reallocated): what a native
  /// module's `arrays` ABI argument points at.
  [[nodiscard]] std::int64_t* data() { return cells_.data(); }

 private:
  std::string name_;
  int width_ = 32;
  std::vector<std::int64_t> cells_;
};

/// A program's register state: one array per declared global, in
/// declaration order (index it through ir::ProgramIR::array_index).
using RegisterFile = std::vector<RegisterArray>;

/// The zeroed register file of `decls` (ir::ProgramIR::arrays).
template <class Decls>
[[nodiscard]] RegisterFile make_register_file(const Decls& decls) {
  RegisterFile file;
  file.reserve(decls.size());
  for (const auto& d : decls) file.emplace_back(d.name, d.width, d.size);
  return file;
}

/// One raw cell pointer per array of `file`, in order: the native module
/// ABI's view of a register file.
[[nodiscard]] inline std::vector<std::int64_t*> cell_pointers(
    RegisterFile& file) {
  std::vector<std::int64_t*> ptrs;
  ptrs.reserve(file.size());
  for (RegisterArray& a : file) ptrs.push_back(a.data());
  return ptrs;
}

}  // namespace lucid::pisa
