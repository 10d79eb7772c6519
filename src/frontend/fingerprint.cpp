#include "frontend/fingerprint.hpp"

#include <cstdio>

#include "frontend/printer.hpp"
#include "support/strings.hpp"

namespace lucid::frontend {

std::string_view decl_kind_name(DeclKind k) {
  switch (k) {
    case DeclKind::Const: return "const";
    case DeclKind::Global: return "global";
    case DeclKind::Memop: return "memop";
    case DeclKind::Fun: return "fun";
    case DeclKind::Event: return "event";
    case DeclKind::Handler: return "handler";
    case DeclKind::Group: return "group";
  }
  return "?";
}

namespace {

// Hashes "<kind>\x1f<name>\x1f" + the printed decl, built in `buf` so a
// caller fingerprinting many decls reuses one allocation.
DeclFingerprint fingerprint_into(std::string& buf, const Decl& d) {
  buf.clear();
  buf += decl_kind_name(d.kind);
  buf += '\x1f';
  buf += d.name;
  buf += '\x1f';
  append_decl(buf, d);
  return DeclFingerprint{d.kind, d.name, fnv1a64(buf)};
}

}  // namespace

DeclFingerprint fingerprint_decl(const Decl& d) {
  std::string buf;
  return fingerprint_into(buf, d);
}

std::vector<DeclFingerprint> fingerprint_program(const Program& p) {
  std::vector<DeclFingerprint> out;
  out.reserve(p.decls.size());
  std::string buf;
  for (const auto& d : p.decls) out.push_back(fingerprint_into(buf, *d));
  return out;
}

std::uint64_t structural_hash(const std::vector<DeclFingerprint>& fps) {
  // Fold the ordered sequence into one preimage; \x1e separates decls so
  // adjacent-decl boundaries cannot alias.
  std::string preimage;
  for (const DeclFingerprint& fp : fps) {
    preimage += decl_kind_name(fp.kind);
    preimage += '\x1f';
    preimage += fp.name;
    preimage += '\x1f';
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fp.hash));
    preimage += hex;
    preimage += '\x1e';
  }
  return fnv1a64(preimage);
}

std::uint64_t structural_hash(const Program& p) {
  return structural_hash(fingerprint_program(p));
}

}  // namespace lucid::frontend
