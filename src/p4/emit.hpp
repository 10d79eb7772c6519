// P4 backend: renders a compiled Lucid program as Tofino-style P4_16.
//
// The emitted program mirrors what the paper's compiler produces:
//   - one header per event (the event wire format) plus the Lucid event
//     metadata header (event id, delay, location, multicast flag);
//   - a parser state machine keyed on the event id;
//   - one RegisterAction per distinct (array, access kind, memops) combo —
//     the paper's Fig 7 "memory operation table" payloads;
//   - actions and tables for every merged table in the optimized layout,
//     with const entries for the inlined guard rules (Fig 7/8);
//   - the inlined event-scheduler blocks (serializer, dispatcher, delay
//     queue control) as static egress/ingress code (section 3.2);
//   - a deparser.
//
// Every emitted line is tagged with a category so the Figure 9/10 LoC
// metrics (P4 breakdown: headers / parsers / actions / register actions /
// tables / other) can be reproduced mechanically.
#pragma once

#include <map>
#include <string>

#include "core/driver.hpp"

namespace lucid::p4 {

enum class LineCategory {
  Header,
  Parser,
  Action,
  RegisterAction,
  Table,
  Control,   // pipeline glue, scheduler blocks, deparser
  Other,     // includes, typedefs, struct decls
};

[[nodiscard]] std::string_view category_name(LineCategory c);

struct P4Program {
  std::string text;
  std::map<LineCategory, std::size_t> loc_by_category;

  [[nodiscard]] std::size_t total_loc() const {
    std::size_t n = 0;
    for (const auto& [c, v] : loc_by_category) n += v;
    return n;
  }
};

/// Emits from a driver Compilation (Layout stage must have succeeded).
[[nodiscard]] P4Program emit(const Compilation& comp,
                             std::string_view program_name);

/// Registers the "p4" backend with `registry`; false if already present.
bool register_backend(BackendRegistry& registry);

}  // namespace lucid::p4
