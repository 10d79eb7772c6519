#include "interp/backend.hpp"

#include <memory>
#include <sstream>

#include "interp/runtime.hpp"

namespace lucid::interp {

namespace {

class InterpBackend final : public Backend {
 public:
  [[nodiscard]] std::string name() const override { return "interp"; }
  [[nodiscard]] std::string description() const override {
    return "binds the compilation to the event-driven interpreter";
  }
  // The interpreter executes the annotated AST with IR metadata (memops,
  // event ids, groups); it does not need the physical layout.
  [[nodiscard]] Stage required_stage() const override { return Stage::Lower; }

  [[nodiscard]] BackendArtifact emit(Compilation& comp) override {
    BackendArtifact artifact;
    artifact.backend = name();

    const auto& ir = comp.ir();
    const auto& ast = comp.ast();
    bool bindable = true;
    std::ostringstream os;
    os << "interp binding for " << comp.options().program_name << "\n";
    os << "  events:\n";
    for (const auto& ev : ir.events) {
      os << "    " << ev.name << " (id " << ev.event_id << ", "
         << ev.params.size() << " args)"
         << (ev.has_handler ? "" : "  [no handler]") << "\n";
    }
    os << "  arrays:\n";
    for (const auto& arr : ir.arrays) {
      os << "    " << arr.name << " : int<<" << arr.width << ">>["
         << arr.size << "]\n";
      if (arr.size <= 0) {
        comp.diags().error({}, "interp-bad-array",
                           "array '" + arr.name +
                               "' has non-positive size; cannot instantiate");
        bindable = false;
      }
    }
    if (!check_arity(comp)) bindable = false;
    artifact.metrics["events"] = static_cast<std::int64_t>(ir.events.size());
    artifact.metrics["arrays"] = static_cast<std::int64_t>(ir.arrays.size());
    artifact.metrics["handlers"] =
        static_cast<std::int64_t>(ast.handlers().size());
    artifact.metrics["memops"] = static_cast<std::int64_t>(ir.memops.size());
    os << (bindable ? "ready: construct interp::Runtime with this Compilation"
                    : "NOT bindable")
       << "\n";
    artifact.text = os.str();
    artifact.ok = bindable;
    return artifact;
  }
};

}  // namespace

bool register_backend(BackendRegistry& registry) {
  return registry.add(std::make_unique<InterpBackend>());
}

}  // namespace lucid::interp
