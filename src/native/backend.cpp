#include "native/backend.hpp"

#include <memory>

#include "native/emit.hpp"
#include "native/jit.hpp"

namespace lucid::native {

namespace {

class NativeBackend final : public Backend {
 public:
  [[nodiscard]] std::string name() const override { return "native"; }
  [[nodiscard]] std::string description() const override {
    return "JIT-compiled native execution engine (interp semantics, "
           "compiled to straight-line C++)";
  }
  [[nodiscard]] Stage required_stage() const override { return Stage::Layout; }

  [[nodiscard]] BackendArtifact emit(Compilation& comp) override {
    BackendArtifact artifact;
    artifact.backend = name();
    if (auto violation = check_envelope(comp)) {
      comp.diags().error({}, violation->code, violation->message);
      return artifact;
    }

    const EmittedModule m = emit_source(comp, comp.options().program_name);
    artifact.text = m.text;
    artifact.metrics["loc"] = m.loc;
    artifact.metrics["stages"] = m.stages;
    artifact.metrics["gen_sites"] = m.gen_sites;

    // Compile-and-load as a smoke test: a module the system compiler
    // rejects is an emitter bug worth a diagnostic, not a silent artifact.
    std::string err;
    const auto module = Module::load(m.text, &err);
    if (module == nullptr) {
      comp.diags().error({}, "native-jit-failed", err);
      return artifact;
    }
    artifact.metrics["compile_ms"] =
        static_cast<std::int64_t>(module->compile_ms());
    artifact.metrics["max_gens"] = module->max_gens();
    artifact.ok = true;
    return artifact;
  }
};

}  // namespace

bool register_backend(BackendRegistry& registry) {
  return registry.add(std::make_unique<NativeBackend>());
}

}  // namespace lucid::native
