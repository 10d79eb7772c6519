#include "native/jit.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#ifndef LUCID_NATIVE_CXX_DEFAULT
#define LUCID_NATIVE_CXX_DEFAULT "c++"
#endif

namespace lucid::native {

namespace {

std::string compiler() {
  if (const char* env = std::getenv("LUCID_NATIVE_CXX")) return env;
  return LUCID_NATIVE_CXX_DEFAULT;
}

/// FNV-1a over the source text: the cache key. Collisions would require two
/// distinct programs in one process hashing alike — acceptable for a cache
/// whose worst failure is reusing a module with identical entry symbols.
std::uint64_t source_hash(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string work_dir() {
  const char* base = std::getenv("TMPDIR");
  std::string dir = (base != nullptr && *base != '\0') ? base : "/tmp";
  if (dir.back() == '/') dir.pop_back();
  dir += "/lucid-native-" + std::to_string(::getpid());
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Cache {
  std::mutex mu;
  std::map<std::uint64_t, std::shared_ptr<Module>> modules;
};

Cache& cache() {
  static Cache c;
  return c;
}

}  // namespace

std::shared_ptr<Module> Module::load(const std::string& source,
                                     std::string* error) {
  const std::uint64_t key = source_hash(source);
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  if (const auto it = c.modules.find(key); it != c.modules.end()) {
    return it->second;
  }

  const std::string dir = work_dir();
  std::system(("mkdir -p '" + dir + "'").c_str());
  const std::string stem = dir + "/mod-" + std::to_string(key);
  const std::string cpp = stem + ".cpp";
  const std::string so = stem + ".so";
  const std::string err_file = stem + ".err";

  {
    std::ofstream out(cpp);
    if (!out) {
      if (error != nullptr) *error = "cannot write " + cpp;
      return nullptr;
    }
    out << source;
  }

  // This is a host JIT: tune for the machine we are running on. Not every
  // toolchain accepts -march=native (e.g. some cross setups), so fall back
  // to plain -O3 when the first attempt fails.
  auto compile_cmd = [&](const std::string& extra) {
    return compiler() + " -O3 " + extra + "-fPIC -shared -std=c++17 -o '" +
           so + "' '" + cpp + "' 2> '" + err_file + "'";
  };
  const auto t0 = std::chrono::steady_clock::now();
  int rc = std::system(compile_cmd("-march=native ").c_str());
  if (rc != 0) rc = std::system(compile_cmd("").c_str());
  const auto t1 = std::chrono::steady_clock::now();
  if (rc != 0) {
    if (error != nullptr) {
      *error = "native module compile failed (rc=" + std::to_string(rc) +
               "): " + read_file(err_file);
    }
    return nullptr;
  }

  void* handle = ::dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    if (error != nullptr) {
      const char* why = ::dlerror();
      *error = std::string("dlopen failed: ") + (why ? why : "?");
    }
    return nullptr;
  }

  auto resolve = [&](const char* sym) -> void* {
    void* p = ::dlsym(handle, sym);
    if (p == nullptr && error != nullptr) {
      *error = std::string("missing symbol ") + sym;
    }
    return p;
  };
  const auto abi_fn =
      reinterpret_cast<AbiVersionFn>(resolve(kSymAbiVersion));
  const auto gens_fn = reinterpret_cast<MaxGensFn>(resolve(kSymMaxGens));
  const auto one_fn = reinterpret_cast<RunOneFn>(resolve(kSymRunOne));
  const auto batch_fn = reinterpret_cast<RunBatchFn>(resolve(kSymRunBatch));
  if (abi_fn == nullptr || gens_fn == nullptr || one_fn == nullptr ||
      batch_fn == nullptr) {
    ::dlclose(handle);
    return nullptr;
  }
  if (abi_fn() != kAbiVersion) {
    if (error != nullptr) {
      *error = "ABI version mismatch: module " + std::to_string(abi_fn()) +
               ", host " + std::to_string(kAbiVersion);
    }
    ::dlclose(handle);
    return nullptr;
  }

  auto mod = std::shared_ptr<Module>(new Module());
  mod->handle_ = handle;
  mod->run_one_ = one_fn;
  mod->run_batch_ = batch_fn;
  mod->max_gens_ = gens_fn();
  mod->compile_ms_ =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  c.modules[key] = mod;
  return mod;
}

void Module::run_batch(std::int64_t* const* arrays, const PacketIn* in,
                       std::int32_t n, GenOut* out,
                       std::int32_t* gen_counts) const {
  run_batch_(arrays, in, n, out, gen_counts);
  // Batch-boundary instrumentation only: two relaxed atomic RMWs and one
  // histogram observation per *batch*; the generated per-packet loop above
  // runs exactly as emitted. Instruments resolve once per process.
  static obs::Counter& packets = obs::Registry::global().counter(
      "lucid_native_packets_total",
      "Packets run through instrumented native batch calls");
  static obs::Counter& batches = obs::Registry::global().counter(
      "lucid_native_batches_total", "Instrumented native batch calls");
  static obs::Histogram& sizes = obs::Registry::global().histogram(
      "lucid_native_batch_size", "Packets per native run_batch call");
  packets.add(static_cast<std::uint64_t>(n));
  batches.add();
  sizes.observe(static_cast<std::uint64_t>(n));
  // Sampled instant per batch (one relaxed load when tracing is off) — the
  // hook bench_native drives at 1/256 sampling for its bounded-overhead
  // gate.
  obs::Tracer::global().mark("native", "batch", "n", n);
}

}  // namespace lucid::native
