#include "native/jit.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

extern char** environ;

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

/// Runs `args` (args[0] looked up on PATH) with stderr sent to `err_file`
/// and returns its exit status, or -1 when it could not be started or did
/// not exit normally. No shell: every path reaches the compiler verbatim.
int run_compiler(const std::vector<std::string>& args,
                 const std::string& err_file) {
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                     err_file.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0600);
  pid_t pid = 0;
  const int rc =
      ::posix_spawnp(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return -1;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
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
  static obs::Histogram& compile_us_hist = obs::Registry::global().histogram(
      "lucid_native_jit_compile_us",
      "Microseconds in the external compiler per native module compile");
  static obs::Counter& hits = obs::Registry::global().counter(
      "lucid_native_jit_cache_hits_total",
      "Native module loads served by the process-wide module cache");
  static obs::Counter& misses = obs::Registry::global().counter(
      "lucid_native_jit_cache_misses_total",
      "Native module loads that ran the compiler");
  static obs::Counter& failures = obs::Registry::global().counter(
      "lucid_native_jit_failures_total",
      "Native module loads that failed (write, compile, dlopen, ABI)");
  const std::uint64_t key = source_hash(source);
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  if (const auto it = c.modules.find(key); it != c.modules.end()) {
    hits.add();
    return it->second;
  }
  misses.add();
  auto fail = [&](std::string why) -> std::shared_ptr<Module> {
    failures.add();
    if (error != nullptr) *error = std::move(why);
    return nullptr;
  };

  const std::string dir = work_dir();
  if (::mkdir(dir.c_str(), 0700) != 0 && errno != EEXIST) {
    return fail("cannot create " + dir);
  }
  const std::string stem = dir + "/mod-" + std::to_string(key);
  const std::string cpp = stem + ".cpp";
  const std::string so = stem + ".so";
  const std::string err_file = stem + ".err";

  {
    std::ofstream out(cpp);
    if (!out) return fail("cannot write " + cpp);
    out << source;
  }

  // This is a host JIT: tune for the machine we are running on. Not every
  // toolchain accepts -march=native (e.g. some cross setups), so fall back
  // to plain -O3 when the first attempt fails. The module calls no library
  // function, so it links against nothing (-nostdlib); should the compiler
  // ever emit a memset, dlopen(RTLD_NOW) binds it to the host's libc or
  // fails the load.
  auto compile = [&](bool native_arch) {
    std::vector<std::string> args = {compiler(), "-O3"};
    if (native_arch) args.emplace_back("-march=native");
    args.insert(args.end(), {"-fPIC", "-shared", "-nostdlib", "-std=c++17",
                             "-o", so, cpp});
    return run_compiler(args, err_file);
  };
  const auto t0 = std::chrono::steady_clock::now();
  int rc = compile(true);
  if (rc != 0) rc = compile(false);
  const auto t1 = std::chrono::steady_clock::now();
  const auto compile_us =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();
  compile_us_hist.observe(static_cast<std::uint64_t>(compile_us));
  if (rc != 0) {
    return fail("native module compile failed (rc=" + std::to_string(rc) +
                "): " + read_file(err_file));
  }

  void* handle = ::dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* why = ::dlerror();
    return fail(std::string("dlopen failed: ") + (why ? why : "?"));
  }
  auto close_and_fail = [&](std::string why) {
    ::dlclose(handle);
    return fail(std::move(why));
  };
  const auto abi_fn =
      reinterpret_cast<AbiVersionFn>(::dlsym(handle, kSymAbiVersion));
  const auto gens_fn =
      reinterpret_cast<MaxGensFn>(::dlsym(handle, kSymMaxGens));
  const auto batch_fn =
      reinterpret_cast<RunBatchFn>(::dlsym(handle, kSymRunBatch));
  const char* missing = abi_fn == nullptr    ? kSymAbiVersion
                        : gens_fn == nullptr  ? kSymMaxGens
                        : batch_fn == nullptr ? kSymRunBatch
                                              : nullptr;
  if (missing != nullptr) {
    return close_and_fail(std::string("missing symbol ") + missing);
  }
  if (abi_fn() != kAbiVersion) {
    return close_and_fail("ABI version mismatch: module " +
                          std::to_string(abi_fn()) + ", host " +
                          std::to_string(kAbiVersion));
  }

  auto mod = std::shared_ptr<Module>(new Module());
  mod->handle_ = handle;
  mod->run_batch_ = batch_fn;
  mod->max_gens_ = gens_fn();
  mod->compile_ms_ = static_cast<double>(compile_us) / 1000.0;
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
