#include "native/jit.hpp"

#include "native/emit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string_view>
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

/// FNV-1a over `s`, continued from `h`: the cache keys. Collisions would
/// require two distinct texts in one process hashing alike — acceptable for
/// a cache whose worst failure is reusing code with identical entry symbols.
std::uint64_t fnv1a(std::string_view s,
                    std::uint64_t h = 14695981039346656037ull) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
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

/// Compiles translation unit `tu` to a shared object, dlopens it and checks
/// its ABI version. The files live in a fresh private directory that is
/// removed, with them, before returning: a loaded object stays mapped after
/// its file is unlinked, and a failed compile's stderr is read first.
/// Returns the handle, or nullptr with `why` filled. `compile_us` is set
/// when the compiler ran, and left alone otherwise.
void* compile_object(const std::string& tu, std::int64_t* compile_us,
                     std::string* why) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = (base != nullptr && *base != '\0') ? base : "/tmp";
  if (dir.back() == '/') dir.pop_back();
  dir += "/lucid-native-" + std::to_string(::getpid()) + "-XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    *why = "cannot create " + dir;
    return nullptr;
  }
  // Object paths never repeat in a process, so dlopen cannot mistake a new
  // object for a loaded one of the same name.
  static std::atomic<std::uint64_t> next_object{0};
  struct Scratch {
    std::string dir;
    std::string stem;
    ~Scratch() {
      for (const char* ext : {".cpp", ".so", ".err"}) {
        ::unlink((stem + ext).c_str());
      }
      ::rmdir(dir.c_str());
    }
  } scratch{dir, dir + "/unit-" + std::to_string(next_object++)};
  const std::string cpp = scratch.stem + ".cpp";
  const std::string so = scratch.stem + ".so";
  const std::string err_file = scratch.stem + ".err";

  {
    std::ofstream out(cpp);
    out << tu;
    if (!out.flush()) {
      *why = "cannot write " + cpp;
      return nullptr;
    }
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
  *compile_us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  if (rc != 0) {
    *why = "native module compile failed (rc=" + std::to_string(rc) +
           "): " + read_file(err_file);
    return nullptr;
  }

  void* handle = ::dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* err = ::dlerror();
    *why = std::string("dlopen failed: ") + (err ? err : "?");
    return nullptr;
  }
  const auto abi_fn =
      reinterpret_cast<AbiVersionFn>(::dlsym(handle, kSymAbiVersion));
  if (abi_fn == nullptr) {
    *why = std::string("missing symbol ") + kSymAbiVersion;
  } else if (abi_fn() != kAbiVersion) {
    *why = "ABI version mismatch: module " + std::to_string(abi_fn()) +
           ", host " + std::to_string(kAbiVersion);
  } else {
    return handle;
  }
  ::dlclose(handle);
  return nullptr;
}

/// A unit some load has claimed. `done` turns true once its compile ended;
/// then a non-empty `error` means it failed (and the slot has left the
/// cache, so a later load retries). Guarded by Cache::mu.
struct UnitSlot {
  bool done = false;
  EventFn entry = nullptr;  // null for a prelude-only unit
  std::string error;
};

struct Cache {
  std::mutex mu;
  std::condition_variable unit_done;
  std::map<std::uint64_t, std::shared_ptr<Module>> modules;
  std::map<std::uint64_t, std::shared_ptr<UnitSlot>> units;
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
      "Native module loads the module cache could not serve");
  static obs::Counter& failures = obs::Registry::global().counter(
      "lucid_native_jit_failures_total",
      "Native module loads that failed (write, compile, dlopen, ABI)");
  static obs::Counter& units_compiled = obs::Registry::global().counter(
      "lucid_native_jit_units_compiled_total",
      "Handler units compiled by native module loads");
  static obs::Counter& units_reused = obs::Registry::global().counter(
      "lucid_native_jit_units_reused_total",
      "Handler units native module loads took from the unit cache");
  const std::uint64_t key = fnv1a(source);
  Cache& c = cache();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    if (const auto it = c.modules.find(key); it != c.modules.end()) {
      hits.add();
      return it->second;
    }
  }
  misses.add();
  auto fail = [&](std::string why) -> std::shared_ptr<Module> {
    failures.add();
    if (error != nullptr) *error = std::move(why);
    return nullptr;
  };

  ModuleUnits split = split_units(source);
  // Text with no unit (a program without handlers, or not a module at all)
  // still compiles once, as the prelude alone, so it is checked like any
  // other module.
  if (split.units.empty()) split.units.emplace_back();
  for (const ModuleUnit& unit : split.units) {
    if (unit.event_id < 0 && !unit.text.empty()) {
      return fail("malformed native unit header");
    }
  }

  // Claim every unit that no load has compiled or is compiling.
  const std::uint64_t prelude_key = fnv1a(split.prelude);
  std::vector<std::uint64_t> keys;
  std::vector<std::shared_ptr<UnitSlot>> slots;
  std::vector<std::size_t> mine;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    for (std::size_t i = 0; i < split.units.size(); ++i) {
      keys.push_back(fnv1a(split.units[i].text, prelude_key));
      std::shared_ptr<UnitSlot>& slot = c.units[keys.back()];
      if (slot == nullptr) {
        slot = std::make_shared<UnitSlot>();
        mine.push_back(i);
      }
      slots.push_back(slot);
    }
  }

  // Compile the claimed units together, outside the lock.
  std::int64_t compile_us = 0;
  if (!mine.empty()) {
    std::string tu(split.prelude);
    for (const std::size_t i : mine) tu += split.units[i].text;
    std::string why;
    std::int64_t us = -1;
    void* handle = compile_object(tu, &us, &why);
    if (us >= 0) {
      compile_us = us;
      compile_us_hist.observe(static_cast<std::uint64_t>(us));
    }
    std::vector<EventFn> entries(mine.size(), nullptr);
    for (std::size_t j = 0; handle != nullptr && j < mine.size(); ++j) {
      const int id = split.units[mine[j]].event_id;
      if (id < 0) continue;
      const std::string sym = kSymEventPrefix + std::to_string(id);
      entries[j] = reinterpret_cast<EventFn>(::dlsym(handle, sym.c_str()));
      if (entries[j] == nullptr) {
        why = "missing symbol " + sym;
        ::dlclose(handle);
        handle = nullptr;
      }
    }
    {
      std::lock_guard<std::mutex> lock(c.mu);
      for (std::size_t j = 0; j < mine.size(); ++j) {
        UnitSlot& slot = *slots[mine[j]];
        slot.done = true;
        if (why.empty()) {
          slot.entry = entries[j];
        } else {
          slot.error = why;
          c.units.erase(keys[mine[j]]);
        }
      }
    }
    c.unit_done.notify_all();
    if (!why.empty()) return fail(why);
    units_compiled.add(mine.size());
  }

  // Wait for the units other loads are compiling, then build the table.
  auto mod = std::shared_ptr<Module>(new Module());
  mod->compile_ms_ = static_cast<double>(compile_us) / 1000.0;
  std::string why;
  {
    std::unique_lock<std::mutex> lock(c.mu);
    c.unit_done.wait(lock, [&slots] {
      return std::all_of(slots.begin(), slots.end(),
                         [](const auto& s) { return s->done; });
    });
    for (std::size_t i = 0; i < slots.size() && why.empty(); ++i) {
      const ModuleUnit& unit = split.units[i];
      why = slots[i]->error;
      if (unit.event_id < 0) continue;
      const auto id = static_cast<std::size_t>(unit.event_id);
      if (mod->entries_.size() <= id) mod->entries_.resize(id + 1, nullptr);
      mod->entries_[id] = slots[i]->entry;
      mod->max_gens_ = std::max(mod->max_gens_, unit.gen_sites);
    }
    if (why.empty()) {
      units_reused.add(split.units.size() - mine.size());
      // Concurrent loads of one text all return the first module published.
      return c.modules.emplace(key, mod).first->second;
    }
  }
  return fail(why);
}

void Module::run_batch_raw(std::int64_t* const* arrays, const PacketIn* in,
                           std::int32_t n, GenOut* out,
                           std::int32_t* gen_counts) const {
  const auto stride =
      static_cast<std::size_t>(std::max<std::int32_t>(max_gens_, 1));
  for (std::int32_t i = 0; i < n; ++i) {
    gen_counts[i] =
        run_one(arrays, in[i], out + static_cast<std::size_t>(i) * stride);
  }
}

void Module::run_batch(std::int64_t* const* arrays, const PacketIn* in,
                       std::int32_t n, GenOut* out,
                       std::int32_t* gen_counts) const {
  run_batch_raw(arrays, in, n, out, gen_counts);
  // Batch-boundary instrumentation only: two relaxed atomic RMWs and one
  // histogram observation per *batch*; the per-packet loop above runs
  // exactly as in the raw path. Instruments resolve once per process.
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
