#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "support/json.hpp"

namespace lucid::obs {

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (0-based), then walk the buckets.
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(n - 1));
  std::uint64_t seen = 0;
  for (int k = 0; k < kBuckets; ++k) {
    const std::uint64_t c = bucket_count(k);
    if (c == 0) continue;
    if (seen + c > rank) {
      // Linear interpolation inside [lo, hi] by the rank's position within
      // this bucket's observations.
      const double lo = k == 0 ? 0.0
                               : static_cast<double>(bucket_upper(k - 1)) + 1;
      const double hi = static_cast<double>(bucket_upper(k));
      const double frac = c == 1 ? 0.0
                                 : static_cast<double>(rank - seen) /
                                       static_cast<double>(c - 1);
      double est = lo + (hi - lo) * frac;
      // The exact extrema bound the estimate.
      est = std::min(est, static_cast<double>(max()));
      est = std::max(est, static_cast<double>(min()));
      return est;
    }
    seen += c;
  }
  return static_cast<double>(max());
}

void Histogram::merge(const LocalHistogram& local) {
  if (local.count == 0) return;
  for (int k = 0; k < kBuckets; ++k) {
    const std::uint64_t c = local.buckets[k];
    if (c != 0) {
      buckets_[static_cast<std::size_t>(k)].fetch_add(
          c, std::memory_order_relaxed);
    }
  }
  count_.fetch_add(local.count, std::memory_order_relaxed);
  sum_.fetch_add(local.sum, std::memory_order_relaxed);
  atomic_min(min_, local.min);
  atomic_max(max_, local.max);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: outlives static teardown
  return *r;
}

std::string Registry::sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9' && !out.empty()) || c == '_' ||
                    c == ':';
    out += ok ? c : '_';
  }
  if (out.empty()) out = "_";
  return out;
}

std::string Registry::render_labels(const Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ',';
    out += sanitize(k);
    out += "=\"";
    // Prometheus label-value escaping: backslash, quote, newline.
    for (const char c : v) {
      if (c == '\\' || c == '"') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += '"';
  }
  return out;
}

Registry::Entry& Registry::entry_for(std::string_view name,
                                     const Labels* labels,
                                     std::string_view help) {
  // Callers hold mu_.
  const std::string family = sanitize(name);
  std::string rendered;
  if (labels != nullptr && !labels->empty()) {
    rendered = render_labels(*labels);
  }
  std::string key = family;
  if (!rendered.empty()) key += "{" + rendered + "}";
  Entry& e = entries_[key];
  if (e.family.empty()) {
    e.family = family;
    e.labels = std::move(rendered);
  }
  if (e.help.empty()) e.help = std::string(help);
  return e;
}

Counter& Registry::counter(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry& e = entry_for(name, nullptr, help);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry& e = entry_for(name, nullptr, help);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry& e = entry_for(name, nullptr, help);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>();
  return *e.histogram;
}

Counter& Registry::counter(std::string_view name, const Labels& labels,
                           std::string_view help) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry& e = entry_for(name, &labels, help);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(std::string_view name, const Labels& labels,
                       std::string_view help) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry& e = entry_for(name, &labels, help);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(std::string_view name, const Labels& labels,
                               std::string_view help) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry& e = entry_for(name, &labels, help);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>();
  return *e.histogram;
}

std::string Registry::json() const {
  std::lock_guard<std::mutex> lk(mu_);
  support::JsonWriter j;
  j.obj_open();
  j.obj_open("counters");
  for (const auto& [name, e] : entries_) {
    if (e.counter) j.field(name, e.counter->value());
  }
  j.obj_close();
  j.obj_open("gauges");
  for (const auto& [name, e] : entries_) {
    if (e.gauge) j.field(name, e.gauge->value());
  }
  j.obj_close();
  j.obj_open("histograms");
  for (const auto& [name, e] : entries_) {
    if (!e.histogram) continue;
    const Histogram& h = *e.histogram;
    j.obj_open(name)
        .field("count", h.count())
        .field("sum", h.sum())
        .field("mean", h.mean());
    if (h.count() > 0) {
      j.field("min", h.min())
          .field("max", h.max())
          .field("p50", h.quantile(0.50))
          .field("p99", h.quantile(0.99));
    }
    // Sparse buckets: [le_inclusive, count] pairs for non-empty buckets.
    j.arr_open("buckets");
    for (int k = 0; k < Histogram::kBuckets; ++k) {
      const std::uint64_t c = h.bucket_count(k);
      if (c == 0) continue;
      j.arr_open().item(Histogram::bucket_upper(k)).item(c).arr_close();
    }
    j.arr_close().obj_close();
  }
  j.obj_close();
  j.obj_close();
  return j.str() + "\n";
}

std::string Registry::prometheus() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Group series by family: the key-sorted map can interleave families
  // ("foo_bar" sorts between "foo" and "foo{shard=...}"), but the exposition
  // format wants one HELP/TYPE block with every series of a family under it.
  std::map<std::string, std::vector<const Entry*>> families;
  for (const auto& [key, e] : entries_) {
    (void)key;
    families[e.family].push_back(&e);
  }
  std::ostringstream os;
  os.precision(17);
  for (const auto& [family, series] : families) {
    // Full sample name: family plus the series' label set.
    auto sample = [&](const Entry& e, const char* suffix,
                      const std::string& extra_label) -> std::ostream& {
      os << family << suffix;
      if (!e.labels.empty() || !extra_label.empty()) {
        os << '{' << e.labels;
        if (!e.labels.empty() && !extra_label.empty()) os << ',';
        os << extra_label << '}';
      }
      return os << ' ';
    };
    for (const Entry* e : series) {
      if (!e->help.empty()) {
        os << "# HELP " << family << " " << e->help << "\n";
        break;
      }
    }
    for (const char* kind : {"counter", "gauge", "histogram"}) {
      bool typed = false;
      for (const Entry* e : series) {
        const bool has = (kind[0] == 'c' && e->counter) ||
                         (kind[0] == 'g' && e->gauge) ||
                         (kind[0] == 'h' && e->histogram);
        if (!has) continue;
        if (!typed) {
          os << "# TYPE " << family << " " << kind << "\n";
          typed = true;
        }
        if (kind[0] == 'c') {
          sample(*e, "", "") << e->counter->value() << "\n";
        } else if (kind[0] == 'g') {
          sample(*e, "", "") << e->gauge->value() << "\n";
        } else {
          const Histogram& h = *e->histogram;
          std::uint64_t cum = 0;
          for (int k = 0; k < Histogram::kBuckets; ++k) {
            cum += h.bucket_count(k);
            // Only emit the populated prefix plus a closing bucket per power
            // of two actually reached — all 65 rows for every histogram
            // would dominate the exposition. Always emit le="0" and the last
            // bucket before +Inf so the cumulative series is well formed.
            if (h.bucket_count(k) != 0 || k == 0) {
              sample(*e, "_bucket",
                     "le=\"" + std::to_string(Histogram::bucket_upper(k)) +
                         "\"")
                  << cum << "\n";
            }
          }
          sample(*e, "_bucket", "le=\"+Inf\"") << h.count() << "\n";
          sample(*e, "_sum", "") << h.sum() << "\n";
          sample(*e, "_count", "") << h.count() << "\n";
        }
      }
    }
  }
  return os.str();
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, e] : entries_) {
    if (e.counter) e.counter->reset();
    if (e.gauge) e.gauge->reset();
    if (e.histogram) e.histogram->reset();
  }
}

}  // namespace lucid::obs
