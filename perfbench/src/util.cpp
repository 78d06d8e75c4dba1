#include "util.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile `pct` among `n` sorted samples.
std::size_t nearest_rank(std::size_t n, double pct) {
  const auto rank = static_cast<std::size_t>(std::ceil(pct * static_cast<double>(n) / 100.0));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t samples_beyond(std::size_t n, double pct) { return n - nearest_rank(n, pct); }

}  // namespace

std::size_t min_samples_for(double pct) {
  if (!(pct > 0.0 && pct < 100.0)) throw std::invalid_argument("percentile out of (0, 100)");
  std::size_t n = 1;
  while (samples_beyond(n, pct) < 10) ++n;
  return n;
}

double highest_reportable(std::size_t n) {
  double best = 0.0;
  for (const double pct : {50.0, 90.0, 99.0, 99.9}) {
    if (n > 0 && samples_beyond(n, pct) >= 10) best = pct;
  }
  return best;
}

double percentile(std::vector<double> values, double pct) {
  if (values.size() < min_samples_for(pct)) {
    throw std::logic_error("p" + json_number(pct) + " needs " +
                           std::to_string(min_samples_for(pct)) + " samples, have " +
                           std::to_string(values.size()));
  }
  const std::size_t rank = nearest_rank(values.size(), pct);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median_of(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ------------------------------------------------------- label -> layer

namespace {

struct PrefixLayer {
  std::string_view prefix;
  std::string_view layer;
};

// Every prefix a scheduler label in src/ uses. A new prefix fails the
// benchmark's self-check until it is added here.
constexpr std::array<PrefixLayer, 7> kPrefixes{{
    {"phy", "phy"},
    {"mac", "mac"},
    {"tcp", "transport"},
    {"app", "app"},
    {"manet", "app"},  // the MANET scenario's CBR flow ticks
    {"fault", "faults"},
    {"obs", "obs"},
}};

}  // namespace

std::optional<std::string_view> layer_of(const char* label) {
  if (label == nullptr) return kUnlabeled;
  const std::string_view s{label};
  const std::size_t dot = s.find('.');
  if (dot == std::string_view::npos) return std::nullopt;
  const std::string_view prefix = s.substr(0, dot);
  for (const auto& [p, layer] : kPrefixes) {
    if (p == prefix) return layer;
  }
  return std::nullopt;
}

const std::vector<std::string_view>& event_layers() {
  static const std::vector<std::string_view> layers{"phy",    "mac", "transport", "app",
                                                     "faults", "obs", kUnlabeled};
  return layers;
}

// ----------------------------------------------------------- serve script

RequestScript::RequestScript(std::uint64_t seed) : state_(seed) {
  seed_base_ = 1 + splitmix64(state_) % 1'000'000'000ULL;
}

ScriptedSubmit RequestScript::next() {
  static constexpr std::array<const char*, 4> kGrids{"fig7", "fig9", "fig11", "fig12"};
  const std::size_t index = issued_++;
  if (index % kBlock == 0) {
    ScriptedSubmit s;
    s.cold_index = index / kBlock;
    s.grid = kGrids[splitmix64(state_) % kGrids.size()];
    // Seeds never repeat within a script, so a cold submit always misses.
    for (std::size_t k = 0; k < kSeedsPerSubmit; ++k) {
      s.seeds.push_back(seed_base_ + s.cold_index * kSeedsPerSubmit + k);
    }
    s.obs_level = s.cold_index % 2 == 0 ? "off" : "full";
    if (s.obs_level == "off") replayable_.push_back(s);
    return s;
  }
  ScriptedSubmit s = replayable_[splitmix64(state_) % replayable_.size()];
  s.warm = true;
  return s;
}

// -------------------------------------------------------- host reference

ReferenceRun run_reference_kernel() {
  struct Event {
    std::uint64_t at;
    std::uint64_t id;
    bool operator>(const Event& o) const { return at != o.at ? at > o.at : id > o.id; }
  };
  constexpr std::uint64_t kEvents = 24'000;
  const auto t0 = std::chrono::steady_clock::now();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::unordered_map<std::uint64_t, std::function<void()>> pending;
  std::uint64_t next_id = 1;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  std::uint64_t checksum = 0;
  auto schedule = [&](std::uint64_t at, std::function<void()> fn) {
    heap.push({at, next_id});
    pending.emplace(next_id++, std::move(fn));
  };
  std::function<void(std::uint64_t)> tick = [&](std::uint64_t now) {
    checksum += splitmix64(rng) >> 32;
    if (next_id >= kEvents) return;
    schedule(now + rng % 1000, [&tick, now] { tick(now + 1); });
    if (rng % 3 == 0) schedule(now + rng % 97, [&tick, now] { tick(now + 2); });
  };
  for (std::uint64_t i = 0; i < 64; ++i) schedule(i, [&tick, i] { tick(i); });
  while (!heap.empty()) {
    const Event e = heap.top();
    heap.pop();
    const auto it = pending.find(e.id);
    const std::function<void()> fn = std::move(it->second);
    pending.erase(it);
    fn();
  }
  return {std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count(), checksum};
}

double HostSpeed::add(double kernel_s) {
  timings_.push_back(kernel_s);
  const std::size_t n = std::min(kWindow, timings_.size());
  return kReferenceNominalS / median_of({timings_.end() - static_cast<std::ptrdiff_t>(n),
                                         timings_.end()});
}

std::string HostSpeed::report(double unscaled_sim_s_per_wall_s) const {
  return "host speed: reference kernel median " + json_number(median_of(timings_) * 1e3) +
         " ms over " + std::to_string(timings_.size()) + " timings (nominal " +
         json_number(kReferenceNominalS * 1e3) + " ms); unscaled sim_s_per_wall_s " +
         json_number(unscaled_sim_s_per_wall_s);
}

// ------------------------------------------------------------------ misc

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) out[static_cast<std::size_t>(15 - i)] = kHex[(h_ >> (4 * i)) & 0xfU];
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite metric value");
  std::array<char, 64> buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  if (ec != std::errc{}) throw std::runtime_error("json_number: to_chars failed");
  return {buf.data(), end};
}

}  // namespace perfbench
