// Self-tests of the benchmark's own helpers (util.hpp): the percentile
// rule, the label -> layer map, and the seeded request script. Exit 0
// when every check holds.

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

void test_percentile_rule() {
  using perfbench::highest_reportable;
  using perfbench::min_samples_for;
  using perfbench::percentile;
  check(min_samples_for(50.0) == 20, "p50 needs 20 samples");
  check(min_samples_for(90.0) == 100, "p90 needs 100 samples");
  check(min_samples_for(99.0) == 1000, "p99 needs 1000 samples");
  check(highest_reportable(19) == 0.0, "19 samples report nothing");
  check(highest_reportable(20) == 50.0, "20 samples report p50");
  check(highest_reportable(99) == 50.0, "99 samples report p50");
  check(highest_reportable(100) == 90.0, "100 samples report p90");
  check(highest_reportable(999) == 90.0, "999 samples report p90");
  check(highest_reportable(1000) == 99.0, "1000 samples report p99");
  check(highest_reportable(10000) == 99.9, "10000 samples report p99.9");

  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100, shuffled below
  for (std::size_t i = 0; i < v.size(); i += 7) std::swap(v[i], v[v.size() - 1 - i]);
  check(percentile(v, 50.0) == 50.0, "nearest-rank p50 of 1..100");
  check(percentile(v, 90.0) == 90.0, "nearest-rank p90 of 1..100");
  check(perfbench::median_of({3.0, 1.0, 2.0, 4.0}) == 2.5, "even-count median");

  bool threw = false;
  try {
    (void)percentile(std::vector<double>(19, 1.0), 50.0);
  } catch (const std::logic_error&) {
    threw = true;
  }
  check(threw, "p50 of 19 samples is refused");
  threw = false;
  try {
    (void)percentile(std::vector<double>(99, 1.0), 90.0);
  } catch (const std::logic_error&) {
    threw = true;
  }
  check(threw, "p90 of 99 samples is refused");
}

void test_label_map() {
  using perfbench::layer_of;
  const struct {
    const char* label;
    const char* layer;
  } known[] = {
      {"phy.signal_start", "phy"}, {"phy.signal_end", "phy"},   {"phy.noise_start", "phy"},
      {"phy.tx_end", "phy"},       {"mac.slot", "mac"},         {"mac.response", "mac"},
      {"tcp.rto", "transport"},    {"tcp.delack", "transport"}, {"app.cbr", "app"},
      {"manet.cbr", "app"},        {"fault.node_off", "faults"}, {"obs.snapshot", "obs"},
  };
  std::set<std::string_view> layers{perfbench::event_layers().begin(),
                                    perfbench::event_layers().end()};
  for (const auto& k : known) {
    const auto layer = layer_of(k.label);
    check(layer.has_value() && *layer == k.layer, std::string{"layer of "} + k.label);
    check(layer.has_value() && layers.contains(*layer),
          std::string{"layer of "} + k.label + " is a reported row");
  }
  check(layer_of(nullptr) == perfbench::kUnlabeled, "null label -> (unlabeled)");
  check(layers.contains(perfbench::kUnlabeled), "(unlabeled) is its own row");
  check(!layer_of("aodv.discovery").has_value(), "unknown prefix is refused");
  check(!layer_of("nodot").has_value(), "label without a prefix is refused");
}

void test_request_script() {
  using perfbench::RequestScript;
  using perfbench::ScriptedSubmit;
  auto draw = [](std::uint64_t seed, std::size_t n) {
    RequestScript script{seed};
    std::vector<ScriptedSubmit> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(script.next());
    return out;
  };
  auto same = [](const ScriptedSubmit& a, const ScriptedSubmit& b) {
    return a.warm == b.warm && a.cold_index == b.cold_index && a.grid == b.grid &&
           a.seeds == b.seeds && a.obs_level == b.obs_level;
  };
  const auto a = draw(42, 400);
  const auto b = draw(42, 400);
  const auto c = draw(43, 400);
  bool identical = true;
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    identical = identical && same(a[i], b[i]);
    differs = differs || !same(a[i], c[i]);
  }
  check(identical, "same seed, same script");
  check(differs, "another seed, another script");

  std::vector<ScriptedSubmit> colds;
  std::set<std::uint64_t> cold_seeds;
  std::size_t warm = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ScriptedSubmit& s = a[i];
    check(s.warm == (i % RequestScript::kBlock != 0), "one cold then three warm per block");
    check(s.seeds.size() == RequestScript::kSeedsPerSubmit, "seeds per submit");
    if (!s.warm) {
      check(s.cold_index == colds.size(), "cold submits are numbered in order");
      check(s.cold_index == i / RequestScript::kBlock, "one cold submit per block");
      check(s.obs_level == (s.cold_index % 2 == 0 ? "off" : "full"), "cold obs levels alternate");
      for (const std::uint64_t seed : s.seeds) {
        check(cold_seeds.insert(seed).second, "cold seeds never repeat");
      }
      colds.push_back(s);
    } else {
      ++warm;
      check(s.cold_index < colds.size(), "warm submits replay an earlier cold one");
      check(s.obs_level == "off", "warm submits replay obs-off cold ones");
      ScriptedSubmit replayed = colds[s.cold_index];
      replayed.warm = true;
      check(same(s, replayed), "warm submit is an exact replay");
    }
  }
  check(warm == 3 * colds.size(), "three warm submits per cold one");
}

void test_reference_kernel() {
  const perfbench::ReferenceRun a = perfbench::run_reference_kernel();
  const perfbench::ReferenceRun b = perfbench::run_reference_kernel();
  check(a.checksum == b.checksum, "reference kernel is deterministic");
  check(a.wall_s > 0.0 && a.wall_s < 1.0, "reference kernel takes milliseconds");

  using perfbench::kReferenceNominalS;
  perfbench::HostSpeed speed;
  check(speed.add(kReferenceNominalS) == 1.0, "nominal host speed scales by 1");
  check(std::abs(speed.add(2 * kReferenceNominalS) - 1.0 / 1.5) < 1e-12,
        "scale uses the recent median");
  for (int i = 0; i < 4; ++i) (void)speed.add(2 * kReferenceNominalS);
  check(speed.add(100 * kReferenceNominalS) == 0.5, "one outlier does not move the scale");
  check(speed.add(2 * kReferenceNominalS) == 0.5, "the window forgets old timings");
}

void test_digest() {
  perfbench::Digest empty;
  check(empty.hex() == "cbf29ce484222325", "FNV-1a offset basis");
  perfbench::Digest a;
  a.add(std::string_view{"a"});
  check(a.hex() == "af63dc4c8601ec8c", "FNV-1a of \"a\"");
  check(perfbench::json_number(0.1) == "0.1", "shortest round-trip doubles");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_label_map();
  test_request_script();
  test_reference_kernel();
  test_digest();
  if (g_failures != 0) {
    std::cerr << g_failures << " self-test check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-test ok\n";
  return 0;
}
