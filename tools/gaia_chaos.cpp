/// \file gaia_chaos.cpp
/// \brief gaia-chaos — deterministic fault-campaign runner for the SDC
/// defense pipeline.
///
/// Solves a seeded synthetic system once fault-free (the reference),
/// then replays the same solve under a sweep of seeded fault campaigns
/// — silent bit flips in kernel outputs, rank deaths — with the health
/// monitor in repair mode, and asserts that every campaign is detected,
/// repaired, and lands on a final solution within the validation
/// tolerance of the reference (the paper's fig. 6 criterion: the
/// backends — and here, the repaired trajectories — must agree).
///
/// Exit contract (the perf-gate convention, consumable by CI):
///   0  every campaign repaired and within tolerance
///   1  a campaign went unrepaired, was never detected, or missed the
///      tolerance
///   2  bad invocation or campaign spec
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/lsqr.hpp"
#include "dist/dist_lsqr.hpp"
#include "matrix/generator.hpp"
#include "obs/flight_recorder.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/health_monitor.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/string_utils.hpp"

namespace {

constexpr const char* kUsage = R"(usage: gaia-chaos [options]

Deterministic fault-campaign runner: solves a seeded reference, replays
it under seeded SDC / rank-death campaigns with --health repair, and
verifies detection, repair, and final-solution agreement.

options:
  --size BYTES        synthetic system footprint (default 4MB)
  --iterations N      LSQR iterations per solve (default 60)
  --backend NAME      aprod backend (default serial)
  --ranks N           simulated MPI ranks; 1 = single-process (default 1)
  --seed N            injector RNG seed (default 1746)
  --health MODE       detect|repair (default repair)
  --health-every N    deep-check cadence in iterations (default 10)
  --tolerance T       max relative L2 distance from the reference
                      solution (default 1e-9; repaired replays are
                      deterministic and normally match bit-for-bit)
  --campaign NAME     run only the named built-in campaign (repeatable)
  --faults SPEC       run a custom campaign with this injector spec
                      instead of the built-ins (repeatable; grammar of
                      GAIA_FAULTS, see resilience/fault_injector.hpp)
  --report PATH       write the JSON campaign report to PATH
  --postmortem-dir D  arm the flight recorder: every campaign seals a
                      postmortem.<name>.json bundle into D (plus the
                      per-rank bundles the failure paths themselves
                      flush), readable with gaia-postmortem
  --list              list built-in campaigns and exit
  --help              this text

exit status: 0 all campaigns repaired + within tolerance,
             1 unrepaired / undetected / tolerance miss, 2 bad input.
)";

[[noreturn]] void fail_usage(const std::string& message) {
  std::cerr << "gaia-chaos: " << message << "\n\n" << kUsage;
  std::exit(2);
}

struct Campaign {
  std::string name;
  std::string spec;           ///< injector clause(s), GAIA_FAULTS grammar
  std::int64_t injected_iteration = -1;  ///< -1 = not iteration-pinned
  bool needs_ranks = false;   ///< only meaningful with --ranks > 1
  bool expects_detection = true;  ///< health monitor must trip (sdc);
                                  ///< rank deaths recover loudly instead
};

/// Built-in sweep: mantissa and exponent flips in both aprod passes at
/// early/mid/late iterations, plus a rank death when running multi-rank.
/// Iterations are chosen inside the default 60-iteration solve and off
/// the deep-check cadence, so same-iteration ABFT detection (not the
/// periodic deep pass) is what the sdc campaigns exercise.
std::vector<Campaign> builtin_campaigns() {
  return {
      {"sdc-aprod2-mant", "sdc:kernel=aprod2,iter=12,bit=51", 12, false, true},
      {"sdc-aprod2-exp", "sdc:kernel=aprod2,iter=23,bit=62", 23, false, true},
      {"sdc-aprod1-mant", "sdc:kernel=aprod1,iter=17,bit=55", 17, false, true},
      {"sdc-late", "sdc:kernel=aprod2,iter=41,bit=52", 41, false, true},
      {"rank-death", "rank:rank=1,iter=28", 28, true, false},
  };
}

struct Options {
  gaia::byte_size size = 4 * gaia::kMiB;
  std::int64_t iterations = 60;
  std::string backend = "serial";
  int ranks = 1;
  std::uint64_t seed = 1746;
  std::string health_mode = "repair";
  std::int64_t health_every = 10;
  double tolerance = 1e-9;
  std::vector<std::string> selected;       ///< --campaign filters
  std::vector<std::string> custom_faults;  ///< --faults specs
  std::string report_path;
  std::string postmortem_dir;
  bool list = false;
};

struct CampaignOutcome {
  Campaign campaign;
  std::string status;  ///< repaired | recovered | unrepaired |
                       ///< undetected | tolerance-miss | error
  bool pass = false;
  std::uint64_t detections = 0;
  std::uint64_t repairs = 0;
  int restarts = 0;
  std::int64_t first_detection_iteration = -1;
  std::int64_t detection_latency = -1;  ///< iterations from flip to trip
  double rel_l2_vs_reference = -1;
  std::string diagnosis;
};

/// One solve under whatever the global injector is armed with.
struct SolveOutcome {
  std::vector<gaia::real> x;
  gaia::resilience::HealthReport health;
  int restarts = 0;
};

SolveOutcome run_solve(const gaia::matrix::SystemMatrix& A,
                       const gaia::core::LsqrOptions& lsqr,
                       int ranks) {
  SolveOutcome out;
  if (ranks <= 1) {
    const auto result = gaia::core::lsqr_solve(A, lsqr);
    out.x = result.x;
    out.health = result.health;
  } else {
    gaia::dist::DistLsqrOptions dopts;
    dopts.n_ranks = ranks;
    dopts.lsqr = lsqr;
    const auto result = gaia::dist::dist_lsqr_solve(A, dopts);
    out.x = result.x;
    out.health = result.health;
    out.restarts = result.restarts;
  }
  return out;
}

double rel_l2(const std::vector<gaia::real>& x,
              const std::vector<gaia::real>& ref) {
  double diff = 0, norm = 0;
  const std::size_t n = std::min(x.size(), ref.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - static_cast<double>(ref[i]);
    diff += d * d;
    norm += static_cast<double>(ref[i]) * static_cast<double>(ref[i]);
  }
  if (x.size() != ref.size()) return std::numeric_limits<double>::infinity();
  return norm > 0 ? std::sqrt(diff / norm) : std::sqrt(diff);
}

void write_report(std::ostream& os, const Options& opt,
                  const std::vector<CampaignOutcome>& outcomes, bool pass) {
  using gaia::util::json_quote;
  os << "{\n  \"config\": {\n"
     << "    \"size_bytes\": " << opt.size << ",\n"
     << "    \"iterations\": " << opt.iterations << ",\n"
     << "    \"backend\": " << json_quote(opt.backend) << ",\n"
     << "    \"ranks\": " << opt.ranks << ",\n"
     << "    \"seed\": " << opt.seed << ",\n"
     << "    \"health\": " << json_quote(opt.health_mode) << ",\n"
     << "    \"health_every\": " << opt.health_every << ",\n"
     << "    \"tolerance\": " << opt.tolerance << "\n  },\n"
     << "  \"campaigns\": [\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    os << "    {\n"
       << "      \"name\": " << json_quote(o.campaign.name) << ",\n"
       << "      \"faults\": " << json_quote(o.campaign.spec) << ",\n"
       << "      \"status\": \"" << o.status << "\",\n"
       << "      \"pass\": " << (o.pass ? "true" : "false") << ",\n"
       << "      \"detections\": " << o.detections << ",\n"
       << "      \"repairs\": " << o.repairs << ",\n"
       << "      \"restarts\": " << o.restarts << ",\n"
       << "      \"injected_iteration\": " << o.campaign.injected_iteration
       << ",\n"
       << "      \"first_detection_iteration\": "
       << o.first_detection_iteration << ",\n"
       << "      \"detection_latency\": " << o.detection_latency << ",\n"
       << "      \"rel_l2_vs_reference\": " << o.rel_l2_vs_reference << ",\n"
       << "      \"diagnosis\": " << json_quote(o.diagnosis) << "\n"
       << "    }" << (i + 1 < outcomes.size() ? "," : "") << '\n';
  }
  os << "  ],\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
}

Options parse_args(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i, const char* name) -> std::string {
    std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq != std::string::npos) return arg.substr(eq + 1);
    if (i + 1 >= argc) fail_usage(std::string(name) + " needs a value");
    return argv[++i];
  };
  auto parse_int = [&](const std::string& v, const char* name) -> long long {
    char* end = nullptr;
    const long long n = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || n < 0)
      fail_usage(std::string("bad ") + name + " value '" + v + "'");
    return n;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto is = [&](const char* name) {
      return arg == name || arg.rfind(std::string(name) + "=", 0) == 0;
    };
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      std::exit(0);
    } else if (arg == "--list") {
      opt.list = true;
    } else if (is("--size")) {
      const auto v = need_value(i, "--size");
      const auto bytes = gaia::util::parse_size(v);
      if (!bytes) fail_usage("bad --size value '" + v + "'");
      opt.size = *bytes;
    } else if (is("--iterations")) {
      opt.iterations = parse_int(need_value(i, "--iterations"), "--iterations");
    } else if (is("--backend")) {
      opt.backend = need_value(i, "--backend");
    } else if (is("--ranks")) {
      opt.ranks = static_cast<int>(parse_int(need_value(i, "--ranks"),
                                             "--ranks"));
      if (opt.ranks < 1) fail_usage("--ranks must be >= 1");
    } else if (is("--seed")) {
      opt.seed = static_cast<std::uint64_t>(
          parse_int(need_value(i, "--seed"), "--seed"));
    } else if (is("--health")) {
      opt.health_mode = need_value(i, "--health");
      if (opt.health_mode != "detect" && opt.health_mode != "repair")
        fail_usage("--health must be detect or repair");
    } else if (is("--health-every")) {
      opt.health_every = parse_int(need_value(i, "--health-every"),
                                   "--health-every");
      if (opt.health_every <= 0) fail_usage("--health-every must be > 0");
    } else if (is("--tolerance")) {
      const auto v = need_value(i, "--tolerance");
      char* end = nullptr;
      opt.tolerance = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(opt.tolerance >= 0))
        fail_usage("bad --tolerance value '" + v + "'");
    } else if (is("--campaign")) {
      opt.selected.push_back(need_value(i, "--campaign"));
    } else if (is("--faults")) {
      opt.custom_faults.push_back(need_value(i, "--faults"));
    } else if (is("--report")) {
      opt.report_path = need_value(i, "--report");
    } else if (is("--postmortem-dir")) {
      opt.postmortem_dir = need_value(i, "--postmortem-dir");
    } else {
      fail_usage("unknown option '" + arg + "'");
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  std::vector<Campaign> campaigns;
  if (!opt.custom_faults.empty()) {
    int k = 0;
    for (const auto& spec : opt.custom_faults) {
      Campaign c;
      c.name = "custom-" + std::to_string(k++);
      c.spec = spec;
      // Custom sdc campaigns must trip the monitor; loud campaigns
      // (rank deaths, transfer faults) recover through their own paths.
      c.expects_detection = spec.rfind("sdc:", 0) == 0;
      campaigns.push_back(std::move(c));
    }
  } else {
    for (auto& c : builtin_campaigns()) {
      if (c.needs_ranks && opt.ranks <= 1) continue;
      if (!opt.selected.empty() &&
          std::find(opt.selected.begin(), opt.selected.end(), c.name) ==
              opt.selected.end())
        continue;
      campaigns.push_back(std::move(c));
    }
    if (!opt.selected.empty() && campaigns.size() != opt.selected.size())
      fail_usage("unknown --campaign name (see --list)");
  }

  if (opt.list) {
    for (const auto& c : builtin_campaigns())
      std::cout << c.name << "\t" << c.spec
                << (c.needs_ranks ? "\t(requires --ranks > 1)" : "") << '\n';
    return 0;
  }
  if (campaigns.empty()) fail_usage("no campaigns to run");

  try {
    // Validate every spec up front: a typo must exit 2 before any solve.
    for (const auto& c : campaigns)
      (void)gaia::resilience::parse_fault_spec(c.spec, opt.seed);

    const auto backend = gaia::backends::parse_backend(opt.backend);
    if (!backend) fail_usage("unknown backend '" + opt.backend + "'");

    gaia::core::LsqrOptions lsqr;
    lsqr.aprod.backend = *backend;
    lsqr.max_iterations = opt.iterations;

    std::cout << "gaia-chaos: generating "
              << gaia::util::format_bytes(opt.size) << " system\n";
    const auto generated = gaia::matrix::generate_system(
        gaia::matrix::config_for_footprint(opt.size));

    auto& injector = gaia::resilience::FaultInjector::global();
    injector.disarm();
    if (!opt.postmortem_dir.empty())
      gaia::obs::set_postmortem_dir(opt.postmortem_dir);

    std::cout << "gaia-chaos: reference solve (" << opt.ranks << " rank"
              << (opt.ranks > 1 ? "s" : "") << ", " << opt.iterations
              << " iterations, backend " << opt.backend << ")\n";
    const auto reference = run_solve(generated.A, lsqr, opt.ranks);

    lsqr.health = gaia::resilience::health_config_from_env(opt.health_mode,
                                                           opt.health_every);
    const bool repair_mode =
        lsqr.health.mode == gaia::resilience::HealthMode::kRepair;

    std::vector<CampaignOutcome> outcomes;
    bool all_pass = true;
    for (const auto& c : campaigns) {
      CampaignOutcome o;
      o.campaign = c;
      std::cout << "gaia-chaos: campaign " << c.name << " [" << c.spec
                << "]\n";
      gaia::obs::set_postmortem_context("campaign", c.name);
      gaia::obs::set_postmortem_context("faults", c.spec);
      // Fresh timeline per campaign: each bundle narrates only its own
      // injected failure, not the tail of the previous one.
      gaia::obs::FlightRecorder::global().reset();
      injector.configure(c.spec, opt.seed);
      try {
        const auto run = run_solve(generated.A, lsqr, opt.ranks);
        o.detections = run.health.detections;
        o.repairs = run.health.repairs;
        o.restarts = run.restarts;
        o.first_detection_iteration = run.health.first_detection_iteration;
        o.diagnosis = run.health.last_diagnosis;
        if (o.first_detection_iteration >= 0 && c.injected_iteration >= 0)
          o.detection_latency =
              o.first_detection_iteration - c.injected_iteration;
        o.rel_l2_vs_reference = rel_l2(run.x, reference.x);
        if (c.expects_detection && o.detections == 0) {
          o.status = "undetected";
        } else if (c.expects_detection && repair_mode && o.repairs == 0) {
          o.status = "unrepaired";
        } else if (!(o.rel_l2_vs_reference <= opt.tolerance)) {
          o.status = "tolerance-miss";
        } else {
          o.status = c.expects_detection ? "repaired" : "recovered";
          o.pass = true;
        }
      } catch (const gaia::resilience::SdcError& e) {
        o.status = "unrepaired";
        o.diagnosis = e.what();
      } catch (const gaia::Error& e) {
        o.status = "error";
        o.diagnosis = e.what();
      }
      injector.disarm();
      // One bundle per campaign (reason = outcome status): even the
      // campaigns that repaired cleanly leave a diagnosable artifact, so
      // CI's postmortem-smoke job asserts every injected failure mode
      // produced one. No-op while --postmortem-dir is absent.
      gaia::obs::flush_postmortem(
          {o.status, o.diagnosis.empty() ? c.spec : o.diagnosis, -1,
           opt.ranks},
          "postmortem." + c.name + ".json");
      std::cout << "gaia-chaos:   " << o.status << " (detections "
                << o.detections << ", repairs " << o.repairs;
      if (o.restarts > 0) std::cout << ", restarts " << o.restarts;
      if (o.detection_latency >= 0)
        std::cout << ", detection latency " << o.detection_latency
                  << " iteration(s)";
      if (o.rel_l2_vs_reference >= 0)
        std::cout << ", rel L2 vs reference " << o.rel_l2_vs_reference;
      std::cout << ")\n";
      if (!o.diagnosis.empty())
        std::cout << "gaia-chaos:   diagnosis: " << o.diagnosis << '\n';
      all_pass = all_pass && o.pass;
      outcomes.push_back(std::move(o));
    }

    if (!opt.report_path.empty()) {
      std::ofstream out(opt.report_path);
      if (!out) {
        std::cerr << "gaia-chaos: cannot write report to " << opt.report_path
                  << '\n';
        return 2;
      }
      write_report(out, opt, outcomes, all_pass);
      std::cout << "gaia-chaos: report written to " << opt.report_path
                << '\n';
    }

    std::cout << "gaia-chaos: " << (all_pass ? "PASS" : "FAIL") << " ("
              << outcomes.size() << " campaign(s))\n";
    return all_pass ? 0 : 1;
  } catch (const gaia::Error& e) {
    std::cerr << "gaia-chaos: " << e.what() << '\n';
    return 2;
  }
}
