#include "core/lsqr_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>

#include "core/preconditioner.hpp"
#include "core/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault_injector.hpp"

namespace gaia::core {

namespace {
constexpr char kCheckpointMagic[8] = {'G', 'A', 'I', 'A', 'C', 'K', 'P',
                                      '2'};

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  GAIA_CHECK(is.good(), "truncated checkpoint");
  return v;
}
void write_vec(std::ostream& os, std::span<const real> v) {
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size_bytes()));
}
void read_vec(std::istream& is, std::span<real> v) {
  const auto n = read_pod<std::uint64_t>(is);
  GAIA_CHECK(n == v.size(), "checkpoint vector size mismatch");
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size_bytes()));
  GAIA_CHECK(is.good(), "truncated checkpoint");
}
/// Characters of a detail string carried by a verdict agreement.
constexpr std::size_t kVerdictDetailChars = 256;

// The iteration split's series (the aprod pass spans feed the other two).
obs::SpanHistogram g_iteration_seconds(obs::kIterationSeconds);
obs::SpanHistogram g_blas1_scale_seconds(obs::kBlas1ScaleSeconds);
obs::SpanHistogram g_reduction_seconds(obs::kReductionSeconds);
obs::SpanHistogram g_blas1_updates_seconds(obs::kBlas1UpdatesSeconds);
}  // namespace

struct LsqrEngine::Impl {
  LsqrOptions options;
  // Rows are this rank's; `red` reaches the others (the 1-rank identity
  // single-process). m_global counts the rows of every rank.
  LocalReduction local_reduction;
  Reduction* red = nullptr;
  matrix::SystemMatrix scaled;       // used when preconditioning
  const matrix::SystemMatrix* A = nullptr;
  std::vector<real> col_scale;
  std::size_t m = 0, n = 0, m_global = 0;
  std::uint64_t fingerprint = 0;

  backends::DeviceContext device;
  std::unique_ptr<Aprod> aprod;
  backends::DeviceBuffer<real> d_u, d_v, d_w, d_x, d_var;
  std::vector<real> scatter;  // aprod2 partial sums (several ranks only)

  // Recurrence scalars.
  real alpha = 0, beta = 0, bnorm = 0;
  real rhobar = 0, phibar = 0;
  real rnorm = 0, arnorm = 0;
  real anorm = 0, acond = 0, ddnorm = 0, res2 = 0;
  real xnorm = 0, xxnorm = 0, z = 0, cs2 = -1, sn2 = 0;

  std::int64_t itn = 0;
  bool finished = false;
  LsqrStop istop = LsqrStop::kIterationLimit;
  std::vector<double> iteration_seconds;
  std::vector<real> rnorm_history, arnorm_history, xnorm_history;

  // Silent-corruption defense (engaged when options.health is not off):
  // the monitor runs the invariant checks; b_host/resid_scratch feed the
  // true-residual recompute; good_state is the in-memory rollback target
  // of repair mode — refreshed only *after* a deep check passed, so a
  // restore never lands inside the corruption it is escaping.
  std::unique_ptr<resilience::HealthMonitor> health;
  std::vector<real> b_host, resid_scratch;
  std::string good_state;
  std::int64_t good_itn = 0;
  // ABFT checksum-vector state: col_check = A^T 1_m and row_check =
  // A 1_n, precomputed once on a clean system; per iteration the summed
  // kernel outputs are verified against sum(A v) = col_check . v and
  // sum(A^T u) = row_check . u. sum_u/sum_v track the sums of the
  // current normalized basis vectors (rescaled, never re-summed).
  std::vector<real> col_check, row_check;
  real col_check_norm = 0, row_check_norm = 0;
  real sum_u = 0, sum_v = 0;

  /// `prescaled` non-empty: A_in is already column-scaled by it.
  Impl(const matrix::SystemMatrix& A_in, std::span<const real> b,
       const LsqrOptions& opts, Reduction* reduction,
       std::span<const real> prescaled)
      : options(opts),
        red(reduction ? reduction : &local_reduction),
        device(opts.device_capacity,
               backends::to_string(opts.aprod.backend) + "-device") {
    GAIA_CHECK(static_cast<row_index>(b.size()) == A_in.n_rows(),
               "rhs size mismatch");
    GAIA_CHECK(options.max_iterations > 0,
               "need a positive iteration limit");
    if (!options.precondition) {
      A = &A_in;
    } else if (!prescaled.empty()) {
      GAIA_CHECK(static_cast<col_index>(prescaled.size()) == A_in.n_cols(),
                 "column scale size mismatch");
      col_scale.assign(prescaled.begin(), prescaled.end());
      A = &A_in;
    } else {
      GAIA_CHECK(red->size() == 1,
                 "a distributed engine needs the global column scale");
      col_scale = column_norms(A_in);
      scaled = A_in;
      apply_column_scaling(scaled, col_scale);
      A = &scaled;
    }
    m = static_cast<std::size_t>(A->n_rows());
    n = static_cast<std::size_t>(A->n_cols());
    m_global = static_cast<std::size_t>(
        red->allreduce(static_cast<real>(m), ReduceOp::kSum));
    fingerprint = compute_fingerprint();

    aprod = std::make_unique<Aprod>(*A, device, options.aprod);
    d_u = backends::DeviceBuffer<real>(device, b);
    d_v = backends::DeviceBuffer<real>(device, n);
    d_w = backends::DeviceBuffer<real>(device, n);
    d_x = backends::DeviceBuffer<real>(device, n);
    d_var = backends::DeviceBuffer<real>(
        device, options.compute_std_errors ? n : std::size_t{0});
    d_v.fill(real{0});
    d_w.fill(real{0});
    d_x.fill(real{0});
    if (options.compute_std_errors) d_var.fill(real{0});
    if (red->size() > 1) scatter.assign(n, real{0});

    // Golub-Kahan start.
    const auto backend = aprod->active_backend();
    beta = global_norm(d_u.span());
    if (beta > 0) {
      vscale(backend, d_u.span(), real{1} / beta);
      apply2_global(d_u.span(), d_v.span());
      alpha = vnorm(d_v.span());
    }
    if (alpha > 0) {
      vscale(backend, d_v.span(), real{1} / alpha);
      std::copy(d_v.span().begin(), d_v.span().end(), d_w.span().begin());
    }
    bnorm = beta;
    rhobar = alpha;
    phibar = beta;
    rnorm = beta;
    arnorm = alpha * beta;
    if (arnorm == 0) {
      finished = true;
      istop = LsqrStop::kXZero;
    }

    if (options.health.enabled()) {
      health = std::make_unique<resilience::HealthMonitor>(options.health,
                                                           red->rank());
      // The recompute checks need b on the host (b is the *unchanged*
      // rhs — preconditioning only scales columns).
      b_host.assign(b.begin(), b.end());
      resid_scratch.assign(m, real{0});
      // ABFT checksum vectors, via the kernels themselves so every
      // backend's product is checked against its own arithmetic. Both
      // cover this rank's rows: the aprod1 identity is rank-local (u is
      // distributed), the aprod2 one sums row_check . u over all ranks.
      std::vector<real> ones(std::max(m, n), real{1});
      col_check.assign(n, real{0});
      aprod->apply2(std::span<const real>(ones.data(), m), col_check);
      row_check.assign(m, real{0});
      aprod->apply1(std::span<const real>(ones.data(), n), row_check);
      col_check_norm = vnorm(col_check);
      row_check_norm = global_norm(row_check);
      sum_u = vsum(d_u.span());
      sum_v = vsum(d_v.span());
      if (options.health.mode == resilience::HealthMode::kRepair)
        refresh_good_state();  // iteration-0 rollback target
    }
  }

  /// ||local|| over the rows of all ranks; exactly vnorm on one rank.
  real global_norm(std::span<const real> local) {
    const real norm = vnorm(local);
    if (red->size() == 1) return norm;
    return std::sqrt(red->allreduce(norm * norm, ReduceOp::kSum));
  }

  /// v += A^T u over the rows of all ranks: straight into v on one rank;
  /// on several, each rank's partial sums are allreduced first.
  void apply2_global(std::span<const real> u, std::span<real> v) {
    if (red->size() == 1) {
      aprod->apply2(u, v);
      return;
    }
    std::fill(scatter.begin(), scatter.end(), real{0});
    aprod->apply2(u, scatter);
    red->allreduce(scatter, ReduceOp::kSum);
    vaxpy(aprod->active_backend(), v, real{1}, scatter);
  }

  /// Fingerprint binding a checkpoint to (problem, options) — to the
  /// global system, not to the rank count, so a checkpoint resumes on
  /// any number of ranks. Collective.
  std::uint64_t compute_fingerprint() {
    // The global first and last coefficients: the first rank holds the
    // first rows, the last rank the last (constraint) rows.
    constexpr real kAbsent = -std::numeric_limits<real>::infinity();
    const auto values = A->values();
    std::array<real, 2> ends = {
        red->rank() == 0 ? values[0] : kAbsent,
        red->rank() == red->size() - 1 ? values[values.size() - 1]
                                       : kAbsent};
    red->allreduce(ends, ReduceOp::kMax);
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
    };
    mix(static_cast<std::uint64_t>(m_global));
    mix(static_cast<std::uint64_t>(n));
    // max_iterations is deliberately NOT part of the fingerprint: the
  // iteration budget does not change the trajectory, so a resumed run
  // may extend it (rerun with a larger --iterations). Launch-shape
  // tuning (AprodOptions::tuning, the autotuner) is excluded for the
  // same reason: shapes change kernel timing, never the numerics, so a
  // checkpoint taken untuned may be resumed autotuned and vice versa.
    mix(static_cast<std::uint64_t>(options.precondition));
    mix(static_cast<std::uint64_t>(options.compute_std_errors));
    mix(std::bit_cast<std::uint64_t>(options.damp));
    mix(std::bit_cast<std::uint64_t>(static_cast<double>(ends[0])));
    mix(std::bit_cast<std::uint64_t>(static_cast<double>(ends[1])));
    return h;
  }

  /// Raw checkpoint stream (no file framing): the on-disk format of
  /// LsqrEngine::checkpoint *and* the in-memory rollback snapshot of
  /// repair mode. `global` stores u over all rows (collective on several
  /// ranks); the rank-local snapshot stores this rank's rows only.
  void save_state(std::ostream& os, bool global) const {
    os.write(kCheckpointMagic, sizeof(kCheckpointMagic));
    write_pod(os, fingerprint);
    write_pod(os, itn);
    write_pod(os, static_cast<std::uint8_t>(finished ? 1 : 0));
    write_pod(os, static_cast<std::int32_t>(istop));
    for (real v : {alpha, beta, bnorm, rhobar, phibar, rnorm, arnorm,
                   anorm, acond, ddnorm, res2, xnorm, xxnorm, z, cs2, sn2})
      write_pod(os, v);
    if (global && red->size() > 1) {
      std::vector<real> u_global(m_global);
      red->assemble_rows(d_u.span(), u_global);
      write_vec(os, u_global);
    } else {
      write_vec(os, d_u.span());
    }
    write_vec(os, d_v.span());
    write_vec(os, d_w.span());
    write_vec(os, d_x.span());
    write_vec(os, d_var.span());
    write_pod(os, static_cast<std::uint64_t>(iteration_seconds.size()));
    os.write(reinterpret_cast<const char*>(iteration_seconds.data()),
             static_cast<std::streamsize>(iteration_seconds.size() *
                                          sizeof(double)));
    for (const auto* hist :
         {&rnorm_history, &arnorm_history, &xnorm_history})
      write_vec(os, std::span<const real>(hist->data(), hist->size()));
    GAIA_CHECK(os.good(), "checkpoint write failed");
  }

  void load_state(std::istream& is, bool global) {
    char magic[8];
    is.read(magic, sizeof(magic));
    GAIA_CHECK(is.good() &&
                   std::memcmp(magic, kCheckpointMagic, sizeof(magic)) == 0,
               "not a gaia LSQR checkpoint");
    GAIA_CHECK(read_pod<std::uint64_t>(is) == fingerprint,
               "checkpoint does not match this system/options");
    itn = read_pod<std::int64_t>(is);
    finished = read_pod<std::uint8_t>(is) != 0;
    istop = static_cast<LsqrStop>(read_pod<std::int32_t>(is));
    for (real* v : {&alpha, &beta, &bnorm, &rhobar, &phibar, &rnorm,
                    &arnorm, &anorm, &acond, &ddnorm, &res2, &xnorm,
                    &xxnorm, &z, &cs2, &sn2})
      *v = read_pod<real>(is);
    if (global && red->size() > 1) {
      std::vector<real> u_global(m_global);
      read_vec(is, u_global);
      red->slice_rows(u_global, d_u.span());
    } else {
      read_vec(is, d_u.span());
    }
    read_vec(is, d_v.span());
    read_vec(is, d_w.span());
    read_vec(is, d_x.span());
    read_vec(is, d_var.span());
    const auto n_times = read_pod<std::uint64_t>(is);
    iteration_seconds.resize(n_times);
    is.read(reinterpret_cast<char*>(iteration_seconds.data()),
            static_cast<std::streamsize>(n_times * sizeof(double)));
    GAIA_CHECK(is.good(), "truncated checkpoint");
    for (auto* hist : {&rnorm_history, &arnorm_history, &xnorm_history}) {
      const auto n_hist = read_pod<std::uint64_t>(is);
      hist->resize(n_hist);
      is.read(reinterpret_cast<char*>(hist->data()),
              static_cast<std::streamsize>(n_hist * sizeof(real)));
      GAIA_CHECK(is.good(), "truncated checkpoint");
    }
    if (health) {
      sum_u = vsum(d_u.span());
      sum_v = vsum(d_v.span());
    }
  }

  void refresh_good_state() {
    std::ostringstream os(std::ios::binary);
    save_state(os, /*global=*/false);
    good_state = std::move(os).str();
    good_itn = itn;
  }

  /// `sdc:` clause hook: silently flips a bit in the combined output
  /// vector of the named aprod pass. Disarmed cost: one relaxed load.
  void maybe_inject_sdc(std::string_view pass, std::span<real> out) {
    auto& injector = resilience::FaultInjector::global();
    if (!injector.armed()) return;
    if (const auto flip =
            injector.on_kernel_output(pass, itn, red->rank(), out.size()))
      resilience::apply_bitflip(out, *flip);
  }

  /// ||b - A x|| over all rows (one extra apply1 — the overhead term of
  /// the deep pass), plus the damping contribution when damp != 0.
  real true_residual_norm() {
    std::fill(resid_scratch.begin(), resid_scratch.end(), real{0});
    aprod->apply1(d_x.span(), resid_scratch);  // resid = A x
    real sum = 0, comp = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const real d = b_host[i] - resid_scratch[i];
      const real term = d * d - comp;
      const real next = sum + term;
      comp = (next - sum) - term;
      sum = next;
    }
    sum = red->allreduce(sum, ReduceOp::kSum);
    if (options.damp != 0) {
      const real xn = vnorm(d_x.span());
      sum += options.damp * options.damp * xn * xn;
    }
    return std::sqrt(sum);
  }

  /// The every-K deep pass: segment checksums + the ABFT agreement
  /// cross-checks (||u|| and ||v|| vs 1, ||x|| vs the xnorm recurrence,
  /// recomputed ||b - Ax|| vs the rnorm estimate) and, on several ranks,
  /// the replicated-state hash agreement. Returns the first tripped
  /// invariant of this rank.
  resilience::HealthVerdict run_deep_checks() {
    using resilience::HealthInvariant;
    health->note_deep_check();
    obs::ScopedTrace span("health.deep_check", "resilience");
    const auto& cfg = options.health;
    // The collective inputs first, on every rank whatever its own checks
    // find below. The residual is skipped deep in the convergence
    // plateau, where the difference is cancellation, not corruption.
    const real u_norm = global_norm(d_u.span());
    const bool check_residual = rnorm > bnorm * real{1e-9};
    const real true_rnorm = check_residual ? true_residual_norm() : real{0};
    // Replicas of x, v, w and the scalars are bit-identical across
    // ranks: max(h) == -max(-h) unless one diverged.
    std::array<real, 2> hash = {0, 0};
    if (red->size() > 1) {
      const std::array<real, 16> sc = {alpha, beta,  bnorm, rhobar,
                                       phibar, rnorm, arnorm, anorm,
                                       acond, ddnorm, res2,  xnorm,
                                       xxnorm, z,     cs2,   sn2};
      const real h = static_cast<real>(resilience::fold_hash_to_real(
          resilience::state_hash(sc, {d_v.span(), d_w.span(), d_x.span()})));
      hash = {h, -h};
      red->allreduce(hash, ReduceOp::kMax);
    }

    auto verdict = health->check_vector(itn, "u", d_u.span());
    if (verdict.healthy() && beta > 0)
      verdict = health->check_agreement(itn, "||u||", u_norm, real{1},
                                        cfg.unit_norm_tol,
                                        HealthInvariant::kUnitNorm);
    if (!verdict.healthy()) return verdict;
    verdict = health->check_vector(
        itn, "v", d_v.span(), alpha > 0 ? real{1} : real{-1},
        cfg.unit_norm_tol, HealthInvariant::kUnitNorm);
    if (!verdict.healthy()) return verdict;
    verdict = health->check_vector(itn, "x", d_x.span(), xnorm,
                                   cfg.xnorm_rel_tol,
                                   HealthInvariant::kXnormAgreement);
    if (!verdict.healthy()) return verdict;
    if (hash[0] != -hash[1]) {
      verdict.invariant = HealthInvariant::kStateHashDisagreement;
      std::ostringstream os;
      os << "replicated-state hash min " << -hash[1] << " != max "
         << hash[0] << " across " << red->size() << " rank(s)";
      verdict.detail = os.str();
      return verdict;
    }
    if (check_residual)
      verdict = health->check_agreement(
          itn, "rnorm", true_rnorm, rnorm, cfg.residual_rel_tol,
          HealthInvariant::kResidualAgreement);
    return verdict;
  }

  /// Collective: one verdict for all ranks, so a detection — and its
  /// repair or stop — is taken together. The lowest tripped rank's
  /// diagnosis wins and reaches every rank as numbers (the culprit alone
  /// contributes to a sum): invariant, iteration and the detail text.
  resilience::HealthVerdict agree(resilience::HealthVerdict local) {
    const int size = red->size();
    if (size == 1) return local;
    const real culprit = red->allreduce(
        static_cast<real>(local.healthy() ? size : red->rank()),
        ReduceOp::kMin);
    if (culprit >= size) return local;
    std::vector<real> msg(2 + kVerdictDetailChars, real{0});
    if (red->rank() == static_cast<int>(culprit)) {
      msg[0] = static_cast<real>(local.invariant);
      msg[1] = static_cast<real>(local.iteration);
      for (std::size_t i = 0;
           i < std::min(local.detail.size(), kVerdictDetailChars); ++i)
        msg[2 + i] = static_cast<unsigned char>(local.detail[i]);
    }
    red->allreduce(msg, ReduceOp::kSum);
    resilience::HealthVerdict verdict;
    verdict.invariant = static_cast<resilience::HealthInvariant>(
        static_cast<int>(msg[0]));
    verdict.iteration = static_cast<std::int64_t>(msg[1]);
    verdict.rank = static_cast<int>(culprit);
    for (std::size_t i = 2; i < msg.size() && msg[i] != 0; ++i)
      verdict.detail.push_back(
          static_cast<char>(static_cast<unsigned char>(msg[i])));
    return verdict;
  }

  /// Rollback of repair mode: restore the last validated snapshot and
  /// replay. Injector clause counters are *not* rolled back (a count=1
  /// sdc clause stays spent), so the replay runs clean.
  void repair(const resilience::HealthVerdict& verdict) {
    const std::int64_t detected_at = itn;
    std::istringstream is(good_state, std::ios::binary);
    load_state(is, /*global=*/false);
    health->record_repair(detected_at, itn);
    health->reset_window();
    (void)verdict;
  }

  /// Convergence telemetry for the iteration that just finished: counter
  /// tracks for Perfetto's counter view and registry metrics for the CSV
  /// export.
  void record_iteration_telemetry() {
    // The solve's series count once, not once per rank.
    if (red->rank() != 0) return publish_progress();
    auto& rec = obs::TraceRecorder::current();
    if (rec.enabled()) {
      const double now = rec.now_us();
      rec.counter("lsqr.rnorm", now, rnorm);
      rec.counter("lsqr.arnorm", now, arnorm);
    }
    auto& reg = obs::MetricsRegistry::global();
    if (reg.enabled()) {
      static obs::Counter& iters = reg.counter("lsqr.iterations");
      static obs::Gauge& g_rnorm = reg.gauge("lsqr.rnorm");
      static obs::Gauge& g_arnorm = reg.gauge("lsqr.arnorm");
      static obs::Gauge& g_xnorm = reg.gauge("lsqr.xnorm");
      iters.add(1);
      g_rnorm.set(rnorm);
      g_arnorm.set(arnorm);
      g_xnorm.set(xnorm);
    }
    publish_progress();
  }

  /// Live progress row for the telemetry sampler (rank-attributed via
  /// the thread-local set by dist rank bodies; -1 single-process).
  void publish_progress() const {
    auto& board = obs::ProgressBoard::global();
    if (board.enabled())
      board.update(obs::ProgressBoard::thread_rank(), itn, rnorm, arnorm);
  }

  bool step() {
    if (finished) return false;
    // Vector ops follow the aprod driver's backend so a failed-over run
    // stays coherent (aprod kernels and BLAS1 on the same executor).
    const auto backend = aprod->active_backend();
    const real damp = options.damp;
    ++itn;
    // The split's spans record on rank 0 only, like the solve's other
    // series, so its numerators and denominator cover the same rank.
    const bool split = red->rank() == 0;
    const auto phase = [split](const char* name, const char* cat,
                               obs::SpanHistogram& series) {
      return obs::ScopedTrace(name, cat, obs::TraceRecorder::kMainTrack,
                              split ? &series : nullptr);
    };
    obs::ScopedTrace iter_span("lsqr.iteration", "lsqr",
                               obs::TraceRecorder::kMainTrack,
                               split ? &g_iteration_seconds : nullptr,
                               /*timed=*/true);
    iter_span.add_arg({"itn", static_cast<std::int64_t>(itn)});
    aprod->set_iteration_phase(split);

    auto u = d_u.span();
    auto v = d_v.span();
    auto w = d_w.span();
    auto x = d_x.span();

    // ABFT bookkeeping: sums of the basis vectors entering this
    // iteration, and the first checksum verdict (if any) to surface.
    const real s_u_old = sum_u, s_v_old = sum_v;
    resilience::HealthVerdict abft;

    {
      auto span = phase("blas1_scale", "blas1", g_blas1_scale_seconds);
      vscale(backend, u, -alpha);
    }
    aprod->apply1(v, u);
    maybe_inject_sdc("aprod1", u);
    if (health) {
      // u now holds A v - alpha u_old; its sum must equal
      // col_check . v - alpha sum(u_old) to rounding.
      const real actual = vsum(u);
      const real expected = vdot(col_check, v) - alpha * s_u_old;
      const real scale =
          col_check_norm +
          std::abs(alpha) * std::sqrt(static_cast<real>(m)) +
          std::abs(actual);
      abft = health->check_kernel_checksum(itn, "aprod1", actual,
                                           expected, scale);
      sum_u = actual;
    }
    {
      auto span = phase("reduction_norm", "reduction", g_reduction_seconds);
      beta = global_norm(u);
    }
    if (beta > 0) {
      {
        auto span = phase("blas1_scale", "blas1", g_blas1_scale_seconds);
        vscale(backend, u, real{1} / beta);
        anorm = std::sqrt(anorm * anorm + alpha * alpha + beta * beta +
                          damp * damp);
        vscale(backend, v, -beta);
      }
      if (health) sum_u /= beta;
      apply2_global(u, v);
      maybe_inject_sdc("aprod2", v);
      if (health) {
        // v now holds A^T u - beta v_old (u freshly normalized).
        const real actual = vsum(v);
        const real expected =
            red->allreduce(vdot(row_check, u), ReduceOp::kSum) -
            beta * s_v_old;
        const real scale =
            row_check_norm +
            std::abs(beta) * std::sqrt(static_cast<real>(n)) +
            std::abs(actual);
        if (abft.healthy())
          abft = health->check_kernel_checksum(itn, "aprod2", actual,
                                               expected, scale);
        sum_v = actual;
      }
      {
        auto span = phase("reduction_norm", "reduction", g_reduction_seconds);
        alpha = vnorm(v);
      }
      if (alpha > 0) {
        auto span = phase("blas1_scale", "blas1", g_blas1_scale_seconds);
        vscale(backend, v, real{1} / alpha);
        if (health) sum_v /= alpha;
      }
    }

    const real rhobar1 = std::sqrt(rhobar * rhobar + damp * damp);
    const real cs1 = rhobar / rhobar1;
    const real psi = (damp / rhobar1) * phibar;
    phibar = cs1 * phibar;

    const real rho = std::sqrt(rhobar1 * rhobar1 + beta * beta);
    const real cs = rhobar1 / rho;
    const real sn = beta / rho;
    const real theta = sn * alpha;
    rhobar = -cs * alpha;
    const real phi = cs * phibar;
    phibar = sn * phibar;
    const real tau = sn * phi;

    {
      auto span = phase("blas1_updates", "blas1", g_blas1_updates_seconds);
      if (options.compute_std_errors)
        vaccumulate_sq(backend, d_var.span(), real{1} / rho, w);
      ddnorm += (real{1} / rho) * (real{1} / rho) * vdot(w, w);
      vaxpy(backend, x, phi / rho, w);
      vxpby(backend, w, v, -theta / rho);
    }

    const real delta = sn2 * rho;
    const real gambar = -cs2 * rho;
    const real rhs = phi - delta * z;
    xnorm = std::sqrt(xxnorm + (rhs / gambar) * (rhs / gambar));
    const real gamma = std::sqrt(gambar * gambar + theta * theta);
    cs2 = gambar / gamma;
    sn2 = theta / gamma;
    z = rhs / gamma;
    xxnorm += z * z;

    acond = anorm * std::sqrt(ddnorm);
    res2 += psi * psi;
    rnorm = std::sqrt(phibar * phibar + res2);
    arnorm = alpha * std::abs(tau);

    if (options.record_history) {
      rnorm_history.push_back(rnorm);
      arnorm_history.push_back(arnorm);
      xnorm_history.push_back(xnorm);
    }
    iter_span.add_arg({"rnorm", static_cast<double>(rnorm)});
    iter_span.add_arg({"arnorm", static_cast<double>(arnorm)});
    aprod->set_iteration_phase(false);
    iteration_seconds.push_back(iter_span.stop());
    record_iteration_telemetry();

    // --- silent-corruption defense -----------------------------------
    if (health) {
      auto verdict = abft;  // the same-iteration detector reports first
      if (verdict.healthy())
        verdict =
            health->check_scalars(itn, alpha, beta, rnorm, arnorm, xnorm);
      if (verdict.healthy()) verdict = health->check_rnorm_window(itn, rnorm);
      verdict = agree(verdict);
      if (verdict.healthy() && options.health.due(itn)) {
        verdict = agree(run_deep_checks());
        // Seal the rollback target only after the full pass came back
        // clean: a snapshot is a *validated* state, never a hopeful one.
        if (verdict.healthy() &&
            options.health.mode == resilience::HealthMode::kRepair)
          refresh_good_state();
      }
      if (!verdict.healthy()) {
        health->record_detection(verdict);
        if (options.health.mode == resilience::HealthMode::kRepair) {
          if (health->repairs() >=
              static_cast<std::uint64_t>(options.health.max_repairs)) {
            health->record_unrepaired(verdict);
            throw resilience::SdcError(verdict);
          }
          repair(verdict);
          return true;  // replay resumes from the validated snapshot
        }
        finished = true;
        istop = verdict.invariant ==
                        resilience::HealthInvariant::kScalarFinite
                    ? LsqrStop::kNonFinite
                    : LsqrStop::kSdcDetected;
        return false;
      }
    } else if (!std::isfinite(rnorm) || !std::isfinite(arnorm)) {
      // Detection floor, active even with --health=off: a non-finite
      // residual estimate satisfies no stop test and would otherwise
      // burn the whole iteration budget on a poisoned solve.
      finished = true;
      istop = LsqrStop::kNonFinite;
      return false;
    }

    // Stopping tests (reference-code numbering; skipped when all
    // tolerances are zero, the paper's fixed-iteration timing mode).
    if (options.atol > 0 || options.btol > 0 || options.conlim > 0) {
      const real ctol =
          options.conlim > 0 ? real{1} / options.conlim : real{0};
      const real test1 = rnorm / bnorm;
      const real test2 =
          anorm * rnorm > 0 ? arnorm / (anorm * rnorm) : real{0};
      const real test3 = acond > 0 ? real{1} / acond : real{0};
      const real t1s = test1 / (real{1} + anorm * xnorm / bnorm);
      const real rtol = options.btol + options.atol * anorm * xnorm / bnorm;
      if (real{1} + test3 <= real{1}) {
        istop = LsqrStop::kConlimEps;
      } else if (real{1} + test2 <= real{1}) {
        istop = LsqrStop::kLeastSquaresEps;
      } else if (real{1} + t1s <= real{1}) {
        istop = LsqrStop::kAtolBtolEps;
      } else if (ctol > 0 && test3 <= ctol) {
        istop = LsqrStop::kConlim;
      } else if (options.atol > 0 && test2 <= options.atol) {
        istop = LsqrStop::kLeastSquares;
      } else if ((options.atol > 0 || options.btol > 0) && test1 <= rtol) {
        istop = LsqrStop::kAtolBtol;
      }
      if (istop != LsqrStop::kIterationLimit) finished = true;
    }
    if (itn >= options.max_iterations) finished = true;
    return !finished;
  }

  LsqrResult make_result() const {
    LsqrResult result;
    result.x.assign(n, real{0});
    d_x.copy_to_host(result.x);
    if (options.precondition) unscale_solution(result.x, col_scale);
    if (options.compute_std_errors) {
      result.std_errors.assign(n, real{0});
      d_var.copy_to_host(result.std_errors);
      const real dof =
          m_global > n ? static_cast<real>(m_global - n) : real{1};
      const real s = rnorm / std::sqrt(dof);
      for (auto& se : result.std_errors) se = s * std::sqrt(se);
      if (options.precondition)
        unscale_solution(result.std_errors, col_scale);
    }
    result.istop = istop;
    result.iterations = itn;
    result.anorm = anorm;
    result.acond = acond;
    result.rnorm = rnorm;
    result.arnorm = arnorm;
    result.xnorm = xnorm;
    result.iteration_seconds = iteration_seconds;
    result.rnorm_history = rnorm_history;
    result.arnorm_history = arnorm_history;
    result.xnorm_history = xnorm_history;
    if (!iteration_seconds.empty()) {
      double total = 0;
      for (double t : iteration_seconds) total += t;
      result.mean_iteration_s =
          total / static_cast<double>(iteration_seconds.size());
    }
    result.device_allocated_bytes = device.allocated();
    result.h2d_bytes = device.h2d_bytes();
    result.final_backend = aprod->active_backend();
    result.failovers = aprod->failovers();
    if (health) result.health = health->report();
    return result;
  }
};

LsqrEngine::LsqrEngine(const matrix::SystemMatrix& A,
                       std::span<const real> b, const LsqrOptions& options)
    : impl_(std::make_unique<Impl>(A, b, options, nullptr,
                                   std::span<const real>{})) {
  sync_mirrors();
}

LsqrEngine::LsqrEngine(const matrix::SystemMatrix& A,
                       const LsqrOptions& options, Reduction& reduction,
                       std::span<const real> col_scale)
    : impl_(std::make_unique<Impl>(A, A.known_terms(), options, &reduction,
                                   col_scale)) {
  sync_mirrors();
}

LsqrEngine::LsqrEngine(const matrix::SystemMatrix& A,
                       const LsqrOptions& options)
    : LsqrEngine(A, A.known_terms(), options) {}

LsqrEngine::~LsqrEngine() = default;

void LsqrEngine::sync_mirrors() {
  finished_ = impl_->finished;
  itn_ = impl_->itn;
  istop_ = impl_->istop;
  rnorm_ = impl_->rnorm;
  arnorm_ = impl_->arnorm;
}

bool LsqrEngine::step() {
  const bool more = impl_->step();
  sync_mirrors();
  return more;
}

std::int64_t LsqrEngine::run_to_completion() {
  std::int64_t steps = 0;
  while (!impl_->finished) {
    impl_->step();
    ++steps;
  }
  sync_mirrors();
  return steps;
}

LsqrResult LsqrEngine::result() const { return impl_->make_result(); }

const Aprod& LsqrEngine::aprod() const { return *impl_->aprod; }

void LsqrEngine::checkpoint(std::ostream& os) const {
  impl_->save_state(os, /*global=*/true);
}

void LsqrEngine::checkpoint(const std::string& path) const {
  // File checkpoints get the durable framing on top of the raw stream
  // format: write-temp-then-rename plus a CRC32 footer, so a crash
  // mid-write can never leave a half-checkpoint under the final name.
  std::ostringstream payload(std::ios::binary);
  checkpoint(payload);
  resilience::write_framed_file(path, payload.view());
}

void LsqrEngine::restore(std::istream& is) {
  impl_->load_state(is, /*global=*/true);
  // A restored state becomes the rollback target of repair mode: it
  // came from a CRC-validated checkpoint the caller chose to trust.
  if (impl_->health &&
      impl_->options.health.mode == resilience::HealthMode::kRepair)
    impl_->refresh_good_state();
  sync_mirrors();
}

void LsqrEngine::restore(const std::string& path) {
  // Validates the CRC32 footer before parsing: truncated or bit-flipped
  // files are rejected with an error naming the path and the reason.
  std::istringstream payload(resilience::read_framed_file(path),
                             std::ios::binary);
  restore(payload);
}

std::int64_t resume_newest(LsqrEngine& engine,
                           const resilience::CheckpointManager& manager,
                           bool announce) {
  for (const auto& info : manager.list()) {
    try {
      std::istringstream payload(resilience::read_framed_file(info.path),
                                 std::ios::binary);
      engine.restore(payload);
      if (announce)
        resilience::note_resilience_event("checkpoint.resumed", info.path);
      return info.iteration;
    } catch (const Error& e) {
      if (!announce) continue;
      std::cerr << "warning: skipping checkpoint " << info.path << ": "
                << e.what() << '\n';
      resilience::note_resilience_event("checkpoint.skipped", info.path);
    }
  }
  return -1;
}

}  // namespace gaia::core
