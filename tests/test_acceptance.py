"""Acceptance suite: one test per criterion, one printed verdict line each.

Two configurations, selected by the ACCEPTANCE_SCALE environment variable:

* ``desk`` (default): N=1,000 particles, 25 runs, every tolerance doubled,
  criterion A1 excluded -- the fast configuration for CI (< ~1 minute).
* ``full``: N=10,000 particles, 100 runs, stated tolerances, all criteria.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
ACCEPTANCE_JOBS sets the process count for the Monte Carlo batches.
"""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

import modalfuse.baselines
from modalfuse import (
    ObservationFrame,
    ParticleSet,
    builtin_scenario,
    candidate_reweight,
    default_config,
    dma_step,
    enumerate_candidates,
    estimate_mean,
    init_dma,
    init_particles,
    init_prior,
    init_ts,
    make_dataset,
    pf_step,
    propagate,
    residual_resample,
    rmse,
    run_experiment,
    stream_rng,
    ts_step,
    update_model_posterior,
)
from modalfuse.bench import run_table1, format_table1
from modalfuse.dma import reweight_rows

from reference import logsumexp, mix_one

SCALE = os.environ.get("ACCEPTANCE_SCALE", "desk")
JOBS = int(os.environ.get("ACCEPTANCE_JOBS", min(2, os.cpu_count() or 1)))
if SCALE == "full":
    N_PARTICLES, RUNS, SLACK = 10_000, 100, 1.0
elif SCALE == "desk":
    N_PARTICLES, RUNS, SLACK = 1_000, 25, 2.0
else:
    raise RuntimeError(f"unknown ACCEPTANCE_SCALE {SCALE!r}")

MASTER_SEED = 20_240_501
# candidate order for n = 2: [1,1], [1,0], [0,1], [0,0]
M11, M10, M01, M00 = 0, 1, 2, 3


def verdict(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'} [{SCALE}]: {detail}")
    return ok


@pytest.fixture(scope="session")
def grid():
    g = run_table1(N_PARTICLES, RUNS, MASTER_SEED, jobs=JOBS)
    print()
    print(f"--- acceptance grid ({SCALE}: N={N_PARTICLES}, runs={RUNS}, seed={MASTER_SEED}) ---")
    print(format_table1(g))
    return g


def mean_rmse(grid, alg, k):
    return grid[(alg, k)].mean_rmse


def test_A1_scenario1_parity(grid):
    if SCALE != "full":
        pytest.skip("A1 is checked at full scale only (desk config excludes it)")
    pf, dma = mean_rmse(grid, "pf", 1), mean_rmse(grid, "dma", 1)
    rel = abs(dma - pf) / pf
    assert verdict("A1", rel <= 0.05, f"scenario-1 RMSE DMA {dma:.2f} vs PF {pf:.2f}, rel diff {rel:.4f} <= 0.05")


def test_A2_scenario2_robustness(grid):
    pf, sma, dma = (mean_rmse(grid, a, 2) for a in ("pf", "sma", "dma"))
    bound = 0.4 * SLACK
    ok = (dma < bound * pf) and (dma < sma)
    assert verdict("A2", ok,
                   f"scenario-2 RMSE DMA {dma:.2f} < {bound:.1f}*PF {pf:.2f} "
                   f"(ratio {dma / pf:.3f}) and < SMA {sma:.2f}")


def test_A3_scenario3_band(grid):
    """Scenario 3 holds only losses: PF, TS and DMA stay within 2x of PF.

    SMA is reported but lies outside the band by design. It averages a
    bearing-only PF with a range-only PF, and a bearing fixes only a line
    through the observer, so the bearing-only cloud spreads along that line
    whether or not anything is lost: SMA is over 60x PF in scenario 1 too.
    Its scenario-3 RMSE cannot show a loss fault either: reading every lost
    value as 0.0 lowers it (desk 1148 -> 459) while raising PF's (20 -> 106).
    That a lost reading leaves an SMA sub-filter unweighted is checked in
    ``TestSmaStep.test_lost_reading_leaves_sub_filter_unweighted``
    (tests/test_baselines.py).
    """
    pf = mean_rmse(grid, "pf", 3)
    values = {a: mean_rmse(grid, a, 3) for a in ("pf", "ts", "dma")}
    sma = mean_rmse(grid, "sma", 3)
    sma1_ratio = mean_rmse(grid, "sma", 1) / mean_rmse(grid, "pf", 1)
    worst = max(values, key=values.get)
    bound = 2.0 * SLACK
    ok = all(v <= bound * pf for v in values.values())
    assert verdict(
        "A3", ok,
        f"scenario-3 RMSE within {bound:.0f}x of PF {pf:.2f}: "
        + ", ".join(f"{a} {v:.2f} ({v / pf:.2f}x)" for a, v in values.items())
        + (f"; violated by {worst}" if not ok else "")
        + f"; sma {sma:.2f} ({sma / pf:.2f}x) outside the band by design"
        + f" (scenario 1, nothing lost: {sma1_ratio:.2f}x)",
    ), (f"{worst} left the scenario-3 band. SMA is outside it by design: its "
        "bearing-only sub-filter cannot place the target along the bearing line, "
        f"so SMA sits at {sma1_ratio:.0f}x PF even in scenario 1, where nothing is lost.")


def test_A4_scenario4_dominance(grid):
    pf, ts, sma, dma = (mean_rmse(grid, a, 4) for a in ("pf", "ts", "sma", "dma"))
    best_other = min(pf, ts, sma)
    bound = 0.5 * SLACK
    ok = dma < bound * best_other
    assert verdict("A4", ok,
                   f"scenario-4 RMSE DMA {dma:.2f} < {bound:.1f}*min(PF {pf:.2f}, TS {ts:.2f}, "
                   f"SMA {sma:.2f}) (ratio {dma / best_other:.3f})")


def test_A5_cross_scenario_average(grid):
    means = {a: np.mean([mean_rmse(grid, a, k) for k in (1, 2, 3, 4)])
             for a in ("pf", "ts", "sma", "dma")}
    ok = min(means, key=means.get) == "dma"
    assert verdict("A5", ok,
                   "4-scenario mean RMSE: "
                   + ", ".join(f"{a} {v:.2f}" for a, v in means.items()))


def test_A6_timing(grid):
    t_pf = np.mean([grid[("pf", k)].mean_time for k in (1, 2, 3, 4)])
    t_dma = np.mean([grid[("dma", k)].mean_time for k in (1, 2, 3, 4)])
    bound = 1.5 * SLACK
    ratio = t_dma / t_pf
    ok = ratio <= bound
    assert verdict("A6", ok, f"mean wall time DMA {t_dma:.3f}s vs PF {t_pf:.3f}s, ratio {ratio:.2f} <= {bound:.1f}")


def test_A7_model_identification(grid):
    lo = 0.6 / SLACK

    def window_mean(k, rows):
        traces = [r.weight_trace for r in grid[("dma", k)].results]
        return np.mean([t[rows] for t in traces], axis=(0, 1))

    w2_first = window_mean(2, slice(189, 210))    # t in [190, 210]
    w2_second = window_mean(2, slice(234, 245))   # t in [235, 245]
    w4 = window_mean(4, slice(189, 200))          # t in [190, 200]
    w1 = window_mean(1, slice(None))
    ok = (
        w2_first[M01] > lo
        and w2_second[M10] > lo
        and w4.argmax() == M00
        and w1.argmax() == M11
    )
    assert verdict("A7", ok,
                   f"scenario-2 pi[01]@[190,210]={w2_first[M01]:.3f}>{lo:.2f}, "
                   f"pi[10]@[235,245]={w2_second[M10]:.3f}>{lo:.2f}; "
                   f"scenario-4 argmax@[190,200]={'11 10 01 00'.split()[w4.argmax()]}; "
                   f"scenario-1 argmax={'11 10 01 00'.split()[w1.argmax()]}")


def test_A8_bias_recovery():
    acc = run_experiment("dma", 1, N_PARTICLES, RUNS, MASTER_SEED,
                         prior="accurate", rmse_mode="position", jobs=JOBS)
    bia = run_experiment("dma", 1, N_PARTICLES, RUNS, MASTER_SEED,
                         prior="biased", rmse_mode="position", jobs=JOBS)
    err_acc = np.mean([r.per_step_error for r in acc.results], axis=0)
    err_bia = np.mean([r.per_step_error for r in bia.results], axis=0)
    r50 = err_bia[49] / err_acc[49]
    r150 = err_bia[149] / err_acc[149]
    ok = (r50 <= 10.0 * SLACK) and (r150 <= 2.0 * SLACK)
    assert verdict("A8", ok,
                   f"biased/accurate position error: t=50 ratio {r50:.2f} <= {10 * SLACK:.0f}, "
                   f"t=150 ratio {r150:.2f} <= {2 * SLACK:.0f}")


def test_baseline_failure_orderings(grid):
    """Qualitative orderings: failures must hurt the non-adaptive filters."""
    pf1, pf2, pf4 = (mean_rmse(grid, "pf", k) for k in (1, 2, 4))
    ts4, dma4 = mean_rmse(grid, "ts", 4), mean_rmse(grid, "dma", 4)
    sma2, dma2 = mean_rmse(grid, "sma", 2), mean_rmse(grid, "dma", 2)
    ok = (pf2 > pf1) and (pf4 > 3.0 * pf1) and (ts4 > dma4) and (sma2 > dma2)
    assert verdict("orderings", ok,
                   f"PF degrades under failures ({pf1:.1f} -> {pf2:.1f} / {pf4:.1f}); "
                   f"scenario-4 TS {ts4:.1f} > DMA {dma4:.1f}; scenario-2 SMA {sma2:.1f} > DMA {dma2:.1f}")


# the desk grid digest recorded in BENCH_15.json to BENCH_26.json
DESK_GRID_DIGEST = "dd6fecea4ea82c0a"


def test_desk_grid_digest(grid):
    """Every estimate and weight trace of the desk grid keeps its recorded
    bytes, digested by tools/digests.py's ``grid_digest``."""
    if SCALE != "desk":
        pytest.skip("the digest pins the desk grid")
    path = Path(__file__).resolve().parents[1] / "tools" / "digests.py"
    spec = importlib.util.spec_from_file_location("tools_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    assert digests.grid_digest(grid) == DESK_GRID_DIGEST


def test_A9_equivalence_oracles(monkeypatch):
    cfg = default_config()
    model = cfg.model
    ds = make_dataset(builtin_scenario(2), cfg, MASTER_SEED, 0)
    p0 = init_particles(init_prior("accurate", cfg.x0), N_PARTICLES, stream_rng(MASTER_SEED, 0, 1))
    rng_pf, rng_dma, rng_ts = (stream_rng(MASTER_SEED, 0, 2) for _ in range(3))
    pf_p = p0
    dma_s = init_dma(p0, candidates=np.ones((1, 2), dtype=np.int64))
    monkeypatch.setattr(modalfuse.baselines, "TS_SMOOTHING", 1.0)  # alpha frozen at its initial zeros
    ts_s = init_ts(p0, 2)
    ok = True
    for frame in ds.frames:
        pf_p, est_pf = pf_step(pf_p, frame, model.transition, model.modalities, rng_pf)
        dma_s, est_dma, _ = dma_step(dma_s, frame, model.transition, model.modalities, rng_dma)
        ts_s, est_ts = ts_step(ts_s, frame, model.transition, model.modalities, rng_ts)
        ok = ok and np.array_equal(est_pf, est_dma) and np.array_equal(est_pf, est_ts)
        ok = ok and np.array_equal(pf_p.states, dma_s.particles.states)
        ok = ok and np.array_equal(pf_p.states, ts_s.particles.states)
        if not ok:
            break
    assert verdict("A9", ok,
                   f"DMA|[1,1] and TS|alpha=0 reproduce PF bit-exactly over {ds.horizon} steps")


def test_A10_numerical_oracles(model, rng):
    tol = 1e-10 * SLACK
    states = rng.normal(loc=[1, 1, 200, 200], scale=[1, 1, 5, 5], size=(5, 4))
    w = rng.uniform(0.2, 1.0, size=5)
    w /= w.sum()
    p = ParticleSet(states, np.log(w))
    frame = ObservationFrame(1, [0.8, 285.0])
    cands = enumerate_candidates(2)

    # marginal likelihoods against direct probability-domain sums
    log_g, _, _ = candidate_reweight(p, frame, model.modalities, cands)
    ok_marg = True
    for m, bits in enumerate(cands):
        direct = sum(
            w[j] * np.prod([
                np.exp(mod.loglik(frame.observations[i].value, states[j])) if bits[i] else 1.0 / np.ptp(mod.value_space)
                for i, mod in enumerate(model.modalities)
            ])
            for j in range(5)
        )
        ok_marg = ok_marg and abs(log_g[m] - np.log(direct)) < tol

    # posterior update against direct Bayes arithmetic
    prev = np.array([0.4, 0.3, 0.2, 0.1])
    g = np.array([2.0, 0.5, 1.5, 1.0])
    out = update_model_posterior(prev, np.log(g))
    direct_pi = prev * g
    direct_pi /= direct_pi.sum()
    ok_post = np.all(np.abs(out - direct_pi) < tol)

    # reweight against direct normalisation
    ll = rng.normal(size=5)
    _, E, scale = reweight_rows(p.log_weights, ll[None, :].copy())
    got = scale[0] * E[0]
    direct_w = w * np.exp(ll)
    direct_w /= direct_w.sum()
    ok_rw = np.all(np.abs(got - direct_w) < tol)

    # rmse against direct arithmetic
    est, truth = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    direct_rmse = np.sqrt(np.mean([np.sum((est[t] - truth[t]) ** 2) for t in range(4)]))
    ok_rmse = abs(rmse(est, truth) - direct_rmse) < tol

    # residual resampling unbiasedness (Monte Carlo oracle)
    p3 = ParticleSet(np.array([[10.0], [20.0], [30.0]]), np.log([0.5, 0.3, 0.2]))
    n_rep = 50_000
    counts = np.zeros((n_rep, 3))
    for k in range(n_rep):
        out_p = residual_resample(p3, rng)
        for j, v in enumerate([10.0, 20.0, 30.0]):
            counts[k, j] = np.sum(out_p.states[:, 0] == v)
    se = counts.std(axis=0, ddof=1) / np.sqrt(n_rep)
    ok_rs = np.all(np.abs(counts.mean(axis=0) - 3 * p3.weights) < 3 * se + 1e-9)

    ok = ok_marg and ok_post and ok_rw and ok_rmse and ok_rs
    assert verdict("A10", ok,
                   f"oracles to {tol:.0e}: marginal {ok_marg}, posterior {ok_post}, "
                   f"reweight {ok_rw}, rmse {ok_rmse}, resample-unbiased {ok_rs}")


def test_A11_invariant_suite(model, rng):
    checks = {}

    # weight and posterior normalisation after every step
    cfg = default_config()
    ds = make_dataset(builtin_scenario(2), cfg, 42, 0)
    p = init_particles(init_prior("accurate", cfg.x0), 256, stream_rng(42, 0, 1))
    state = init_dma(p, 2)
    step_rng = stream_rng(42, 0, 2)
    ok = True
    for frame in ds.frames[:80]:
        state, est, post = dma_step(state, frame, model.transition, model.modalities, step_rng)
        ok = ok and abs(post.sum() - 1.0) < 1e-9
        ok = ok and abs(logsumexp(state.particles.log_weights)) < 1e-9
    checks["normalisation"] = ok

    # mixture-mean identity
    prop = propagate(p, model.transition, stream_rng(1, 0, 2))
    frame = ds.frames[0]
    log_g, E, scale = candidate_reweight(prop, frame, model.modalities, enumerate_candidates(2))
    post = update_model_posterior(np.full(4, 0.25), log_g)
    per_model = (scale[:, None] * E) @ prop.states
    _, mixture_mean = mix_one(prop, post, E, scale, np.random.default_rng(0))
    checks["mixture-mean"] = bool(np.all(np.abs(mixture_mean - post @ per_model) < 1e-10))

    # angle likelihood periodicity
    mod = model.modalities[0]
    ok = True
    for _ in range(100):
        y = rng.uniform(-np.pi, np.pi)
        x = rng.normal(scale=150.0, size=4)
        ok = ok and abs(mod.loglik(y, x) - mod.loglik(y + 2 * np.pi, x)) < 1e-12
    checks["periodicity"] = ok

    # determinism of a full experiment
    a = run_experiment("dma", 2, 100, 2, 7)
    b = run_experiment("dma", 2, 100, 2, 7)
    checks["determinism"] = all(
        ra.rmse == rb.rmse and np.array_equal(ra.estimates, rb.estimates)
        for ra, rb in zip(a.results, b.results)
    )

    # data identity across algorithms: datasets depend on (seed, run) only
    d1 = make_dataset(builtin_scenario(3), cfg, 9, 4)
    d2 = make_dataset(builtin_scenario(3), cfg, 9, 4)
    same = np.array_equal(d1.states, d2.states) and np.array_equal(d1.failure_log, d2.failure_log)
    same = same and all(
        (oa.value is None and ob.value is None) or oa.value == ob.value
        for fa, fb in zip(d1.frames, d2.frames)
        for oa, ob in zip(fa.observations, fb.observations)
    )
    checks["data-identity"] = same

    # marginal likelihood shift property
    pp = ParticleSet(np.zeros((5, 1)), np.log(np.full(5, 0.2)))
    ll = rng.normal(size=5)
    log_g = reweight_rows(pp.log_weights, np.stack([ll + 2.5, ll]))[0]
    checks["marginal-shift"] = abs(log_g[0] - (log_g[1] + 2.5)) < 1e-12

    # resampling preserves the weighted mean in expectation
    p10 = ParticleSet(np.linspace(-3, 3, 10)[:, None],
                      np.log(np.arange(1.0, 11.0) / np.arange(1.0, 11.0).sum()))
    target = estimate_mean(p10)[0]
    means = np.array([estimate_mean(residual_resample(p10, rng))[0] for _ in range(10_000)])
    se = means.std(ddof=1) / np.sqrt(means.size)
    checks["resample-mean"] = abs(means.mean() - target) < 3 * se + 1e-12

    ok = all(checks.values())
    assert verdict("A11", ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
