"""Out-of-program tracing: temporary wrappers around modalfuse's public layers.

The tracer patches each traced function where its caller looks it up:
``dma.py`` and ``baselines.py`` import the particle primitives by name,
so those bindings are patched as well as ``modalfuse.particles``; the
likelihoods and the transition draw are methods, so they are patched on
their classes. Every wrapper records one span per call -- name, start,
end, parent span, run id -- in memory, and ``installed()`` removes every
wrapper again on exit, also when the traced call raises.

Filter-health readings (effective sample size before resampling, unique
parents after it, counted fallbacks) are taken inside the wrappers but
outside the timed interval: the time they take is subtracted from every
span open around them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MARK = "__perfbench_wrapper__"

# span record fields
NAME, START, END, PARENT, RUN, EXCLUDED = range(6)


def _ess_fraction(particles) -> float:
    w = particles.weights
    return float(1.0 / np.dot(w, w) / w.shape[0])


def _unique_fraction(particles) -> float:
    # resampled rows are exact copies of their parents; distinct parents are
    # told apart by one continuous state component, 20x cheaper than whole rows
    return float(np.unique(particles.states[:, 0]).shape[0] / particles.n)


class Tracer:
    """Span recorder plus the patch list that feeds it.

    ``spans`` holds the spans recorded since the last ``take_spans()``;
    ``health`` maps a run id to its per-step health readings, and
    ``counts`` counts the fallbacks each run raised.
    """

    def __init__(self, modalfuse):
        self.mf = modalfuse
        self.spans: list[list] = []
        self.run_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.health: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    # -- span recording ----------------------------------------------------

    def _exclude(self, t0: int) -> None:
        """Charge the time since t0 to nobody: drop it from every open span."""
        dt = time.perf_counter_ns() - t0
        for i in self._stack:
            self.spans[i][EXCLUDED] += dt

    def _wrap(self, name, fn, before=None, after=None, errors=()):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                t0 = clock()
                before(args)
                self._exclude(t0)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.run_id, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except errors as exc:
                rec[END] = clock()
                self.counts[self.run_id][type(exc).__name__] += 1
                raise
            finally:
                if not rec[END]:
                    rec[END] = clock()
                stack.pop()
            if after is not None:
                t0 = clock()
                after(out)
                self._exclude(t0)
            return out

        setattr(wrapper, MARK, True)
        return wrapper

    def take_spans(self) -> list[list]:
        """Hand over the spans recorded so far and start an empty list."""
        out = self.spans[:]
        self.spans.clear()
        return out

    # -- health readings -----------------------------------------------------

    def _before_resample(self, args) -> None:
        self.health[self.run_id]["ess_frac"].append(_ess_fraction(args[0]))

    def _after_resample(self, out) -> None:
        self.health[self.run_id]["unique_frac"].append(_unique_fraction(out))

    # -- patching ------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, wrapper options) for every traced layer."""
        mf = self.mf
        particles, dma, baselines = mf.particles, mf.dma, mf.baselines
        resample = dict(before=self._before_resample, after=self._after_resample)
        out = [
            (mf.ssm.LinearGaussianTransition, "sample", "ssm.transition_sample", {}),
            (mf.ssm.AngleModality, "loglik", "ssm.loglik", {}),
            (mf.ssm.RangeModality, "loglik", "ssm.loglik", {}),
            (particles.ParticleSet, "__init__", "particles.ParticleSet.build", {}),
            (dma, "candidate_loglik_matrix", "dma.candidate_loglik_matrix", {}),
            (dma, "candidate_reweight", "dma.candidate_reweight", {}),
            (dma, "update_model_posterior", "dma.update_model_posterior",
             dict(errors=(dma.ModelUpdateDegenerate,))),
            (dma, "dma_step", "dma.dma_step", {}),
            (baselines, "pf_step", "baselines.pf_step", {}),
            (baselines, "ts_step", "baselines.ts_step", {}),
            (baselines, "sma_step", "baselines.sma_step", {}),
            (mf.bench, "run_filter", "bench.run_filter", {}),
            (mf.diagnostics.RunTrace, "record", "diagnostics.RunTrace.record", {}),
            (mf.bench, "generate_run", "tracksim.generate_run", {}),
            (mf.tracksim.GroundTruthRun, "save", "tracksim.save", {}),
            (mf.tracksim.GroundTruthRun, "load", "tracksim.load", {}),
        ]
        for module in (particles, dma, baselines):
            for fn, opts in (("propagate", {}), ("reweight", dict(errors=(particles.WeightCollapse,))),
                             ("residual_resample", resample), ("estimate_mean", {})):
                if fn in vars(module):
                    out.append((module, fn, "particles." + fn, opts))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, opts in self._targets():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(name, original.__func__, **opts))
            else:
                patched = self._wrap(name, original, **opts)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, patched)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, run_id: int):
        """Trace everything called inside the block under ``run_id``."""
        self.run_id = run_id
        self.install()
        try:
            yield self
        finally:
            self.remove()


def leftover_wrappers() -> list[str]:
    """Names of modalfuse attributes that still hold a tracer wrapper."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "modalfuse" and not mod_name.startswith("modalfuse."):
            continue
        for name, value in vars(module).items():
            owners = [(name, value)]
            if isinstance(value, type) and value.__module__.startswith("modalfuse"):
                owners += [(f"{name}.{k}", v) for k, v in vars(value).items()]
            for label, obj in owners:
                fn = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
                if getattr(fn, MARK, False):
                    found.append(f"{mod_name}.{label}")
    return found


def self_times(spans: list[list]) -> tuple[np.ndarray, np.ndarray]:
    """(inclusive, self) duration in ns of every span, health time excluded."""
    n = len(spans)
    incl = np.empty(n, dtype=np.int64)
    child = np.zeros(n, dtype=np.int64)
    for i, rec in enumerate(spans):
        incl[i] = rec[END] - rec[START] - rec[EXCLUDED]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += incl[i]
    return incl, incl - child
