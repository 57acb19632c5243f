"""Span tracer that wraps lacsum's layer functions from outside the package.

`Tracer.install` replaces each function in `LAYER_FUNCTIONS` by a wrapper in
every lacsum module that holds a reference to it, so a name imported into
another module (`cltlab._map_chunks`, `norms.integrate_periodic`,
`search.lp_norm_quadrature`) is traced as well. Spans (id, name, start, end,
parent, thread) are kept in memory; counts are taken at the same boundaries.
A listed function that no longer exists is reported in `absent`.

Two calls are traced one level deeper than their own boundary. The function
that `norms._map_chunks` applies to each chunk becomes a `norms.chunk` span
whose parent is the `_map_chunks` span (it may run on a pool thread). The
integrand handed to a quadrature rule becomes an `<caller layer>.integrand`
span, so the caller's own array work is not billed to the rule, and its
nodes are counted.

Self time of a span is its duration minus the union of its child spans'
intervals. A child is a span whose parent is this span; chunk spans on pool
threads are children of the `_map_chunks` span that dispatched them, so the
pool's own time is the time no chunk was running.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

LAYER_FUNCTIONS = (
    ("rng", "chunk_uniform63"),
    ("rng", "chunk_gaussian_pairs"),
    ("frequency", "sum_components_dyadic"),
    ("frequency", "cos_double_sum_dyadic"),
    ("frequency", "sum_values"),
    ("frequency", "cos_double_sum"),
    ("norms", "l1_monte_carlo"),
    ("norms", "lp_norm_quadrature"),
    ("norms", "l1_auto"),
    ("norms", "fourth_moment_cos"),
    ("norms", "markov_tail_fraction"),
    ("norms", "_mc_mean"),
    ("norms", "_map_chunks"),
    ("norms", "_tree_reduce"),
    ("norms", "_abs_sum_dyadic"),
    ("quadrature", "integrate_periodic"),
    ("quadrature", "integrate_abs_adaptive"),
    ("energy", "count_quadruple_solutions"),
    ("energy", "is_sidon"),
    ("energy", "holder_lower_bound"),
    ("energy", "mian_chowla"),
    ("cltlab", "clt_report"),
    ("cltlab", "sample_mu_nu"),
    ("cltlab", "empirical_char_fn"),
    ("cltlab", "ks_distance_to_normal"),
    ("cltlab", "_chain_audit"),
    ("cltlab", "alpha_mean"),
    ("cltlab", "product_moment"),
    ("search", "exhaustive_sigma"),
    ("search", "anneal_sigma"),
    ("search", "convergence_study"),
    ("records", "write_record"),
    ("records", "load_record"),
    ("cli", "run"),
    ("cli", "_replay"),
)


def _size(a) -> int:
    return int(getattr(a, "size", 0))


# Counts taken from a finished call: name -> fn(args, kwargs, result) -> {counter: amount}.
_COUNTS = {
    "rng.chunk_uniform63": lambda a, kw, r: {"rng.theta_draws": _size(r)},
    "rng.chunk_gaussian_pairs": lambda a, kw, r: {"rng.gauss_pairs": len(r)},
    "frequency.sum_components_dyadic": lambda a, kw, r: {"frequency.dyadic_evals": a[0].n * _size(a[1])},
    "frequency.cos_double_sum_dyadic": lambda a, kw, r: {"frequency.dyadic_evals": a[0].n * _size(a[1])},
    "frequency.sum_values": lambda a, kw, r: {"frequency.float_evals": a[0].n * _size(a[1])},
    "frequency.cos_double_sum": lambda a, kw, r: {"frequency.float_evals": a[0].n * _size(a[1])},
    "energy.count_quadruple_solutions": lambda a, kw, r: {"energy.pair_sums": a[0].n ** 2},
    "search.exhaustive_sigma": lambda a, kw, r: {"search.candidates": r.evaluations},
    "search.anneal_sigma": lambda a, kw, r: {"search.candidates": r.evaluations},
    "cli._replay": lambda a, kw, r: {"cli.replays": 1},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, thread)
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.hook_errors: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] += amount

    def count_error(self, name: str) -> None:
        with self._lock:
            self.hook_errors[name] += 1

    def call(self, name, fn, args, kwargs, parent=None, rewrite=None):
        stack = self._local.__dict__.setdefault("stack", [])
        caller = stack[-1][1] if stack else ""
        if parent is None and stack:
            parent = stack[-1][0]
        sid = next(self._ids)
        if rewrite is not None:
            try:
                args = rewrite(self, sid, caller, args)
            except (IndexError, TypeError):  # a changed signature: trace the call, skip the detail
                self.count_error(name)
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))
        counts = _COUNTS.get(name)
        if counts is not None:
            try:
                amounts = counts(args, kwargs, result)
            except (AttributeError, IndexError, TypeError):
                self.count_error(name)
            else:
                for key, amount in amounts.items():
                    self.count(key, amount)
        return result

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = {}
        for layer, _ in LAYER_FUNCTIONS:
            if layer not in modules:
                try:
                    modules[layer] = importlib.import_module(f"lacsum.{layer}")
                except ImportError:
                    modules[layer] = None
        holders = [m for k, m in sys.modules.items() if k == "lacsum" or k.startswith("lacsum.")]
        for layer, attr in LAYER_FUNCTIONS:
            name = f"{layer}.{attr}"
            original = getattr(modules[layer], attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrapper(name, original)
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrapper(self, name, fn):
        rewrite = _REWRITES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, rewrite=rewrite)

        return traced


# Argument rewrites for the two calls traced below their own boundary.

def _chunked(tracer, sid, caller, args):
    fn, layout = args[0], args[1]
    tracer.count("norms.chunks", len(layout))

    def chunk(item):
        return tracer.call("norms.chunk", fn, (item,), {}, parent=sid)

    return (chunk, layout) + tuple(args[2:])


def _counted_integrand(adaptive):
    def rewrite(tracer, sid, caller, args):
        fn = args[0]
        name = caller.split(".", 1)[0] + ".integrand"
        if adaptive:
            tracer.count("quadrature.adaptive_integrals", 1)

        def integrand(x):
            tracer.count("quadrature.nodes", _size(x))
            if adaptive:
                tracer.count("quadrature.adaptive_calls", 1)
            return tracer.call(name, fn, (x,), {})

        return (integrand,) + tuple(args[1:])

    return rewrite


_REWRITES = {
    "norms._map_chunks": _chunked,
    "quadrature.integrate_periodic": _counted_integrand(False),
    "quadrature.integrate_abs_adaptive": _counted_integrand(True),
}


# ---------------------------------------------------------------------------
# Reduction of spans to per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (end - start) - covered
    return out


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def layer_metrics(spans, counters) -> dict:
    """The per-layer figures; a layer the run did not reach reads 0."""
    selft = self_times(spans)
    self_s = Counter()
    total_s = Counter()
    for sid, name, start, end, _, _ in spans:
        self_s[name] += selft[sid]
        total_s[name] += end - start
    layer_self = Counter()
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value
    threads = defaultdict(set)
    for _, name, _, _, parent, thread in spans:
        if name == "norms.chunk":
            threads[parent].add(thread)
    c = Counter(counters)
    dyadic_s = self_s["frequency.sum_components_dyadic"] + self_s["frequency.cos_double_sum_dyadic"]
    float_s = self_s["frequency.sum_values"] + self_s["frequency.cos_double_sum"]
    search_s = total_s["search.exhaustive_sigma"] + total_s["search.anneal_sigma"]
    return {
        "rng.theta_ns_per_draw": _per(self_s["rng.chunk_uniform63"], c["rng.theta_draws"], 1e9),
        "rng.gauss_ns_per_pair": _per(self_s["rng.chunk_gaussian_pairs"], c["rng.gauss_pairs"], 1e9),
        "rng.draws": c["rng.theta_draws"] + c["rng.gauss_pairs"],
        "frequency.dyadic_ns_per_eval": _per(dyadic_s, c["frequency.dyadic_evals"], 1e9),
        "frequency.dyadic_evals": c["frequency.dyadic_evals"],
        "frequency.float_ns_per_eval": _per(float_s, c["frequency.float_evals"], 1e9),
        "frequency.float_evals": c["frequency.float_evals"],
        "norms.self_s": layer_self["norms"],
        "norms.chunks": c["norms.chunks"],
        "norms.workers": max((len(t) for t in threads.values()), default=0),
        "quadrature.panels": c["quadrature.nodes"] // 8,
        "quadrature.levels": _per(c["quadrature.adaptive_calls"], c["quadrature.adaptive_integrals"]),
        "quadrature.self_s": layer_self["quadrature"],
        "energy.count_s": self_s["energy.count_quadruple_solutions"]
        + self_s["energy.holder_lower_bound"] + self_s["energy.is_sidon"],
        "energy.pair_sums": c["energy.pair_sums"],
        "energy.mian_chowla_s": self_s["energy.mian_chowla"],
        "cltlab.sample_s": total_s["cltlab.sample_mu_nu"],
        "cltlab.char_fn_s": total_s["cltlab.empirical_char_fn"],
        "cltlab.ks_s": total_s["cltlab.ks_distance_to_normal"],
        "cltlab.chain_audit_s": total_s["cltlab._chain_audit"],
        "cltlab.alpha_mean_s": total_s["cltlab.alpha_mean"],
        "cltlab.product_moment_s": total_s["cltlab.product_moment"],
        "search.candidates": c["search.candidates"],
        "search.s_per_candidate": _per(search_s, c["search.candidates"]),
        "records.write_s": total_s["records.write_record"],
        "cli.replay_s": _per(total_s["cli._replay"], c["cli.replays"]),
    }
