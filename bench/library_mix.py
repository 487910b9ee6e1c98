"""library_mix: one warm process running a seeded stream of point queries
through the public API, in a closed loop.

Each (case, rank) goes through ``catalog`` and ``bondal`` once instead of
in bulk, so a change that spreads per-case work over a sweep but makes
each point query dearer shows here as a loss.  There is no start-up and
no JSON.  Every stream has the same mix of calls (fixed quotas per block
of 100, shuffled); the seed draws the arguments and the order.
"""

from __future__ import annotations

import random
import statistics
import time
from array import array
from typing import Any, Callable, NamedTuple

from common import Speed, import_layer, self_maxrss_mb
from reference import (
    BASE_CHECKS,
    MAIN22,
    QUADRIC21,
    RECONSTRUCTIBLE,
    case_display,
    chern_character,
    dot,
    e2_entries,
    halfmax_table,
    kunneth,
    nearmax_table,
    oracle_numerics,
    rr_chi,
    twist_numerics,
)
from spec import Config, Outcome
from tracing import Tracer, instrumented

MAX_RANK = 10**6


class Op(NamedTuple):
    fn: Callable
    args: tuple
    kwargs: dict
    check: Callable[[Any, Any], bool]
    expected: Any


# --- checks of one result against its reference -----------------------------


def _numerics(e) -> tuple:
    return (e.rank, e.c1.a, e.c1.b, e.c2)


def _kclass(k) -> tuple:
    return (k.rank, k.c1.a, k.c1.b, k.ch2x2)


def _is(result, expected) -> bool:
    return type(result) is expected


def _equal(result, expected) -> bool:
    return result == expected


def _cohomology(result, expected) -> bool:
    return (result.h0, result.h1, result.h2) == expected


def _numerics_eq(result, expected) -> bool:
    return _numerics(result) == expected


def _kclass_eq(result, expected) -> bool:
    return _kclass(result) == expected


def _profile(result, expected) -> bool:
    return (tuple(result.hom), tuple(result.ext1)) == expected


def _page(result, expected) -> bool:
    return {pos: _kclass(e.kclass) for pos, e in result.entries.items()} == expected


def _cases(result, expected) -> bool:
    return tuple((c.id, c.min_rank, c.expected_c2) for c in result) == expected


def _report(result, expected) -> bool:
    got = (
        result.case_id,
        result.rank_tested,
        _numerics(result.computed),
        result.passed,
        result.flags["weak_fano"],
        tuple(c.name for c in result.checks),
    )
    return got == expected


# --- the stream ---------------------------------------------------------------


def build_stream(seed: int, blocks: int) -> tuple[list[Op], str | None]:
    """The seeded stream, and a problem when a catalog display disagrees
    with the table under the Whitney oracle."""
    from nefq2 import catalog, errors
    from nefq2.bondal import e2_page, reconstruct
    from nefq2.cohomology import BundleNumerics, cohomology_q2, euler_char, ext1_module_profile
    from nefq2.ktheory import KClass, from_chern, ses_quotient_chern, to_chern, twist_chern
    from nefq2.picard import BiDegree

    rng = random.Random(seed)
    list_cases = catalog.list_cases
    cases = (
        list_cases("main22")
        + list_cases("quadric21")
        + list_cases("halfmax", c1=BiDegree(3, 2), b=1)
        + list_cases("halfmax", c1=BiDegree(4, 3), b=3)
        + list_cases("nearmax", c1=BiDegree(3, 3))
    )
    rows = MAIN22 + QUADRIC21 + halfmax_table((3, 2), 1) + halfmax_table((4, 3), 3) + nearmax_table((3, 3))
    case_rows = {cid: (lo, c2) for cid, lo, c2 in rows}
    disagreements: list[str] = []

    def deg(lo: int, hi: int) -> tuple[int, int]:
        return (rng.randint(lo, hi), rng.randint(lo, hi))

    def numerics(rank_hi: int = 40):
        r, c1, c2 = rng.randint(1, rank_hi), deg(-6, 6), rng.randint(-30, 30)
        return r, c1, c2, BundleNumerics(r, BiDegree(*c1), c2)

    def lines(n_lo: int, n_hi: int, lo: int, hi: int):
        return [(deg(lo, hi), rng.randint(1, 3)) for _ in range(rng.randint(n_lo, n_hi))]

    def lines_numerics(terms):
        rank, c1, c2 = oracle_numerics([], terms)
        return rank, BundleNumerics(rank, BiDegree(*c1), c2)

    def block(verify_at: int) -> list[Op]:
        ops: list[Op] = []
        for _ in range(12):
            a, b = deg(-12, 12)
            ops.append(Op(cohomology_q2, (BiDegree(a, b),), {}, _cohomology, kunneth(a, b)))
        for _ in range(12):
            r, c1, c2, e = numerics()
            p, q = deg(-6, 6)
            ops.append(Op(euler_char, (e, p, q), {}, _equal, rr_chi(r, c1, c2, p, q)))
        for _ in range(10):
            r, c1, c2, e = numerics()
            line = deg(-5, 5)
            ops.append(Op(twist_chern, (e, BiDegree(*line)), {}, _numerics_eq, twist_numerics(r, c1, c2, line)))
        for _ in range(8):
            sub = lines(1, 2, -3, 1)
            mid = lines(2, 4, -1, 3)
            sub_rank, sub_e = lines_numerics(sub)
            mid_rank, mid_e = lines_numerics(mid)
            if mid_rank <= sub_rank:
                mid.append(((0, 0), sub_rank - mid_rank + 1))
                mid_rank, mid_e = lines_numerics(mid)
            q_rank, (qa, qb), q_c2 = oracle_numerics(sub, mid)
            ops.append(Op(ses_quotient_chern, (sub_e, mid_e), {}, _numerics_eq, (q_rank, qa, qb, q_c2)))
        for _ in range(8):
            # a to_chern / from_chern round trip on the same class
            r, c1, c2, e = numerics(MAX_RANK)
            _, _, ch2x2 = chern_character(r, c1, c2)
            ops.append(Op(from_chern, (e,), {}, _kclass_eq, (r, c1[0], c1[1], ch2x2)))
            ops.append(Op(to_chern, (KClass(r, BiDegree(*c1), ch2x2),), {}, _numerics_eq, (r, c1[0], c1[1], c2)))
        for _ in range(4):
            r, c2 = rng.randint(1, MAX_RANK), rng.randint(6, 8)
            e = BundleNumerics(r, BiDegree(2, 2), c2)
            ops.append(Op(ext1_module_profile, (e,), {}, _profile, ((r + 8 - c2, 0, 0, 0), (0, c2 - 6, c2 - 6, c2 - 4))))
        for _ in range(5):
            r, c2 = rng.randint(1, MAX_RANK), rng.randint(6, 8)
            e = BundleNumerics(r, BiDegree(2, 2), c2)
            ops.append(Op(reconstruct, (e,), {}, _kclass_eq, (r, 2, 2, 8 - 2 * c2)))
        for _ in range(5):
            r, c2 = rng.randint(1, MAX_RANK), rng.randint(6, 8)
            variant = rng.choice(["curve_torsion", "structure_sheaf"]) if c2 == 8 else None
            ops.append(Op(e2_page, (c2, r, variant), {}, _page, e2_entries(c2, r, variant)))
        ops.append(Op(list_cases, ("main22",), {}, _cases, MAIN22))
        ops.append(Op(list_cases, ("quadric21",), {}, _cases, QUADRIC21))
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        k = rng.randint(0, b)
        ops.append(Op(list_cases, ("halfmax",), {"c1": BiDegree(a, b), "b": k}, _cases, halfmax_table((a, b), k)))
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        ops.append(Op(list_cases, ("nearmax",), {"c1": BiDegree(a, b)}, _cases, nearmax_table((a, b))))
        for j in range(16):
            case = cases[(verify_at + j) % len(cases)]
            lo, c2 = case_rows[case.id]
            r = rng.randint(lo, MAX_RANK)
            c1 = (case.c1.a, case.c1.b)
            if lo != case.min_rank or oracle_numerics(*case_display(case, r)) != (r, c1, c2):
                disagreements.append(f"{case.id}: the display and the table disagree at rank {r}")
            names = BASE_CHECKS + (("reconstruction",) if case.id in RECONSTRUCTIBLE else ())
            expected = (case.id, r, (r, c1[0], c1[1], c2), True, c2 < dot(c1, c1), names)
            ops.append(Op(catalog.verify_case, (case, r), {}, _report, expected))
        # inputs outside the hypotheses, each with its documented error
        r, c2 = rng.randint(1, 40), rng.randint(6, 8)
        ops.append(Op(ext1_module_profile, (BundleNumerics(r, BiDegree(2, 1), c2),), {}, _is, errors.HypothesisError))
        ops.append(Op(e2_page, (rng.choice([3, 4, 5, 9, 10]), r), {}, _is, errors.HypothesisError))
        ops.append(Op(e2_page, (8, r, None), {}, _is, errors.HypothesisError))
        b = rng.randint(0, 5)
        ops.append(Op(list_cases, ("halfmax",), {"c1": BiDegree(2, b), "b": b + rng.randint(1, 3)}, _is, errors.HypothesisError))
        ops.append(Op(list_cases, ("nearmax",), {"c1": BiDegree(0, rng.randint(0, 5))}, _is, errors.HypothesisError))
        ops.append(Op(to_chern, (KClass(0, BiDegree(*deg(-3, 3)), 2),), {}, _is, errors.VirtualClassError))
        ops.append(Op(to_chern, (KClass(r, BiDegree(*deg(-3, 3)), 2 * rng.randint(-9, 9) + 1),), {}, _is, errors.MalformedClassError))
        sub_rank, sub_e = lines_numerics(lines(2, 3, -2, 0))
        ops.append(Op(ses_quotient_chern, (sub_e, BundleNumerics(sub_rank, BiDegree(1, 1), 0)), {}, _is, errors.VirtualClassError))
        assert len(ops) == 100
        return ops

    stream = [op for i in range(blocks) for op in block(16 * i)]
    rng.shuffle(stream)
    return stream, "; ".join(disagreements[:5]) or None


# --- running it ---------------------------------------------------------------


def _pass(calls: list[tuple[Callable, tuple, dict]], times: array, results: list) -> float:
    """One timed pass over the stream; returns its wall seconds."""
    clock = time.perf_counter_ns
    start = clock()
    for i, (fn, args, kwargs) in enumerate(calls):
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an unexpected error counts as a wrong answer
            result = exc
        times[i] = clock() - t0
        results[i] = result
    return (clock() - start) / 1e9


def _check(stream: list[Op], results: list, out: Outcome) -> None:
    for op, result in zip(stream, results):
        try:
            ok = op.check(result, op.expected)
        except Exception:  # a result of the wrong shape is a wrong answer
            ok = False
        out.record(None if ok else f"{op.fn.__name__}{op.args}: got {result!r}")


def measure(cfg: Config, out: Outcome) -> None:
    stream, problem = build_stream(cfg.seed, cfg.stream_blocks)
    out.record(problem)
    calls = [(op.fn, op.args, op.kwargs) for op in stream]
    times = array("q", bytes(8 * len(calls)))
    results: list = [None] * len(calls)
    rates, p50s, p90s, raw_rates = [], [], [], []
    speed = Speed.objects()
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < cfg.seconds:
        speed.sample()
        wall = _pass(calls, times, results)
        speed.sample()
        scale = speed.take()
        _check(stream, results, out)
        ordered = sorted(times)
        raw_rates.append(len(calls) / wall)
        rates.append(len(calls) / (wall * scale))
        p50s.append(statistics.median(ordered) * scale / 1e6)
        p90s.append(ordered[len(ordered) * 9 // 10] * scale / 1e6)
    out.metrics["ops_per_s"] = statistics.median(rates)
    out.metrics["op_p50_ms"] = statistics.median(p50s)
    out.metrics["peak_rss_mb"] = self_maxrss_mb()
    out.notes["lib_calls_per_s"] = out.metrics["ops_per_s"]
    out.notes["lib_call_p90_ms"] = statistics.median(p90s)
    out.notes["raw_lib_calls_per_s"] = statistics.median(raw_rates)
    out.notes["speed_scale"] = speed.median_scale
    out.notes["samples"] = len(rates)
    out.notes["calls_per_pass"] = len(calls)


def trace(cfg: Config, out: Outcome, tracer: Tracer) -> None:
    out.metrics.update(import_layer(cfg.import_samples))
    stream, problem = build_stream(cfg.seed, cfg.stream_blocks)
    out.record(problem)
    calls = [(op.fn, op.args, op.kwargs) for op in stream]
    times = array("q", bytes(8 * len(calls)))
    results: list = [None] * len(calls)
    _pass(calls, times, results)
    untraced = []
    for _ in range(cfg.replays):
        untraced.append(_pass(calls, times, results))
        _check(stream, results, out)
    traced = []
    with instrumented(tracer) as wrappers:
        traced_calls = [(wrappers.get(fn, fn), args, kwargs) for fn, args, kwargs in calls]
        for _ in range(cfg.replays):
            traced.append(_pass(traced_calls, times, results))
            _check(stream, results, out)
    out.metrics["trace.untraced_s"] = statistics.median(untraced)
    out.metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
