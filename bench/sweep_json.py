"""sweep_json: the large-sweep case, a cold
``nefq2 verify main22 --rank-max 300 --format json`` process, repeated.

Per-rank verification and JSON serialization do nearly all the work and
start-up is a few percent, so symbolic-rank verification and
serialization changes show here.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from common import Speed, cli_args, import_layer, run_child
from reference import MAIN22, case_display, check_sweep_document, oracle_numerics, sweep_total
from spec import Config, Outcome
from tracing import Tracer, instrumented

TABLES = (("main22", MAIN22),)

#: Calibration samples taken just before and just after each sweep child.
SPEED_SAMPLES = 4


def _argv(cfg: Config) -> list[str]:
    return ["verify", "main22", "--rank-max", str(cfg.rank_max), "--format", "json"]


def _oracle_check(cfg: Config) -> str | None:
    """Recompute c2 of every main22 display at a few seeded ranks with the
    Whitney oracle and compare it with the table."""
    from nefq2 import catalog

    rng = random.Random(cfg.seed)
    problems = []
    table = {cid: c2 for cid, _, c2 in MAIN22}
    for case in catalog.list_cases("main22"):
        for r in {case.min_rank, cfg.rank_max, rng.randint(case.min_rank, cfg.rank_max)}:
            got = oracle_numerics(*case_display(case, r))
            if got != (r, (2, 2), table.get(case.id)):
                problems.append(f"Whitney oracle gives {got} for {case.id} at rank {r}")
    return "; ".join(problems) or None


def _check(cfg: Config, document: dict) -> str | None:
    return check_sweep_document(document, TABLES, cfg.rank_max, "nefq2 " + " ".join(_argv(cfg)))


def measure(cfg: Config, out: Outcome) -> None:
    out.record(_oracle_check(cfg))
    expected = sweep_total(MAIN22, cfg.rank_max)
    raw: list[float] = []
    walls: list[float] = []
    rss: list[float] = []
    speed = Speed.compute()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < cfg.seconds:
        speed.sample(SPEED_SAMPLES)
        c = run_child(cli_args(_argv(cfg)))
        speed.sample(SPEED_SAMPLES)
        raw.append(c.wall_s)
        walls.append(c.wall_s * speed.take())
        rss.append(c.maxrss_mb)
        if c.code != 0:
            out.record(f"sweep exited {c.code}: {c.err.decode(errors='replace')[:200]}")
            continue
        try:
            out.record(_check(cfg, json.loads(c.out)))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            out.record(f"unreadable sweep document ({exc!r})")
    out.metrics["ops_per_s"] = expected / statistics.median(walls)
    out.metrics["op_p50_ms"] = statistics.median(walls) * 1e3
    out.metrics["peak_rss_mb"] = max(rss)
    out.notes["sweep_reports_per_s"] = out.metrics["ops_per_s"]
    out.notes["raw_sweep_reports_per_s"] = expected / statistics.median(raw)
    out.notes["speed_scale"] = speed.median_scale
    out.notes["reports_per_sweep"] = expected
    out.notes["samples"] = len(walls)


def _replay(cfg: Config, out: Outcome, tracer: Tracer | None) -> tuple[float, int]:
    """The sweep in-process, as the CLI runs it: verify, convert each report,
    dump the document.  Returns wall seconds and the printed byte count."""
    from nefq2 import __version__, catalog

    start = time.perf_counter()
    reports = catalog.verify_all("main22", None, cfg.rank_max)
    results = [r.to_json() for r in reports]
    passed = sum(1 for r in reports if r.passed)
    document = {
        "tool_version": __version__,
        "invocation": "nefq2 " + " ".join(_argv(cfg)),
        "results": results,
        "summary": {"total": len(reports), "passed": passed, "failed": len(reports) - passed},
    }
    if tracer is None:
        text = json.dumps(document, sort_keys=True, indent=2)
    else:
        with tracer.span("serialize.dumps"):
            text = json.dumps(document, sort_keys=True, indent=2)
    wall = time.perf_counter() - start
    out.record(_check(cfg, document))
    return wall, len(text.encode()) + 1


def trace(cfg: Config, out: Outcome, tracer: Tracer) -> None:
    out.metrics.update(import_layer(cfg.import_samples))
    out.record(_oracle_check(cfg))
    untraced, printed = _replay(cfg, out, None)
    with instrumented(tracer):
        traced, _ = _replay(cfg, out, tracer)
    out.metrics["serialize.bytes"] = printed
    out.metrics["trace.untraced_s"] = untraced
    out.metrics["trace.overhead_s"] = traced - untraced
