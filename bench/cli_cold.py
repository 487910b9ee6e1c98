"""cli_cold: one client making cold ``python -m nefq2.cli`` invocations in
a closed loop, in a seeded shuffle of the documented commands.

About half of each invocation is interpreter start and a third is
importing nefq2, so import-time and table-build changes show here and
rank-sweep arithmetic does not.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import time

from common import Speed, cli_args, import_layer, percentile, run_child
from reference import CLI_MIX, check_invocation, command_key
from spec import CLI_KEYS, Config, Outcome
from tracing import Tracer, instrumented


def _passes(cfg: Config, seconds: float):
    """Seeded shuffles of the mix, one whole pass at a time, until the
    time is used up (at least one pass)."""
    rng = random.Random(cfg.seed)
    start = time.perf_counter()
    while True:
        order = list(range(len(CLI_MIX)))
        rng.shuffle(order)
        yield order
        if time.perf_counter() - start >= seconds:
            return


def measure(cfg: Config, out: Outcome) -> None:
    raw: list[float] = []
    walls: list[float] = []
    rates: list[float] = []
    rss: list[float] = []
    speed = Speed.interpreter()
    for order in _passes(cfg, cfg.seconds):
        pass_walls = []
        for i in order:
            speed.sample()
            c = run_child(cli_args(list(CLI_MIX[i][0])))
            raw.append(c.wall_s)
            pass_walls.append(c.wall_s * speed.take())
            rss.append(c.maxrss_mb)
            out.record(check_invocation(i, c.code, c.out.decode(), c.err.decode()))
        walls.extend(pass_walls)
        rates.append(len(pass_walls) / sum(pass_walls))
    p90 = percentile(walls, 90)
    out.metrics["ops_per_s"] = statistics.median(rates)
    out.metrics["op_p50_ms"] = statistics.median(walls) * 1e3
    out.metrics["peak_rss_mb"] = max(rss)
    out.notes["cli_p50_ms"] = out.metrics["op_p50_ms"]
    out.notes["cli_p90_ms"] = p90 * 1e3
    out.notes["cli_samples_beyond_p90"] = sum(1 for w in walls if w > p90)
    out.notes["raw_cli_p50_ms"] = statistics.median(raw) * 1e3
    out.notes["raw_cli_p90_ms"] = percentile(raw, 90) * 1e3
    out.notes["speed_scale"] = speed.median_scale
    out.notes["samples"] = len(walls)


def _replay(cli, order: list[int], out: Outcome) -> float:
    """Run one pass of the mix in-process; return its wall seconds."""
    start = time.perf_counter()
    for i in order:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(list(CLI_MIX[i][0]))
            except SystemExit as exc:
                code = exc.code
        out.record(check_invocation(i, code, stdout.getvalue(), stderr.getvalue()))
    return time.perf_counter() - start


def trace(cfg: Config, out: Outcome, tracer: Tracer) -> None:
    out.metrics.update(import_layer(cfg.import_samples))

    by_key: dict[str, list[float]] = {k: [] for k in CLI_KEYS}
    for order in _passes(cfg, cfg.seconds / 2):
        for i in order:
            argv, want_code, _ = CLI_MIX[i]
            c = run_child(cli_args(list(argv)))
            by_key[command_key(argv, want_code)].append(c.wall_s)
            out.record(check_invocation(i, c.code, c.out.decode(), c.err.decode()))
    for key, walls in by_key.items():
        out.metrics[f"cli.{key}_ms"] = statistics.median(walls) * 1e3

    from nefq2 import cli

    order = list(range(len(CLI_MIX)))
    random.Random(cfg.seed).shuffle(order)
    _replay(cli, order, out)
    untraced = [_replay(cli, order, out) for _ in range(cfg.replays)]
    with instrumented(tracer):
        traced = [_replay(cli, order, out) for _ in range(cfg.replays)]
    out.metrics["trace.untraced_s"] = statistics.median(untraced)
    out.metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
