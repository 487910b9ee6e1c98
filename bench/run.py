"""Run the nefq2 benchmark.

    python3 bench/run.py --workload cli_cold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, untraced
    python3 bench/run.py --workload all --quick    # smoke mode, a few seconds

Untraced runs (``--trace 0``) report the end-to-end metrics; traced runs
(``--trace 1``) report the per-layer metrics and write their spans to
``bench/out/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines
before it give the environment, every metric with its unit, and the
figures the workloads are known by (``cli_p90_ms``, ``error_rate``, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS, Config, Outcome  # noqa: E402


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(cfg: Config) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "quick": cfg.quick,
        "setup_samples": cfg.setup_samples,
        "rank_max": cfg.rank_max,
        "library_stream_calls": 100 * cfg.stream_blocks,
    }


def run_workload(name: str, cfg: Config, traced: bool) -> tuple[Outcome, dict]:
    import cli_cold
    import library_mix
    import sweep_json

    module = {"cli_cold": cli_cold, "sweep_json": sweep_json, "library_mix": library_mix}[name]
    out = Outcome()
    env = environment(cfg) | {"workload": name, "trace": int(traced)}
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        module.trace(cfg, out, tracer)
        out.metrics.update(tracer.summary())
        out.metrics["trace.spans"] = len(tracer)
        unknown = set(out.metrics) - set(PER_LAYER)
        if unknown:
            raise AssertionError(f"undeclared per-layer metrics {sorted(unknown)}")
        tracer.write(common.OUT_DIR / f"trace-{name}-seed{cfg.seed}.json.gz", env)
        units = PER_LAYER
    else:
        setup_s, raw_setup_s, setup_failed = common.sample_setup(cfg.setup_samples)
        out.attempted += cfg.setup_samples
        out.failed += setup_failed
        module.measure(cfg, out)
        out.metrics["setup_s"] = setup_s
        out.notes["raw_setup_s"] = raw_setup_s
        units = END_TO_END
    env["samples"] = out.notes.get("samples")
    metrics = {k: {"value": out.metrics.get(k, 0), "unit": unit} for k, unit in units.items()}
    return out, {"environment": env, "metrics": metrics, "notes": out.notes, "problems": out.problems}


def _report(name: str, out: Outcome, record: dict) -> None:
    print(f"== {name}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    for key, m in record["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for key, value in out.notes.items():
        print(f"  ({key} = {value:.6g})" if isinstance(value, float) else f"  ({key} = {value})")
    print(f"  error_rate = {out.failed / max(out.attempted, 1):.6g} ratio ({out.failed} of {out.attempted} failed)")
    for problem in out.problems:
        print(f"  FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smoke mode: small sweep, short stream, few samples")
    args = parser.parse_args(argv)

    common.require_program()
    cfg = Config(seed=args.seed, seconds=args.seconds, quick=args.quick)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out, record = run_workload(name, cfg, bool(args.trace))
        _report(name, out, record)
        path = common.OUT_DIR / f"result-{name}-seed{cfg.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        combined["correct"] = combined["correct"] and out.failed == 0
        combined["attempted"] += out.attempted
        combined["failed"] += out.failed
        prefix = "" if len(names) == 1 else name + "."
        combined["metrics"].update({prefix + k: m for k, m in record["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
