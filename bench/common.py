"""Shared plumbing: repository paths, cold child processes, set-up sampling,
import-time parsing and small statistics helpers.

Every child runs from the repository root with ``PYTHONPATH=src``, one at a
time, so load comes from a single client process.
"""

from __future__ import annotations

import os
import resource
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: A cold child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0


def require_program() -> None:
    """Exit with status 1 unless the library and the test oracle are present."""
    missing = [
        p
        for p in (SRC / "nefq2" / "cli.py", ROOT / "tests" / "whitney_oracle.py")
        if not p.is_file()
    ]
    if missing:
        names = ", ".join(str(p.relative_to(ROOT)) for p in missing)
        print(f"bench: program files missing: {names}", file=sys.stderr)
        raise SystemExit(1)
    for path in (str(ROOT / "tests"), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass(frozen=True)
class Child:
    """Outcome of one cold child process."""

    code: int
    out: bytes
    err: bytes
    wall_s: float
    maxrss_mb: float


def _drain(p: subprocess.Popen, deadline: float) -> tuple[bytes, bytes]:
    chunks: dict[int, list[bytes]] = {p.stdout.fileno(): [], p.stderr.fileno(): []}
    with selectors.DefaultSelector() as sel:
        sel.register(p.stdout, selectors.EVENT_READ)
        sel.register(p.stderr, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                p.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    out = b"".join(chunks[p.stdout.fileno()])
    err = b"".join(chunks[p.stderr.fileno()])
    p.stdout.close()
    p.stderr.close()
    return out, err


def run_child(args: list[str]) -> Child:
    """Run ``python <args>`` cold and wait for it with ``os.wait4``, so the
    child's own peak RSS is known.  Wall time runs from spawn to reaping."""
    start = time.perf_counter()
    p = subprocess.Popen(
        [sys.executable, *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
    )
    try:
        out, err = _drain(p, start + CHILD_TIMEOUT_S)
    finally:
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return Child(p.returncode, out, err, wall, usage.ru_maxrss / 1024.0)


def cli_args(argv: list[str]) -> list[str]:
    return ["-m", "nefq2.cli", *argv]


IMPORT_ARGS = ["-c", "import nefq2.cli"]


#: Iterations of the compute and value-object probes.
PROBE_LOOPS = 60_000
OBJECT_PROBE_ADDS = 5_000
#: Reference speed: the wall seconds each probe takes on the reference
#: machine state that reported times are scaled to.
COMPUTE_REF_S = 0.004
OBJECT_REF_S = 0.004
INTERPRETER_REF_S = 0.045


def compute_probe() -> float:
    """Wall seconds of a fixed pure-Python integer loop that runs no nefq2
    code and allocates nothing that lives past one iteration."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - start


@dataclass(frozen=True)
class _Pair:
    """A validated frozen value type, the shape of work the library's value
    types do; the benchmark's own, so nefq2 changes do not move it."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not isinstance(self.a, int) or not isinstance(self.b, int):
            raise TypeError("pair coordinates must be integers")

    def __add__(self, other: _Pair) -> _Pair:
        return _Pair(self.a + other.a, self.b + other.b)


def object_probe() -> float:
    """Wall seconds of a fixed chain of frozen-dataclass additions."""
    start = time.perf_counter()
    p, step = _Pair(0, 0), _Pair(1, -1)
    for _ in range(OBJECT_PROBE_ADDS):
        p = p + step
    return time.perf_counter() - start


def interpreter_probe() -> float:
    """Wall seconds of a cold ``python -c pass``."""
    return run_child(["-c", "pass"]).wall_s


class Speed:
    """Calibration probes paired with each measured sample.

    The machine is shared and its speed drifts by tens of percent within
    seconds; the drift moves a probe of the same kind as the workload (a
    cold interpreter start next to cold processes, a pure-Python loop next
    to a compute-bound child, value-object arithmetic next to library
    calls) and the sample beside it alike.  Each sample is scaled by
    the reference probe time over the median of its own probes, so it
    reads as a wall time at the reference speed.  No probe runs nefq2 code.
    """

    def __init__(self, probe: Callable[[], float], ref_s: float) -> None:
        self.probe = probe
        self.ref_s = ref_s
        self.scales: list[float] = []
        self._window: list[float] = []

    @classmethod
    def compute(cls) -> Speed:
        return cls(compute_probe, COMPUTE_REF_S)

    @classmethod
    def objects(cls) -> Speed:
        return cls(object_probe, OBJECT_REF_S)

    @classmethod
    def interpreter(cls) -> Speed:
        return cls(interpreter_probe, INTERPRETER_REF_S)

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self._window.append(self.probe())

    def take(self) -> float:
        """The scale for the sample measured between the probes taken since
        the previous call."""
        scale = self.ref_s / statistics.median(self._window)
        self._window = []
        self.scales.append(scale)
        return scale

    @property
    def median_scale(self) -> float:
        return statistics.median(self.scales)


def sample_setup(samples: int) -> tuple[float, float, int]:
    """Median wall seconds of a cold ``import nefq2.cli`` process, after one
    warm-up child that leaves the bytecode cache written, with an
    interpreter-start probe before each child.  Returns the median at
    reference speed, the raw median and the number of samples that failed."""
    run_child(IMPORT_ARGS)
    speed = Speed.interpreter()
    raw, scaled, failed = [], [], 0
    for _ in range(samples):
        speed.sample()
        c = run_child(IMPORT_ARGS)
        if c.code != 0:
            failed += 1
        raw.append(c.wall_s)
        scaled.append(c.wall_s * speed.take())
    return statistics.median(scaled), statistics.median(raw), failed


#: Modules whose self import time the ``import`` layer reports.
IMPORT_MODULES = ("picard", "cohomology", "ktheory", "quiver", "bondal", "catalog", "errors", "cli")


def parse_importtime(stderr: str) -> dict[str, tuple[int, int, int]]:
    """Map module name -> (self us, cumulative us, depth) from the output of
    ``python -X importtime``."""
    table: dict[str, tuple[int, int, int]] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        table[name] = (int(parts[0]), int(parts[1]), depth)
    return table


def import_layer(samples: int) -> dict[str, float]:
    """The ``import`` layer: per-module self times, the package total and
    the bare interpreter start, each a median over cold children."""
    per_module: dict[str, list[int]] = {m: [] for m in IMPORT_MODULES}
    own: list[int] = []
    totals: list[int] = []
    interp: list[float] = []
    run_child(["-X", "importtime", *IMPORT_ARGS])
    for _ in range(samples):
        c = run_child(["-X", "importtime", *IMPORT_ARGS])
        if c.code != 0:
            raise RuntimeError(f"import of nefq2.cli failed: {c.err.decode(errors='replace')}")
        table = parse_importtime(c.err.decode())
        for m in IMPORT_MODULES:
            per_module[m].append(table[f"nefq2.{m}"][0])
        own.append(sum(s for name, (s, _, _) in table.items() if name == "nefq2" or name.startswith("nefq2.")))
        totals.append(
            sum(
                cum
                for name, (_, cum, depth) in table.items()
                if depth == 0 and (name == "nefq2" or name.startswith("nefq2."))
            )
        )
        interp.append(run_child(["-c", "pass"]).wall_s)
    metrics = {f"import.{m}_us": float(statistics.median(v)) for m, v in per_module.items()}
    metrics["import.total_us"] = float(statistics.median(totals))
    metrics["import.self_s"] = statistics.median(own) / 1e6
    metrics["import.interpreter_ms"] = statistics.median(interp) * 1e3
    return metrics


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile, as ``statistics.quantiles(n=100)`` gives it."""
    return statistics.quantiles(values, n=100)[pct - 1]


def self_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
