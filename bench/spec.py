"""What the benchmark measures: workloads, metric names and units.

``BENCHMARK.json`` at the repository root declares the same names; the
benchmark's tests hold the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from common import IMPORT_MODULES
from tracing import LAYERS, OWN_SPANS, SPAN_NAMES

WORKLOADS = ("cli_cold", "sweep_json", "library_mix")

#: End-to-end metrics, reported by every untraced run of every workload.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: ``cli.<key>_ms`` keys: the first word of each command in the CLI mix,
#: with the exit-2 usage errors grouped apart.
CLI_KEYS = ("cohomology", "chi", "twist", "ses", "bondal", "catalog", "verify", "usage_error")


def _per_layer() -> dict[str, str]:
    units = {f"import.{m}_us": "us" for m in IMPORT_MODULES}
    units.update({"import.total_us": "us", "import.self_s": "s", "import.interpreter_ms": "ms"})
    units.update({f"cli.{k}_ms": "ms" for k in CLI_KEYS})
    for span in SPAN_NAMES:
        if span in OWN_SPANS:
            units[f"{span}_s"] = "s"
        else:
            units[f"{span}_us"] = "us"
        units[f"{span}_calls"] = "count"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["serialize.bytes"] = "bytes"
    units.update({"trace.untraced_s": "s", "trace.overhead_s": "s", "trace.spans": "count"})
    return units


#: Per-layer metrics, reported by every traced run of every workload; a
#: layer a workload does not call reports zero calls.
PER_LAYER = _per_layer()


@dataclass(frozen=True)
class Config:
    seed: int
    seconds: float
    quick: bool = False

    @property
    def setup_samples(self) -> int:
        return 3 if self.quick else 9

    @property
    def import_samples(self) -> int:
        return 2 if self.quick else 5

    @property
    def rank_max(self) -> int:
        """Top rank of the sweep_json workload: the large-sweep case scaled
        from 1000 to 300, so a run holds enough sweeps for a steady median."""
        return 20 if self.quick else 300

    @property
    def stream_blocks(self) -> int:
        """library_mix stream length, in blocks of 100 calls."""
        return 2 if self.quick else 40

    @property
    def replays(self) -> int:
        """In-process replays per side when measuring tracing overhead."""
        return 1 if self.quick else 5


@dataclass
class Outcome:
    """What one run of one workload measured."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
