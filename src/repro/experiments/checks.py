"""Runtime shape checks: does this run reproduce the paper's claims?

``repro-experiments --check`` evaluates the DESIGN.md §4 shape targets
against a live run of the suite and prints PASS/FAIL per claim — the
release-artifact twin of ``tests/test_paper_claims.py`` (which pins the
same claims in CI).  Each check carries the paper's sentence it
verifies, so a failing check names exactly which published result the
current configuration breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..common.config import CacheConfig
from ..common.stats import percent, safe_div
from ..specs import MultiWayStreamBufferSpec, StreamBufferSpec
from .base import run_point_columns
from .figure_5_1 import IMPROVED_DSTRUCTURE, IMPROVED_ISTRUCTURE
from .sweeps import batch_entry_sweeps
from .workloads import suite

__all__ = ["ShapeCheck", "CheckOutcome", "run_checks", "render_outcomes"]

CONFIG = CacheConfig(4096, 16)

SB1 = StreamBufferSpec(4)
SB4 = MultiWayStreamBufferSpec(4, 4)
#: The abstract's combined system: Figure 5-1's improved structures.
COMBINED = {"i": IMPROVED_ISTRUCTURE, "d": IMPROVED_DSTRUCTURE}


@dataclass(frozen=True)
class ShapeCheck:
    """One verifiable claim: identity, the paper's wording, a predicate."""

    check_id: str
    claim: str
    predicate: Callable[[Dict], bool]
    detail: Callable[[Dict], str]


@dataclass
class CheckOutcome:
    check: ShapeCheck
    passed: bool
    detail: str


def _average(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _measurements(traces) -> Dict:
    """One pass of everything the checks need."""
    names = [trace.name for trace in traces]
    data: Dict = {
        "vc": dict(zip(names, batch_entry_sweeps(traces, CONFIG, kind="victim", sides=("d",)))),
        "mc": dict(zip(names, batch_entry_sweeps(traces, CONFIG, kind="miss", sides=("d",)))),
    }
    # Combined system: misses reaching L2, base vs improved.
    base_total = improved_total = 0
    for side in ("i", "d"):
        bases, singles, multis, combined = run_point_columns(
            traces, CONFIG, [None, SB1, SB4, COMBINED[side]], side=side
        )
        single: Dict[str, Optional[float]] = {}
        multi: Dict[str, Optional[float]] = {}
        for name, base, sb1, sb4 in zip(names, bases, singles, multis):
            if base.demand_misses == 0:
                single[name] = None
                multi[name] = None
                continue
            single[name] = percent(sb1.removed_misses, base.demand_misses)
            multi[name] = percent(sb4.removed_misses, base.demand_misses)
        data[f"sb1_{side}"] = single
        data[f"sb4_{side}"] = multi
        base_total += sum(s.misses_to_next_level for s in bases)
        improved_total += sum(s.misses_to_next_level for s in combined)
    data["combined"] = (base_total, improved_total)
    return data


def _vc_beats_mc(data: Dict) -> bool:
    return all(
        data["vc"][name].removed(k) >= data["mc"][name].removed(k)
        for name in data["vc"]
        for k in (1, 2, 4, 15)
    )


_CHECKS: List[ShapeCheck] = [
    ShapeCheck(
        "victim_ge_miss",
        '"Victim caching is always an improvement over miss caching" (SS3.2)',
        _vc_beats_mc,
        lambda d: "checked at 1/2/4/15 entries on every benchmark",
    ),
    ShapeCheck(
        "vc1_useful",
        '"victim caches consisting of just one line are useful, in contrast to miss caches" (SS3.2)',
        lambda d: _average(
            [s.percent_of_misses_removed(1) for s in d["vc"].values()]
        ) > 3 * max(0.5, _average([s.percent_of_misses_removed(1) for s in d["mc"].values()])),
        lambda d: (
            f"VC1 removes {_average([s.percent_of_misses_removed(1) for s in d['vc'].values()]):.1f}% "
            f"of data misses vs MC1 {_average([s.percent_of_misses_removed(1) for s in d['mc'].values()]):.1f}%"
        ),
    ),
    ShapeCheck(
        "saturates_at_4",
        '"After four entries the improvement from additional miss cache entries is minor" (SS3.1)',
        lambda d: all(
            (s.removed(15) - s.removed(4)) <= max(10, 0.25 * s.total_misses)
            for s in d["vc"].values()
        ),
        lambda d: "15-entry gain over 4-entry stays under a quarter of all misses",
    ),
    ShapeCheck(
        "sb_i_beats_d",
        "single stream buffer removes far more I-misses (72%) than D-misses (25%) (SS4.2)",
        lambda d: _average([v for v in d["sb1_i"].values() if v is not None])
        > 2 * _average([v for v in d["sb1_d"].values() if v is not None]),
        lambda d: (
            f"I {_average([v for v in d['sb1_i'].values() if v is not None]):.1f}% "
            f"vs D {_average([v for v in d['sb1_d'].values() if v is not None]):.1f}%"
        ),
    ),
    ShapeCheck(
        "multiway_doubles_d",
        '"the multi-way stream buffer can remove 43% ... almost twice the performance of the single stream buffer" (SS4.2)',
        lambda d: _average([v for v in d["sb4_d"].values() if v is not None])
        > 1.5 * _average([v for v in d["sb1_d"].values() if v is not None]),
        lambda d: (
            f"4-way {_average([v for v in d['sb4_d'].values() if v is not None]):.1f}% "
            f"vs single {_average([v for v in d['sb1_d'].values() if v is not None]):.1f}%"
        ),
    ),
    ShapeCheck(
        "multiway_i_unchanged",
        '"the performance on the instruction stream remains virtually unchanged" (SS4.2)',
        lambda d: all(
            d["sb4_i"][name] <= d["sb1_i"][name] + 10.0
            for name in d["sb1_i"]
            if d["sb1_i"][name] is not None
        ),
        lambda d: "4-way within 10 points of single on every benchmark's I-side",
    ),
    ShapeCheck(
        "liver_multiway_jump",
        "liver jumps from 7% to 60% with the multi-way buffer (SS4.2)",
        lambda d: d["sb4_d"]["liver"] is not None
        and d["sb1_d"]["liver"] is not None
        and d["sb4_d"]["liver"] > 4 * max(1.0, d["sb1_d"]["liver"]),
        lambda d: f"liver: single {d['sb1_d']['liver']:.1f}% -> 4-way {d['sb4_d']['liver']:.1f}%",
    ),
    ShapeCheck(
        "combined_halves_misses",
        '"reduce the miss rate of the first level in the cache hierarchy by a factor of two to three" (abstract)',
        lambda d: d["combined"][1] * 2 < d["combined"][0],
        lambda d: (
            f"misses reaching L2: {d['combined'][0]} -> {d['combined'][1]} "
            f"({safe_div(d['combined'][0], max(1, d['combined'][1])):.1f}x)"
        ),
    ),
    ShapeCheck(
        "met_strongest_vc",
        "met has by far the highest removable conflict ratio (SS3.1 / Figure 3-3)",
        lambda d: max(
            d["vc"], key=lambda n: d["vc"][n].percent_of_misses_removed(4)
        )
        == "met",
        lambda d: f"met VC4 removes {d['vc']['met'].percent_of_misses_removed(4):.1f}% of its data misses",
    ),
]


def run_checks(scale: Optional[int] = None, seed: int = 0) -> List[CheckOutcome]:
    """Evaluate every shape check against a live run of the suite at *scale*."""
    data = _measurements(suite(scale, seed))
    outcomes = []
    for check in _CHECKS:
        try:
            passed = bool(check.predicate(data))
            detail = check.detail(data)
        except Exception as error:  # a broken claim should report, not crash
            passed = False
            detail = f"check raised {type(error).__name__}: {error}"
        outcomes.append(CheckOutcome(check, passed, detail))
    return outcomes


def render_outcomes(outcomes: List[CheckOutcome]) -> str:
    lines = ["shape checks against the paper's claims:"]
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        lines.append(f"  [{status}] {outcome.check.check_id}: {outcome.check.claim}")
        lines.append(f"         {outcome.detail}")
    passed = sum(1 for o in outcomes if o.passed)
    lines.append(f"{passed}/{len(outcomes)} checks passed")
    return "\n".join(lines)
