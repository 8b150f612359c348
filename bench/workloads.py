"""The benchmark's workloads, built from the package's figure presets.

Each workload is a list of `SweepSpec`s that one `write_results` call runs.
The seed chooses which points of the 64-point Jtau/theta contour grids are
run: each contour is cut into `STRATA` runs of adjacent grid values and one
value is drawn from each, so every seed runs the same number of points
spread over the same ranges and the work per run stays comparable.  Sweeps
without a contour axis run whole, whatever the seed.  `seed=None` gives the
full contour grids, which is what the recorded reference values cover.
"""
from __future__ import annotations

import dataclasses
import random
from typing import Optional

from zenocool.hamiltonians import SystemLayout
from zenocool.presets import JTAU_CONTOUR, THETA_CONTOUR, preset_sweeps
from zenocool.protocol import ProtocolConfig
from zenocool.sweeps import SweepSpec

NAMES = ("closed_large", "closed_small", "open_bath")
STRATA = {"closed_large": 4, "closed_small": 16, "open_bath": 8}
# the L=2 bath chain costs ~0.7 s a point, so it gets half the strata
OPEN_L2_STRATA = 4

WHY = {
    "closed_large": "dense closed rounds at D=243-961 (L=4 chains, star, d=31 rank sweep): "
                    "round-map matmuls and eigh dominate",
    "closed_small": "closed single-target chains with D<=64 (fig2/3/4/6): per-round fidelity "
                    "extraction, per-point set-up and CSV formatting dominate",
    "open_bath": "fig8-style bath on the farthest target, L=1 d=3,4 and L=2 d=3: Liouvillian "
                 "build, expm and superoperator matvecs dominate",
}


def _pick(grid: tuple[float, ...], strata: int, rng: Optional[random.Random]) -> tuple[float, ...]:
    if rng is None:
        return grid
    size = len(grid) // strata
    return tuple(grid[i * size + rng.randrange(size)] for i in range(strata))


def sweeps(name: str, seed: Optional[int]) -> list[SweepSpec]:
    """The workload's sweeps for a seed; `seed=None` runs the full contours."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    rng = None if seed is None else random.Random(seed)
    strata = STRATA[name]
    if name == "closed_large":
        xxz, bbh = preset_sweeps("fig_chain")
        (star,) = preset_sweeps("fig_star")
        return [
            dataclasses.replace(xxz, jtau_axis=_pick(JTAU_CONTOUR, strata, rng)),
            dataclasses.replace(bbh, theta_axis=_pick(THETA_CONTOUR, strata, rng)),
            dataclasses.replace(star, jtau_axis=_pick(JTAU_CONTOUR, strata, rng)),
            *preset_sweeps("fig7"),
        ]
    if name == "closed_small":
        (fig4,) = preset_sweeps("fig4")
        return [
            *preset_sweeps("fig2"),
            *preset_sweeps("fig3"),
            dataclasses.replace(fig4, jtau_axis=_pick(JTAU_CONTOUR, strata, rng)),
            *preset_sweeps("fig6"),
        ]
    (fig8,) = preset_sweeps("fig8")
    chain2 = dataclasses.replace(fig8.base, layout=SystemLayout("chain", 2, 3))
    return [
        dataclasses.replace(fig8, jtau_axis=_pick(JTAU_CONTOUR, strata, rng)),
        SweepSpec(base=chain2, preset_id="fig8",
                  jtau_axis=_pick(JTAU_CONTOUR, OPEN_L2_STRATA, rng)),
    ]


def reference_point(name: str) -> ProtocolConfig:
    """The one grid point per workload that the traced run probes (all at Jtau = 1)."""
    if name == "closed_large":
        return preset_sweeps("fig_chain")[0].base          # XXZ L=4 d=3 rank 2
    if name == "closed_small":
        base = preset_sweeps("fig4")[0].base
        return dataclasses.replace(base, layout=SystemLayout("chain", 1, 4))
    base = preset_sweeps("fig8")[0].base
    return dataclasses.replace(base, layout=SystemLayout("chain", 2, 3))


def requested_rounds(specs: list[SweepSpec]) -> int:
    """Measurement rounds the sweeps ask for: the engine runs each point to its largest N."""
    return sum(spec.config_at(point).n_measurements for spec in specs for point in spec.grid())
