"""Pinned figure-style experiment grids, as config documents.

Each preset is a list of documents in the `zenocool run` config format
(docs/config_schema.json); `preset_sweeps` reads them with
`sweeps.parse_config`, and the rows of their sweeps are concatenated into
one CSV.  Contour presets use Jtau in [0, 2pi] at 64 points and rounds up
to 200; line presets pin whatever the underlying experiment fixes.
"""
from __future__ import annotations

import math

import numpy as np

from .sweeps import ConfigError, SweepSpec, parse_config

JTAU_CONTOUR = tuple(float(x) for x in np.linspace(0.0, 2.0 * math.pi, 64))
THETA_CONTOUR = tuple(float(x) for x in np.linspace(-math.pi, math.pi, 64))

PRESETS = {
    # rank-1 XX cooling vs rounds for two couplings, d = 2..5
    "fig2": [{"base": {"model": "xxz", "d": 3, "tau": 1.2, "N": 200, "k": 1},
              "axes": {"d": [2, 3, 4, 5], "Jtau": [1.2, 4.5]}}],
    # rank-1 bilinear-biquadratic cooling vs rounds across phase parameters
    "fig3": [{"base": {"model": "bbh", "d": 3, "tau": 1.0, "N": 100, "k": 1},
              "axes": {"d": [3, 4], "theta": [-5 * math.pi / 8, -math.pi / 8,
                                              math.pi / 2, 3 * math.pi / 4]}}],
    # rank-2 XXZ (Delta = 1) fidelity contours over (Jtau, N); `include_d5` adds d = 5
    "fig4": [{"base": {"model": "xxz", "Delta": 1.0, "d": 3, "N": 200, "k": 2},
              "axes": {"d": [2, 3, 4], "Jtau": list(JTAU_CONTOUR)}}],
    # rank-2 fidelity vs Jtau after 100 rounds, Delta in {0, 1}
    "fig5": [{"base": {"model": "xxz", "Delta": delta, "d": 3, "N": 100, "k": 2},
              "axes": {"d": [2, 3, 4, 5], "Jtau": list(JTAU_CONTOUR), "N": [100]}}
             for delta in (0.0, 1.0)],
    # success-probability data for the rank-2 vs rank-1 gap across d and N; the gap is
    # obtained from the CSV by differencing cum_probability between the k=2 and k=1 rows
    # at matched (d, N_step)
    "fig6": [{"base": {"model": "xxz", "Delta": 1.0, "d": 3, "N": 50, "k": 2},
              "axes": {"d": [3, 4, 5, 6, 7, 8], "k": [1, 2]}}],
    # d = 31 XX rank sweep at Jtau = 3: probability and fidelity vs projector rank
    "fig7": [{"base": {"model": "xxz", "d": 31, "tau": 3.0, "N": 50, "k": 1},
              "axes": {"k": list(range(1, 16)), "N": [20, 50]}}],
    # L = 4 rank-2 chains: XXZ contour over (Jtau, N) and BBH contour over (theta, N)
    "fig_chain": [{"base": {"model": "xxz", "Delta": 1.0, "d": 3, "L": 4, "N": 200, "k": 2},
                   "axes": {"Jtau": list(JTAU_CONTOUR)}},
                  {"base": {"model": "bbh", "d": 3, "L": 4, "N": 200, "k": 2},
                   "axes": {"theta": list(THETA_CONTOUR)}}],
    # L = 4 star with the regulator at the hub, rank 2, contour over (Jtau, N)
    "fig_star": [{"base": {"topology": "star", "model": "spin_star", "d": 3, "L": 4,
                           "N": 200, "k": 2},
                  "axes": {"Jtau": list(JTAU_CONTOUR)}}],
    # open-system rank-2 XXZ contours: bath on the target at T = 1, gamma = 1e-3
    "fig8": [{"base": {"model": "xxz", "Delta": 1.0, "d": 3, "N": 200, "k": 2,
                       "bath": {"temperature": 1.0, "gamma": 1e-3, "omega": 1.0}},
              "axes": {"d": [3, 4], "Jtau": list(JTAU_CONTOUR)}}],
}


def preset_sweeps(preset_id: str, include_d5: bool = False) -> list[SweepSpec]:
    """The preset's sweeps; `include_d5` adds fig4's d = 5 panel."""
    if preset_id not in PRESETS:
        raise ConfigError(f"unknown preset id {preset_id!r}; available: {sorted(PRESETS)}")
    docs = PRESETS[preset_id]
    if include_d5:
        if preset_id != "fig4":
            raise ConfigError(f"--include-d5: only fig4 has a d=5 panel, not {preset_id}")
        docs = [{**doc, "axes": {**doc["axes"], "d": doc["axes"]["d"] + [5]}} for doc in docs]
    return [parse_config(doc, preset_id=preset_id) for doc in docs]
