"""Seeded command lists for the benchmark workloads.

A workload is a list of :class:`Command`: the CLI arguments the program
receives (without the output flag, which the runner adds) and the
parameters the oracle needs to check the output.  The same seed always
gives the same list.  Negative numbers are passed as ``--opt=value`` so
that argparse never mistakes them for flags.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from oracles import linewidth, pulled_pair, threshold


class Command(NamedTuple):
    kind: str      # selects the oracle, e.g. "fig2" or "peaks"
    argv: tuple    # CLI arguments after the program name
    params: dict   # inputs the oracle checks the output against


PAPER_ZETA = -10.0
DENSE_POINTS = 1_000_000


def _opt(name, value):
    return f"--{name}={value!r}"


def figures(seed):
    """The four figure pipelines at the paper's parameters.

    The figure CLI exposes only --zeta, so the seed is not used.
    """
    del seed
    return [Command(fig, ("figures", fig, _opt("zeta", PAPER_ZETA)),
                    {"zeta": PAPER_ZETA})
            for fig in ("fig1", "fig2", "fig3", "threshold-sweep")]


def _peaks(zeta, zeta_m, margin):
    """`peaks` on a window that holds the pair near 2*pi and nothing else."""
    lower, upper = pulled_pair(zeta, zeta_m, 1)
    half = 0.5 * (upper - lower) + margin * linewidth(zeta)
    center = 0.5 * (lower + upper)
    kmin, kmax = center - half, center + half
    return Command("peaks",
                   ("peaks", _opt("zeta", zeta), _opt("zeta-m", zeta_m),
                    _opt("kmin", kmin), _opt("kmax", kmax)),
                   {"zeta": zeta, "zeta_m": zeta_m, "kmin": kmin,
                    "kmax": kmax})


def queries(seed):
    """Twelve short calls on two seeded (zeta, zeta_m) configurations.

    zeta is drawn from [-12, -8] and zeta_m below the coalescence
    threshold, so every call has a two-peak pair and a finite
    sensitivity.
    """
    rng = random.Random(seed)
    cmds = []
    for numeric in (False, True):
        zeta = -rng.uniform(8.0, 12.0)
        zeta_m = rng.uniform(0.3, 0.9) * threshold(zeta)
        element = -rng.uniform(0.5, 2.0)
        mass = rng.uniform(0.5, 2.0) * 1e-10
        mech_freq = 2.0 * math.pi * rng.uniform(0.5, 2.0) * 1e5
        temperature = rng.uniform(0.0, 10.0)
        cmds += [
            Command("splitting", ("splitting", _opt("zeta-m", zeta_m)),
                    {"zeta_m": zeta_m}),
            Command("report",
                    ("report", _opt("zeta", zeta), _opt("zeta-m", zeta_m)),
                    {"zeta": zeta, "zeta_m": zeta_m}),
            Command("threshold",
                    ("threshold", _opt("zeta", zeta))
                    + (("--numeric",) if numeric else ()),
                    {"zeta": zeta, "numeric": numeric}),
            Command("sensitivity",
                    ("sensitivity", _opt("zeta", zeta),
                     _opt("zeta-m", zeta_m), _opt("mass", mass),
                     _opt("mech-freq", mech_freq),
                     _opt("temperature", temperature),
                     _opt("wavelength", 1e-6)),
                    {"zeta": zeta, "zeta_m": zeta_m, "mass": mass,
                     "mech_freq": mech_freq}),
            Command("stack",
                    ("stack", _opt("zeta", zeta),
                     _opt("zeta-element", element),
                     _opt("n-layers", 3 if numeric else 2)),
                    {"zeta": zeta, "zeta_element": element,
                     "n_layers": 3 if numeric else 2}),
            _peaks(zeta, zeta_m, margin=6.0),
        ]
    return cmds


def dense_scan(seed):
    """A 1e6-point spectrum over 3 FSR and a ~1e6-point peak search.

    The seed sets both middle polarizabilities and both window offsets;
    each peak window holds exactly the pair near 2*pi.
    """
    rng = random.Random(seed)
    zeta_m = -rng.uniform(20.0, 400.0)
    kmin = rng.uniform(1.0, 4.0)
    kmax = kmin + 3.0 * math.pi
    spectrum = Command(
        "spectrum",
        ("spectrum", _opt("zeta", PAPER_ZETA), _opt("zeta-m", zeta_m),
         _opt("kmin", kmin), _opt("kmax", kmax),
         f"--points={DENSE_POINTS}"),
        {"zeta": PAPER_ZETA, "zeta_m": zeta_m, "kmin": kmin, "kmax": kmax,
         "points": DENSE_POINTS})
    zeta_p = -40.0
    zeta_mp = -rng.uniform(400.0, 1200.0)
    kmin_p = rng.uniform(2.0, 5.0)
    kmax_p = kmin_p + 2.0 * math.pi
    peaks = Command("peaks",
                    ("peaks", _opt("zeta", zeta_p), _opt("zeta-m", zeta_mp),
                     _opt("kmin", kmin_p), _opt("kmax", kmax_p)),
                    {"zeta": zeta_p, "zeta_m": zeta_mp, "kmin": kmin_p,
                     "kmax": kmax_p})
    return [spectrum, peaks]


WORKLOADS = {"figures": figures, "queries": queries, "dense-scan": dense_scan}
