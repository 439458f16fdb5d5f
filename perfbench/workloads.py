"""Seeded streams of rpkit checks, one per workload.

A stream is a sequence of rounds.  Every round of a workload holds the same
kinds of checks in the same order; the seed only picks the parameters inside
them (couplings, masses, inverse temperatures, draw seeds).  The run measures
whole rounds only, so two seeds load the program with the same mix and the
per-check percentiles sit at the same place in that mix, however many rounds
fit in a run.  Every model the workload names runs once per round.

The program sees only the generated configs.  The one exception to "the
benchmark knows nothing of rpkit" is the negative-coupling Hamiltonian, whose
terms come from ``rpkit.verifier.coupling_element``; it runs while the round
is generated, before any check of the round is timed or traced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("gram-ladder", "os-reconstruct", "lattice-rp")

# The ROADMAP algebra ladder.  d=4, m=8 is left out: its dense monomial cache
# would need tens of GB (65,536 monomials at 1 MiB each, computed).
GRAM_RUNGS = ((2, 8), (2, 10), (2, 12), (3, 6), (3, 8), (4, 6))
GRAM_STATES = ("trace", "theorem", "negative", "generic")
BETAS = (0.5, 1.0, 2.0)

WINDOW_MS = (8, 10, 12)
WINDOW_STEPS = (1, 2)
DRAW_RUNGS = ((2, 4), (2, 6), (3, 4), (2, 8), (3, 6))
RELATION_RUNGS = ((2, 4), (2, 6), (3, 4), (3, 6), (4, 4))

# 32^2 is left out: covariance_rp alone takes about 71 s per check at seed.
GREEN_MODELS = (((64,), "box"), ((16,), "torus"),
                ((12, 12), "box"), ((12, 12), "torus"),
                ((16, 16), "box"), ((16, 16), "torus"),
                ((20, 20), "box"), ((20, 20), "torus"),
                ((6, 6, 6), "torus"), ((8, 8, 8), "box"))
SCAN_MODELS = (((32,), "box"), ((16,), "torus"), ((8, 8), "box"), ((12, 12), "box"))
T_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 100.0)

# The level check_s.p90 reports on each workload, fixed so that both sides of
# a comparison measure the same quantile.  Levels are taken over the typical
# round (the median time of each position of the round over the run's rounds,
# see typical_round() in run.py).  Each level, and the median, falls inside a
# group of models of similar cost in the round at the seed commit, or at the
# edge of a group far from the next one:
#   gram-ladder: 6 checks a round, 2 rounds a run, so no level at or above
#     the median has ten samples beyond it; the median is reported: the
#     (2,12) rung, with (2,10) 15 times faster and (4,6) 1.5 times slower.
#   os-reconstruct: 26 checks a round; the median falls among the (2,8) draws
#     and m = 10 windows (55-75 ms), p90 among the m = 12 windows (0.45-0.65 s).
#   lattice-rp: 14 checks a round; the median is the 6^3 green check (0.12-
#     0.19 s, between 12^2 at 0.05 s and 16^2 at 0.3 s), p75 falls among 16^2
#     green and the 12^2 scan (0.3-0.35 s), where covariance_rp dominates.
TAIL_LEVEL = {"gram-ladder": 0.50, "os-reconstruct": 0.90, "lattice-rp": 0.75}


@dataclass(frozen=True)
class Check:
    """One CLI call: command, config, --seed, and the rule its outcome must meet.

    ``rule`` names an oracle in ``oracle.py``; ``params`` are its arguments.
    ``kind`` groups checks of the same size and state for per-kind timing.
    """

    kind: str
    command: str
    config: dict
    seed: int
    rule: str
    params: dict = field(default_factory=dict)


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _beta(rng) -> float:
    return float(BETAS[int(rng.integers(len(BETAS)))])


def _negative_terms(d: int, m: int, rng) -> list:
    """Hamiltonian terms of one theta-invariant coupling with J < 0."""
    from rpkit.algebra import Algebra, AlgebraConfig
    from rpkit.verifier import coupling_element, plus_basis

    algebra = Algebra(AlgebraConfig(d, m))
    basis = plus_basis(algebra.cfg)
    k = basis[int(rng.integers(1, len(basis)))]
    H = coupling_element(algebra, k, -float(rng.uniform(0.5, 2.0)))
    return [[[v.real, v.imag], list(key)] for key, v in sorted(H.coeffs.items())]


def _gram_round(r: int, rng) -> list:
    """Every rung once; its state rotates, so four rounds cover all 24 pairs.

    All four states of every rung make a round of about 50 s at the seed
    commit, longer than a run.  The rotation does not depend on the seed, so
    round r holds the same (rung, state) pairs for every seed.
    """
    return [_gram_check(d, m, GRAM_STATES[(r + i) % len(GRAM_STATES)], rng)
            for i, (d, m) in enumerate(GRAM_RUNGS)]


def _gram_check(d: int, m: int, state: str, rng) -> Check:
    cfg = {"command": "rp-gram", "d": d, "m": m}
    if state == "trace":
        cfg["state"] = "trace"
        rule = "gram-positive"
    else:
        cfg.update(state="gibbs", beta=_beta(rng))
        if state == "negative":
            cfg["hamiltonian"] = _negative_terms(d, m, rng)
            rule = "gram-negative"
        else:
            cfg["draw"] = {"family": state}
            rule = "gram-theorem" if state == "theorem" else "gram-not-applicable"
    return Check(f"rp-gram d{d}m{m} {state}", "rp-gram", cfg, _seed(rng), rule)


def _reconstruct_round(rng) -> list:
    out = []
    for m in WINDOW_MS:
        for steps in WINDOW_STEPS:
            for beta in BETAS:
                cfg = {"command": "reconstruct", "d": 2, "m": m,
                       "chain": {"coupling": float(rng.uniform(0.5, 1.5)), "beta": beta},
                       "basis_room": 2, "steps": steps}
                out.append(Check(f"reconstruct chain m{m} steps{steps}", "reconstruct",
                                 cfg, _seed(rng), "reconstruct",
                                 {"must_succeed": steps == 2}))
    for d, m in DRAW_RUNGS:
        cfg = {"command": "reconstruct", "d": d, "m": m, "state": "gibbs",
               "beta": _beta(rng), "draw": {"family": "theorem"}}
        out.append(Check(f"reconstruct draw d{d}m{m}", "reconstruct", cfg, _seed(rng),
                         "reconstruct", {"must_succeed": False}))
    d, m = RELATION_RUNGS[int(rng.integers(len(RELATION_RUNGS)))]
    out.append(Check("algebra-check", "algebra-check",
                     {"command": "algebra-check", "d": d, "m": m}, _seed(rng),
                     "algebra-relations"))
    out.append(Check("sft-check boxes", "sft-check",
                     {"command": "sft-check", "d": int(rng.integers(2, 5)), "boxes": 20},
                     _seed(rng), "sft-boxes"))
    out.append(_sequence_check(rng))
    return out


def _sequence_check(rng) -> Check:
    """A ladder coupling sequence whose DFT sign the benchmark fixes itself.

    The sequence is the inverse DFT of a real spectrum, so it is hermitian;
    one entry of the spectrum is negative in about half of the checks.
    """
    d = int(rng.integers(2, 6))
    spectrum = rng.uniform(0.2, 2.0, size=d)
    positive = bool(rng.random() < 0.5)
    if not positive:
        spectrum[int(rng.integers(d))] = -float(rng.uniform(0.2, 2.0))
    j = np.arange(d)
    seq = np.exp(-2j * np.pi * np.outer(j, j) / d) @ spectrum / d
    cfg = {"command": "sft-check", "d": d,
           "sequence": [f"{complex(z).real!r}{complex(z).imag:+.17g}j" for z in seq]}
    return Check("sft-check sequence", "sft-check", cfg, _seed(rng), "sft-sequence",
                 {"positive": positive})


def _lattice_round(rng) -> list:
    out = []
    for dims, bc in GREEN_MODELS:
        mass2 = float(rng.uniform(0.5, 4.0))
        gap = float(np.arccosh(1.0 + mass2 / 2.0)) if len(dims) == 1 and bc == "box" else None
        shape = "x".join(map(str, dims))
        out.append(Check(f"green {shape} {bc}", "green",
                         {"command": "green", "dims": list(dims), "mass2": mass2, "bc": bc},
                         _seed(rng), "green", {"chain_gap": gap}))
    for dims, bc in SCAN_MODELS:
        shape = "x".join(map(str, dims))
        out.append(Check(f"stochastic {shape} {bc}", "stochastic",
                         {"command": "stochastic", "dims": list(dims),
                          "mass2": float(rng.uniform(0.5, 4.0)), "bc": bc,
                          "t_grid": list(T_GRID)},
                         _seed(rng), "stochastic"))
    return out


class Stream:
    """Rounds of one workload, generated on demand from the workload seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = np.random.default_rng([WORKLOADS.index(workload), seed])

    def round(self, r: int) -> list:
        """Round r; call with r = 0, 1, 2, ... in order."""
        if self.workload == "gram-ladder":
            return _gram_round(r, self.rng)
        if self.workload == "os-reconstruct":
            return _reconstruct_round(self.rng)
        return _lattice_round(self.rng)
