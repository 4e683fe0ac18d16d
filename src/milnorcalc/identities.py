"""Randomized exact verification of the derived Milnor-class formulas.

The expansion and the telescoped sum are algebraic consequences of the
product rule once every factor satisfies

    cfj_i = csm_i + (-1)^(n - d_i) m_i,

where d_i is the codimension of the factor.  These checks draw random
classes with bounded integer coefficients, impose that relation, and
compare the routes for exact equality in the truncated ring.  Exact
arithmetic means a failure is a real counterexample, never noise, and
the bounded coefficients lose no generality for polynomial identities
of bounded degree.
"""

from __future__ import annotations

import random
from functools import lru_cache
from operator import add, sub

from .chow import ChowClass, _from_ints
from .engine import milnor_expansion, milnor_product, milnor_telescope
from .records import Record

COEFF_RANGE = (-9, 9)
CODIM_RANGE = (1, 5)


class RandomInstance(Record):
    """One random trial: factor classes tied together by the sign relation,
    which gives ``cfj_list``, set once when the trial is built."""

    seed: int
    n: int
    r: int
    codims: tuple[int, ...]
    csm_list: tuple[ChowClass, ...]
    m_list: tuple[ChowClass, ...]

    def __post_init__(self):
        # csm +- m straight from the coefficients, so a trial adds no class
        cfj, n = [], self.n
        for csm, m, d in zip(self.csm_list, self.m_list, self.codims):
            if csm.ambient_dim != m.ambient_dim:
                csm._check_compatible(m)
            cfj.append(_from_ints(csm.ambient_dim, tuple(map(sub if (n - d) % 2 else add, csm.coeffs, m.coeffs))))
        object.__setattr__(self, "cfj_list", tuple(cfj))

    @property
    def dim_x(self) -> int:
        return self.n - sum(self.codims)


def _draws(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``[rng.randint(lo, hi) for _ in range(count)]`` without its per-call cost: CPython's
    ``randint`` draws getrandbits with rejection (3.10-3.13), so a seed keeps its trials.
    An empty range raises ``ValueError`` before the first draw, as ``randint`` does."""
    width = hi - lo + 1
    if width <= 0 and count > 0:
        raise ValueError(f"empty range in randint({lo}, {hi})")
    k, getrandbits, out = width.bit_length(), rng.getrandbits, []
    for _ in range(count):
        x = getrandbits(k)
        while x >= width:
            x = getrandbits(k)
        out.append(lo + x)
    return out


def random_instance(rng: random.Random, n: int, r: int, seed: int) -> RandomInstance:
    codims = tuple(_draws(rng, *CODIM_RANGE, r))
    num = _draws(rng, *COEFF_RANGE, 2 * r * (n + 1))  # the csm classes, then the Milnor classes
    classes = tuple(_from_ints(n, tuple(num[i:i + n + 1])) for i in range(0, len(num), n + 1))
    return RandomInstance(seed, n, r, codims, classes[:r], classes[r:])


class IdentityReport(Record):
    identity: str
    n: int
    r: int
    trials: int
    seed: int
    failures: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        line = (
            f"{self.identity}: n={self.n} r={self.r} trials={self.trials} "
            f"seed={self.seed} failures={len(self.failures)}"
        )
        if self.failures:
            line += f" (trials {', '.join(map(str, self.failures))})"
        return line


@lru_cache(maxsize=1)
def check_identities(n: int, r: int, trials: int = 100, seed: int = 0):
    """Both identities on one seeded run: (expansion report, telescope report).

    Each trial is drawn once and its product-rule side formed once, then
    compared exactly with the expansion and with the telescoped sum.  The
    memo keeps only the last pair of reports, so the two ``check_*``
    views of one (n, r, trials, seed) share a run.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    expansion, telescope = [], []
    for index in range(trials):
        inst = random_instance(rng, n, r, seed)
        m_list, csm_list, codims = inst.m_list, inst.csm_list, inst.codims
        lhs = milnor_product(inst.cfj_list, csm_list, n, inst.dim_x)
        if lhs != milnor_expansion(m_list, csm_list, codims, n):
            expansion.append(index)
        if lhs != milnor_telescope(m_list, csm_list, inst.cfj_list, codims, n):
            telescope.append(index)
    return (
        IdentityReport("expansion identity", n, r, trials, seed, tuple(expansion)),
        IdentityReport("telescope identity (cor11)", n, r, trials, seed, tuple(telescope)),
    )


def check_expansion_identity(n: int, r: int, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Expansion route against the product rule, trial by trial."""
    return check_identities(n, r, trials, seed)[0]


def check_telescope_identity(n: int, r: int, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Telescoped sum against the product rule, trial by trial."""
    return check_identities(n, r, trials, seed)[1]


def sweep(n_range=range(2, 9), max_r: int = 4, trials: int = 100, seed: int = 0):
    """Both identities over the full grid; yields one report per cell."""
    for n in n_range:
        for r in range(1, min(max_r, n) + 1):
            yield from check_identities(n, r, trials, seed)
