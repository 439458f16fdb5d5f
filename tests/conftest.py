import pytest

from rpkit.algebra import Algebra, AlgebraConfig
from rpkit.reconstruction import shift_family
from rpkit.verifier import clear_plans, form_matrix

_CACHE = {}
acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def make_algebra(d, m):
    """Algebras are immutable; share one context per (d, m) across tests."""
    key = (d, m)
    if key not in _CACHE:
        _CACHE[key] = Algebra(AlgebraConfig(d, m))
    return _CACHE[key]


def family_form(omega, algebra, basis, steps=1):
    """The form over the basis and its new shift images by `steps`, and the
    shift index, as reconstruct builds them for transfer_operator."""
    family, shifted = shift_family(basis, steps, algebra.cfg)
    return form_matrix(omega, algebra, family), shifted


@pytest.fixture(autouse=True)
def no_cached_plans():
    """Each test starts with an empty plan cache (verifier.cached), so that
    what it sees does not hang on the tests before it: a plan kept by one
    of them would, for one, hide the word tables from a patched
    verifier._weyl_words."""
    clear_plans()


@pytest.fixture
def algebra_factory():
    return make_algebra


def random_element(algebra, rng, terms=4):
    H = algebra.zero()
    cfg = algebra.cfg
    for _ in range(terms):
        k = tuple(int(x) for x in rng.integers(0, cfg.d, cfg.m))
        H = H + complex(rng.normal(), rng.normal()) * algebra.monomial(k)
    return H


def random_plus_element(algebra, rng, terms=3):
    cfg = algebra.cfg
    w = cfg.m // 2
    H = algebra.zero()
    for _ in range(terms):
        k = tuple([0] * w + [int(x) for x in rng.integers(0, cfg.d, w)])
        H = H + complex(rng.normal(), rng.normal()) * algebra.monomial(k)
    return H
