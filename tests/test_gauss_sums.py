"""Exponential sums against direct cmath evaluation and closed forms."""

import cmath
import math

import numpy as np
import pytest

import oracles
from convsense import gauss_sums as gs


# ---------------------------------------------------------------------------
# point sums and sweeps agree with the naive float route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,mmax", [("gn", 1), ("g2n", 2),
                                       ("g8n", 8), ("qn", 1)])
@pytest.mark.parametrize("n", [5, 12, 31, 64, 101])
def test_point_sum_matches_direct(kind, mmax, n):
    for m in {0, 1, 2, n // 2, n, mmax * n}:
        want = oracles.gauss_sum_direct(kind, n, m)
        got = gs.gauss_sum(kind, n, m)
        assert abs(got - want) < 1e-7 * max(1.0, math.sqrt(max(m, 1)))


@pytest.mark.parametrize("kind,mmax", [("gn", 1), ("g2n", 2),
                                       ("g8n", 8), ("qn", 1)])
def test_sweep_matches_point_sums(kind, mmax):
    n = 37
    sweep = gs.gauss_sum_sweep(kind, n)
    assert sweep.shape[0] == mmax * n + 1
    for m in range(0, mmax * n + 1, 7):
        assert abs(sweep[m] - gs.gauss_sum(kind, n, m)) < 1e-10


def test_large_m_integer_phases_stay_exact():
    # the integer phase reduction must not lose precision where naive
    # float phases (k*k*pi) would: check a large-N point sum against an
    # fsum of exactly reduced terms
    n = 3001
    m = 8 * n
    got = gs.gauss_sum("g8n", n, m)
    ks = np.arange(m, dtype=object)
    phases = [(int(k) * int(k)) % (8 * n) for k in ks]
    want = complex(math.fsum(math.cos(math.pi * p / (4 * n))
                             for p in phases),
                   math.fsum(math.sin(math.pi * p / (4 * n))
                             for p in phases))
    assert abs(got - want) < 1e-8 * math.sqrt(m)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", list(range(1, 120)) + [255, 256, 1024, 4095])
def test_complete_closed_form(n):
    want = gs.complete_gauss_closed_form(n)
    got = oracles.gauss_sum_direct("gn", n, n)
    assert abs(got - want) < 1e-8 * math.sqrt(n)


def test_complete_sum_equals_every_term_summed():
    # the mirrored half holds the same terms in the same order, so the
    # pairwise sum is the same to the bit
    for n in range(1, 4097):
        assert gs.complete_gauss_sum(n) == oracles.complete_gauss_sum(n), n


def test_closed_form_cases():
    # n % 4 selects the closed-form branch
    assert gs.complete_gauss_closed_form(8) == pytest.approx(
        (1 + 1j) * math.sqrt(8))
    assert gs.complete_gauss_closed_form(9) == pytest.approx(math.sqrt(9))
    assert gs.complete_gauss_closed_form(10) == pytest.approx(0.0)
    assert gs.complete_gauss_closed_form(11) == pytest.approx(
        1j * math.sqrt(11))


@pytest.mark.parametrize("n", [4, 5, 16, 33, 64, 127, 256])
def test_reflection_identity(n):
    # one residual for each m = 1 .. (N+1)/2
    resid = gs.reflection_identity_residual(n)
    assert resid.shape == ((n + 1) // 2,)
    assert np.all(resid < 1e-8 * math.sqrt(n))


def test_reflection_identity_direct_form():
    # G(m) + G(N - m + 1) = 1 + G(N), both sides by direct summation
    n, m = 40, 11
    lhs = (oracles.gauss_sum_direct("gn", n, m)
           + oracles.gauss_sum_direct("gn", n, n - m + 1))
    rhs = 1 + oracles.gauss_sum_direct("gn", n, n)
    assert abs(lhs - rhs) < 1e-9 * math.sqrt(n)


@pytest.mark.parametrize("n", [3, 8, 25, 77, 128, 255])
def test_q_identity(n):
    # one residual for each m = 0 .. N
    resid = gs.q_identity_residual(n)
    assert resid.shape == (n + 1,)
    assert np.all(resid < 1e-8 * math.sqrt(n))


def test_q_identity_direct_form():
    # Q(m) = G8(2m) - G2(m), both sides by direct summation
    n, m = 29, 13
    lhs = oracles.gauss_sum_direct("qn", n, m)
    rhs = (oracles.gauss_sum_direct("g8n", n, 2 * m)
           - oracles.gauss_sum_direct("g2n", n, m))
    assert abs(lhs - rhs) < 1e-9 * math.sqrt(n)


# ---------------------------------------------------------------------------
# bound checks
# ---------------------------------------------------------------------------

def test_bound_check_gn_all_pass():
    records = gs.bound_check("gn_normalized", range(3, 200))
    for rec in records:
        assert rec.passed, (rec.kind, rec.case, rec.n, rec.observed,
                            rec.bound)


def test_bound_check_g2n_and_qn_all_pass():
    for kind in ("g2n", "qn"):
        for rec in gs.bound_check(kind, range(3, 150)):
            assert rec.passed, (rec.kind, rec.case, rec.n)


def test_soft_case_is_marked_soft():
    recs = [r for r in gs.bound_check("gn_normalized", [5, 9, 13])
            if r.case == "quarter1_soft"]
    assert recs and all(not r.hard for r in recs)
    # soft rows never fail even if observed exceeds the printed bound
    for r in recs:
        assert r.passed


def test_quarter0_bound_is_tight():
    # N = 4k: the sqrt(2) normalized bound is approached
    worst = max(r.observed for r in gs.bound_check("gn_normalized",
                                                   range(4, 400, 4))
                if r.case == "quarter0")
    assert worst > 1.37  # within 3% of sqrt(2)
    assert worst <= math.sqrt(2) + 1e-9


def test_bound_record_margin():
    rec = gs.BoundCheckRecord(kind="x", case="c", n=10, worst_m=3,
                              observed=1.0, bound=1.5)
    assert rec.margin == pytest.approx(0.5)
    assert rec.passed


def test_unknown_kind_is_a_value_error_for_sums_and_sweeps():
    for call in (lambda: gs.gauss_sum("bad", 5, 1),
                 lambda: gs.gauss_sum_sweep("bad", 5),
                 lambda: gs.gauss_sum_sweep("bad", 5, 3)):
        with pytest.raises(ValueError, match="unknown kind 'bad'"):
            call()


@pytest.mark.parametrize("n", [0, -3])
def test_n_below_one_is_refused_by_name(n):
    # N = 0 once gave nan+nanj with a RuntimeWarning, a negative N 0j or
    # an m domain of [0, N]
    for call in (lambda: gs.complete_gauss_sum(n),
                 lambda: gs.complete_gauss_closed_form(n),
                 lambda: gs.gauss_sum("gn", n, 0),
                 lambda: gs.gauss_sum("bad", n, 0),
                 lambda: gs.gauss_sum_sweep("qn", n)):
        with pytest.raises(ValueError, match="N must be >= 1"):
            call()
