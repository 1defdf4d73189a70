"""The sequence-family registry: admissibility agrees with what building
actually accepts, and every family gives an operator whose adjoint is
exact in every basis, on vectors and on blocks of columns."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convsense.operators import (Basis, SensingOperator, build_circulant,
                                 random_sampling)
from convsense.sequences import FAMILIES, family

_KINDS = sorted(FAMILIES)
_BASES = ("identity", "inverse_fourier", "inverse_dct2")
_PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


def _build(kind, n, gamma):
    return build_circulant(kind, n, {"gamma": gamma},
                           np.random.default_rng(n))


def _admissible_sizes(kind):
    return [n for n in range(1, 257)
            if FAMILIES[kind].admissible(n, {}) is None]


@pytest.mark.parametrize("kind", _KINDS)
@_PROPERTY
@given(data=st.data(), gamma=st.integers(1, 12))
def test_build_raises_exactly_when_inadmissible(kind, data, gamma):
    # half the draws from the admissible sizes, so sparse families such as
    # m-sequences are built as often as they are refused
    n = data.draw(st.one_of(st.sampled_from(_admissible_sizes(kind)),
                            st.integers(1, 256)), label="n")
    reason = FAMILIES[kind].admissible(n, {"gamma": gamma})
    if reason is None:
        circ = _build(kind, n, gamma)
        assert circ.n == n
        assert circ.source == FAMILIES[kind].domain
    else:
        with pytest.raises(ValueError):
            _build(kind, n, gamma)


@pytest.mark.parametrize("kind", _KINDS)
@_PROPERTY
@given(data=st.data())
def test_adjoint_identity_in_every_basis(kind, data):
    n = data.draw(st.sampled_from(_admissible_sizes(kind)), label="n")
    m = data.draw(st.integers(1, n), label="m")
    circ = _build(kind, n, 1)
    rng = np.random.default_rng(m)
    samp = random_sampling(n, m, rng)
    for basis in _BASES:
        theta = SensingOperator(circ, samp, Basis(basis))
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        tf = theta.forward(f)
        lhs, rhs = np.vdot(tf, y), np.vdot(f, theta.adjoint(y))
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(tf) \
            * np.linalg.norm(y)


@pytest.mark.parametrize("kind", _KINDS)
@_PROPERTY
@given(data=st.data())
def test_blocks_match_columns_in_every_basis(kind, data):
    n = data.draw(st.sampled_from(_admissible_sizes(kind)), label="n")
    m = data.draw(st.integers(1, n), label="m")
    circ = _build(kind, n, 1)
    rng = np.random.default_rng(n + m)
    samp = random_sampling(n, m, rng)
    for basis in _BASES:
        theta = SensingOperator(circ, samp, Basis(basis))
        f = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        y = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
        tf, ty = theta.forward(f), theta.adjoint(y)
        assert tf.shape == (m, 3) and ty.shape == (n, 3)
        for j in range(3):
            np.testing.assert_allclose(
                tf[:, j], theta.forward(f[:, j]), rtol=0,
                atol=1e-12 * max(1.0, np.max(np.abs(tf))))
            np.testing.assert_allclose(
                ty[:, j], theta.adjoint(y[:, j]), rtol=0,
                atol=1e-12 * max(1.0, np.max(np.abs(ty))))
        # trace<Theta F, Y> = trace<F, Theta^* Y>
        lhs, rhs = np.vdot(tf, y), np.vdot(f, ty)
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(tf) \
            * np.linalg.norm(y)


def test_unknown_kind_is_a_value_error():
    with pytest.raises(ValueError, match="unknown sequence kind"):
        family("nope")


def test_bound_table_families():
    assert sorted(k for k in _KINDS if FAMILIES[k].bound is not None) == [
        "extended_golay", "extended_polyphase", "fzc", "golay", "m_sequence"]


def test_random_families_draw_from_the_generator_or_the_seed():
    for kind in ("random_phase", "random_binary"):
        fam = FAMILIES[kind]
        assert fam.random
        drawn = fam.build(32, {}, np.random.default_rng(7))
        seeded = fam.build(32, {"seed": 7})
        assert np.array_equal(drawn, seeded.values)
        with pytest.raises(ValueError):
            fam.build(32, {})
