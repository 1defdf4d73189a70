"""The sequence-family registry: admissibility agrees with what building
actually accepts, and every family gives an operator whose adjoint is
exact in every basis, on vectors and on blocks of columns."""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convsense.operators import (Basis, SensingOperator, StackedOperator,
                                 build_circulant, random_sampling)
from convsense.sequences import (FAMILIES, PRIMITIVE_POLYNOMIALS,
                                 extended_polyphase, family, m_sequence,
                                 random_binary, random_phase)

_KINDS = sorted(FAMILIES)
_BASES = ("identity", "inverse_fourier", "inverse_dct2")
_PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
_FORMATS = pathlib.Path(__file__).resolve().parents[1] / "docs" / "formats.md"


def _params(kind, gamma):
    """gamma for a family that reads it: a build refuses any other key."""
    return {"gamma": gamma} if "gamma" in FAMILIES[kind].reads() else {}


def _build(kind, n, gamma):
    return build_circulant(kind, n, _params(kind, gamma),
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
        # the family's values are stored as the domain it names
        built = FAMILIES[kind].build(n, _params(kind, gamma),
                                     np.random.default_rng(n))
        stored = circ.filter if FAMILIES[kind].domain == "filter" \
            else circ.spectrum
        assert np.array_equal(stored, getattr(built, "values", built))
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
        f = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        y = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        tf = StackedOperator.of([theta] * 3).forward(f)
        assert tf.shape == (3, m)
        for j in range(3):
            np.testing.assert_allclose(
                tf[j], theta.forward(f[j]), rtol=0,
                atol=1e-12 * max(1.0, np.max(np.abs(tf))))
        # trace<Theta F, Y> = trace<F, Theta^* Y>
        ty = np.stack([theta.adjoint(row) for row in y])
        lhs, rhs = np.vdot(tf, y), np.vdot(f, ty)
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(tf) \
            * np.linalg.norm(y)


def test_no_two_family_names_share_one_family():
    # a second name would build the same operators under another hash
    assert len({id(fam) for fam in FAMILIES.values()}) == len(FAMILIES)


def test_unknown_kind_is_a_value_error():
    with pytest.raises(ValueError, match="unknown sequence kind"):
        family("nope")


def test_bound_table_families():
    assert sorted(k for k in _KINDS if FAMILIES[k].bound is not None) == [
        "extended_golay", "extended_polyphase", "fzc", "golay", "m_sequence"]


@pytest.mark.parametrize("kind", ["random_phase", "random_binary"])
def test_random_family_draw_keeps_its_admissibility_rule(kind):
    # a per-trial draw from a Generator refuses N as the seeded build
    # does, before it takes anything from the Generator
    rng = np.random.default_rng(0)
    for n in (-1, 0):
        for build in (lambda: FAMILIES[kind].build(n, {}, rng),
                      lambda: build_circulant(kind, n, {}, rng)):
            with pytest.raises(ValueError, match="^N must be >= 1$"):
                build()
    assert rng.bit_generator.state == \
        np.random.default_rng(0).bit_generator.state
    assert FAMILIES[kind].build(3, {}, rng).size == 3


def test_generators_refuse_with_their_registry_reason():
    # a generator keeps no copy of its family's admissibility rule
    builds = {"extended_polyphase": extended_polyphase,
              "random_phase": lambda n: random_phase(n, 0),
              "random_binary": lambda n: random_binary(n, 0)}
    for kind, build in builds.items():
        for n in (-1, 0, 1, 2, 3):
            reason = FAMILIES[kind].admissible(n, {})
            if reason is None:
                assert build(n).values.size == n
            else:
                with pytest.raises(ValueError) as exc:
                    build(n)
                assert str(exc.value) == reason
    # m-sequences: the degrees the table holds, and no others
    for degree in range(1, 23):
        n = (1 << degree) - 1
        tabulated = FAMILIES["m_sequence"].admissible(n, {}) is None
        assert tabulated == (degree in PRIMITIVE_POLYNOMIALS)
        if not tabulated:
            with pytest.raises(ValueError, match="no primitive polynomial"):
                m_sequence(degree)
    with pytest.raises(ValueError, match="no primitive polynomial"):
        m_sequence(-1)


def test_random_families_draw_from_the_generator_or_the_seed():
    for kind in ("random_phase", "random_binary"):
        fam = FAMILIES[kind]
        assert fam.random
        drawn = fam.build(32, {}, np.random.default_rng(7))
        seeded = fam.build(32, {"seed": 7})
        assert np.array_equal(drawn, seeded.values)
        with pytest.raises(ValueError):
            fam.build(32, {})


def test_formats_doc_lists_every_family_with_its_domain_and_bound():
    text = _FORMATS.read_text(encoding="utf-8")
    section = text.split("## Sequence families", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = cells
    assert sorted(rows) == _KINDS
    for kind, (_, domain, _, bound) in rows.items():
        assert domain == FAMILIES[kind].domain, kind
        assert (bound == "none") == (FAMILIES[kind].bound is None), kind
