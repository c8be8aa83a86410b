import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertsp.weights import (
    BUILTIN_KINDS,
    _coordinate,
    _euclid,
    _radial,
    edge_weight,
    edge_weight_pairs,
    make_weight_function,
    verify_equivalence,
    weight_matrix,
)

coord = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)


def test_published_constants():
    eu = make_weight_function("euclidean")
    assert (eu.c1, eu.c2, eu.h0, eu.is_metric) == (1.0, 1.0, 1.0, True)
    cm = make_weight_function("coordinate_metric")
    assert cm.c1 == 1.0
    assert cm.c2 == pytest.approx(3.0 * math.sqrt(2.0))
    assert cm.h0 is None and cm.is_metric and not cm.scale_invariant
    rm = make_weight_function("radial_metric")
    assert (rm.c1, rm.c2, rm.h0, rm.is_metric) == (1.0, 1.5, 1.5, True)
    assert rm.scale_invariant


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_weight_function("chebyshev")


def test_edge_weight_examples():
    eu = make_weight_function("euclidean")
    # 0.5^2
    assert edge_weight(eu, 2.0, (0.0, 0.0), (0.3, 0.4)) == pytest.approx(0.25, abs=1e-15)
    # d + |d(u,0)-d(v,0)|/2 = 0.5 + 0.25 by hand
    rm = make_weight_function("radial_metric")
    assert edge_weight(rm, 1.0, (0.0, 0.0), (0.3, 0.4)) == pytest.approx(0.75, abs=1e-15)
    # per-coordinate |(1-1/2)^2 - (1+1/2)^2| = 2, both coordinates
    cm = make_weight_function("coordinate_metric")
    assert edge_weight(cm, 1.0, (-0.5, -0.5), (0.5, 0.5)) == pytest.approx(4.0, abs=1e-12)


def test_edge_weight_zero_iff_equal():
    for kind in ("euclidean", "coordinate_metric", "radial_metric"):
        wf = make_weight_function(kind)
        assert edge_weight(wf, 1.3, (0.1, -0.2), (0.1, -0.2)) == 0.0
        assert edge_weight(wf, 1.3, (0.1, -0.2), (0.1, -0.199)) > 0.0


def test_alpha_validation():
    eu = make_weight_function("euclidean")
    with pytest.raises(ValueError):
        edge_weight(eu, 0.0, (0.0, 0.0), (0.1, 0.1))
    with pytest.raises(ValueError):
        edge_weight(eu, -1.0, (0.0, 0.0), (0.1, 0.1))


@settings(max_examples=80, deadline=None)
@given(coord, coord, coord, coord, st.sampled_from([0.5, 1.0, 1.5, 2.0]))
def test_symmetry_bitexact(x1, y1, x2, y2, alpha):
    for kind in ("euclidean", "coordinate_metric", "radial_metric"):
        wf = make_weight_function(kind)
        assert edge_weight(wf, alpha, (x1, y1), (x2, y2)) == edge_weight(
            wf, alpha, (x2, y2), (x1, y1)
        )


@settings(max_examples=80, deadline=None)
@given(coord, coord, coord, coord)
def test_equivalence_sandwich(x1, y1, x2, y2):
    d = math.hypot(x1 - x2, y1 - y2)
    for kind in ("euclidean", "coordinate_metric", "radial_metric"):
        wf = make_weight_function(kind)
        h = edge_weight(wf, 1.0, (x1, y1), (x2, y2))
        assert wf.c1 * d - 1e-12 <= h <= wf.c2 * d + 1e-12


@settings(max_examples=60, deadline=None)
@given(coord, coord, coord, coord, st.sampled_from([0.25, 0.5, 1.0]))
def test_scale_invariance_b1(x1, y1, x2, y2, a):
    for kind in ("euclidean", "radial_metric"):
        wf = make_weight_function(kind)
        h1 = edge_weight(wf, 1.0, (a * x1, a * y1), (a * x2, a * y2))
        h0 = edge_weight(wf, 1.0, (x1, y1), (x2, y2))
        assert h1 == pytest.approx(a * h0, rel=1e-12, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-0.25, max_value=0.25, allow_nan=False),
    st.floats(min_value=-0.25, max_value=0.25, allow_nan=False),
    st.floats(min_value=-0.25, max_value=0.25, allow_nan=False),
    st.floats(min_value=-0.25, max_value=0.25, allow_nan=False),
    st.floats(min_value=-0.25, max_value=0.25, allow_nan=False),
    st.floats(min_value=-0.25, max_value=0.25, allow_nan=False),
)
def test_radial_translation_b2(x1, y1, x2, y2, bx, by):
    rm = make_weight_function("radial_metric")
    shifted = edge_weight(rm, 1.0, (bx + x1, by + y1), (bx + x2, by + y2))
    assert shifted <= 1.5 * edge_weight(rm, 1.0, (x1, y1), (x2, y2)) + 1e-12


def _stretched(u, v):
    # symmetric bit for bit: the product u_x * v_x commutes exactly
    return _euclid(u, v) * (1.0 + 0.2 * np.abs(u[..., 0] * v[..., 0]))


def _all_weights():
    weights = [make_weight_function(kind) for kind in BUILTIN_KINDS]
    weights.append(make_weight_function("custom", func=_stretched, c1=1.0, c2=1.2))
    return weights


def test_weight_matrix_symmetric_zero_diagonal():
    weights = _all_weights()
    # n = 257 is odd, so vectorised loops run their scalar tails too
    for n, alpha in [(7, 0.7)] + [(257, a) for a in (0.5, 1.0, 1.7, 2.0)]:
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.5, 0.5, size=(n, 2))
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        for wf in weights:
            mat = weight_matrix(wf, alpha, pts)
            assert np.array_equal(mat, mat.T)
            assert np.all(np.diag(mat) == 0.0)
            # every off-diagonal entry is the pair weight, bit for bit, in both orders
            assert np.array_equal(mat[i, j], edge_weight_pairs(wf, alpha, pts[i], pts[j]))
            assert np.array_equal(mat[i, j], edge_weight_pairs(wf, alpha, pts[j], pts[i]))


def _diff_euclid(u, v):
    # the built-in kernels as they were before the per-coordinate rewrite:
    # one (..., 2) difference, squared through strided views
    d = u - v
    return np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)


def _diff_coordinate(u, v):
    return np.abs((1.0 + u[..., 0]) ** 2 - (1.0 + v[..., 0]) ** 2) + np.abs(
        (1.0 + u[..., 1]) ** 2 - (1.0 + v[..., 1]) ** 2
    )


def _diff_radial(u, v):
    d = _diff_euclid(u, v)
    ru = np.sqrt(u[..., 0] ** 2 + u[..., 1] ** 2)
    rv = np.sqrt(v[..., 0] ** 2 + v[..., 1] ** 2)
    return d + 0.5 * np.abs(ru - rv)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_kernels_match_difference_form():
    pairs = [(_euclid, _diff_euclid), (_coordinate, _diff_coordinate), (_radial, _diff_radial)]
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.5, 0.5, size=(300, 2))
    pts[:3] = [(0.0, 0.0), (-0.5, 0.5), (0.25, -0.0)]
    for kernel, reference in pairs:
        # broadcast blocks, matched rows and single (2,) pairs
        assert _same_bits(kernel(pts[:, None, :], pts[None, :, :]),
                          reference(pts[:, None, :], pts[None, :, :]))
        assert _same_bits(kernel(pts, pts[::-1]), reference(pts, pts[::-1]))
        # the nearest-neighbour walk passes its tail as one (2,) point
        assert _same_bits(kernel(pts[0], pts[1:]), reference(pts[0][None, :], pts[1:]))
        for u, v in zip(pts[:20], pts[20:40]):
            assert _same_bits(kernel(u, v), reference(u, v))


def test_single_pair_weights_are_matrix_entries():
    # on (2,) inputs the per-coordinate kernels see numpy scalars, which
    # cannot be written in place; edge_weight must still give floats
    rng = np.random.default_rng(9)
    pairs = [((0.31, -0.27), (-0.12, 0.44))] + [tuple(map(tuple, p)) for p in
                                                rng.uniform(-0.5, 0.5, size=(50, 2, 2))]
    for kind in BUILTIN_KINDS:
        wf = make_weight_function(kind)
        for u, v in pairs:
            h = edge_weight(wf, 1.0, u, v)
            assert type(h) is float and math.isfinite(h)
            assert h == weight_matrix(wf, 1.0, [u, v])[0, 1]
            # numpy's array power, as in the matrix, not a Python float power,
            # which differs from it in the last bit at some alphas
            for alpha in (0.5, 0.7, 1.5, 2.0):
                w = edge_weight(wf, alpha, u, v)
                assert type(w) is float and w == weight_matrix(wf, alpha, [u, v])[0, 1]


def test_verify_equivalence_builtins_pass():
    for kind in ("euclidean", "coordinate_metric", "radial_metric"):
        wf = make_weight_function(kind)
        rep = verify_equivalence(wf, 10_000, seed=11)
        assert rep.passed, rep.violations[:2]


def test_verify_equivalence_flags_wrong_constant():
    # radial cost with an understated upper constant must fail with a witness
    from powertsp.weights import _radial

    wrong = make_weight_function("custom", func=_radial, c1=1.0, c2=1.0, is_metric=True)
    rep = verify_equivalence(wrong, 10_000, seed=11)
    assert not rep.passed
    assert any(v["check"] == "upper_equivalence" for v in rep.violations)
    witness = rep.violations[0]
    assert len(witness["points"]) == 2


def test_verify_equivalence_flags_asymmetry():
    # h = d * (1 + 0.2 [x_u > x_v]) meets c1 = 1, c2 = 1.2 but h(u, v) != h(v, u)
    from powertsp.weights import _euclid

    def lopsided(u, v):
        return _euclid(u, v) * (1.0 + 0.2 * (u[..., 0] > v[..., 0]))

    wf = make_weight_function("custom", func=lopsided, c1=1.0, c2=1.2)
    rep = verify_equivalence(wf, 10_000, seed=11)
    assert not rep.passed
    assert {v["check"] for v in rep.violations} == {"symmetry"}


def test_verify_equivalence_validates_sample_count():
    with pytest.raises(ValueError):
        verify_equivalence(make_weight_function("euclidean"), 0)


def test_custom_requires_constants():
    with pytest.raises(ValueError):
        make_weight_function("custom", func=lambda u, v: 0.0, c1=2.0, c2=1.0)


@pytest.mark.parametrize("constants", [dict(c2=math.inf), dict(c2=math.nan), dict(c1=math.nan),
                                       dict(c1=math.inf, c2=math.inf)])
def test_custom_rejects_non_finite_constants(constants):
    # an infinite c2 would make verify_equivalence's upper check pass trivially
    with pytest.raises(ValueError, match="need 0 < c1 <= c2 < inf"):
        make_weight_function("custom", func=_euclid, **{"c1": 1.0, "c2": 1.0, **constants})


@pytest.mark.parametrize("h0", [math.nan, math.inf, 0.0, -1.5])
def test_custom_rejects_bad_h0(h0):
    with pytest.raises(ValueError, match="h0 must be positive and finite"):
        make_weight_function("custom", func=_euclid, c1=1.0, c2=1.0, h0=h0)
    assert make_weight_function("custom", func=_euclid, c1=1.0, c2=1.0, h0=1.0).h0 == 1.0
