import json
import math

import numpy as np
import pytest

from pairsolve import (
    ETA_TOL,
    MODEL_KINDS,
    DegenerateEta,
    FamilyKind,
    IntegrableSpec,
    InvariantViolation,
    PairingModel,
    SchemaError,
    SingularKernel,
    build_integrable,
    build_reduced_bcs,
    cot_kernel,
    load_model,
    param_count,
    save_model,
    sin_kernel,
)
from pairsolve.model import SCALE_BOUND


# Closed-form reference points, one per kernel branch.
KERNEL_TABLE = [
    (FamilyKind.RATIONAL, cot_kernel, 1.0, 2.0, 0.5),
    (FamilyKind.RATIONAL, sin_kernel, 1.0, 2.0, 0.5),
    (FamilyKind.TRIGONOMETRIC, cot_kernel, 1.0, math.pi / 4, 1.0),
    (FamilyKind.TRIGONOMETRIC, sin_kernel, 2.0, math.pi / 6, 4.0),
    (FamilyKind.HYPERBOLIC, cot_kernel, 3.0, math.log(2.0), 5.0),
    (FamilyKind.HYPERBOLIC, sin_kernel, 3.0, math.log(2.0), 4.0),
]


@pytest.mark.parametrize("family,fn,d_eps,d_eta,expected", KERNEL_TABLE)
def test_kernel_closed_forms(family, fn, d_eps, d_eta, expected):
    assert fn(family, d_eps, d_eta) == pytest.approx(expected, abs=1e-14)


def test_rational_kernels_coincide():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = rng.normal(size=2)
        if abs(b) < 1e-6:
            continue
        assert cot_kernel(FamilyKind.RATIONAL, a, b) == sin_kernel(FamilyKind.RATIONAL, a, b)


@pytest.mark.parametrize("family", list(FamilyKind))
@pytest.mark.parametrize("fn", [cot_kernel, sin_kernel])
def test_kernel_evenness(family, fn):
    # f(-de, -dn) == f(de, dn); sign flips cancel in every family
    rng = np.random.default_rng(31)
    for _ in range(2000):
        de = rng.uniform(-5.0, 5.0)
        dn = rng.uniform(0.05, 2.5) * rng.choice([-1.0, 1.0])
        lhs = fn(family, -de, -dn)
        rhs = fn(family, de, dn)
        assert lhs == pytest.approx(rhs, rel=1e-15, abs=1e-300)


def test_kernel_rejects_tiny_eta_gap():
    with pytest.raises(DegenerateEta):
        cot_kernel(FamilyKind.RATIONAL, 1.0, ETA_TOL / 2)
    with pytest.raises(DegenerateEta):
        sin_kernel(FamilyKind.HYPERBOLIC, 1.0, 0.0)


def test_kernel_rejects_sin_singularity():
    # pi is safely above the raw eta tolerance but sin(pi) is not
    with pytest.raises(SingularKernel):
        sin_kernel(FamilyKind.TRIGONOMETRIC, 1.0, math.pi)
    with pytest.raises(SingularKernel):
        cot_kernel(FamilyKind.TRIGONOMETRIC, 1.0, math.pi)


def test_spec_rejects_duplicate_eta():
    with pytest.raises(InvariantViolation) as exc:
        IntegrableSpec(
            g=0.5,
            epsilon=(1.0, 2.0, 3.0),
            eta=(0.2, 0.9, 0.9),
            family=FamilyKind.RATIONAL,
        )
    msg = str(exc.value)
    assert "eta[1]" in msg and "eta[2]" in msg


def test_spec_rejects_near_duplicate_eta_scaled():
    # distinctness is relative to the overall eta scale
    base = 1.0e8
    with pytest.raises(InvariantViolation):
        IntegrableSpec(
            g=0.1,
            epsilon=(0.0, 1.0),
            eta=(base, base + 1.0e-4),
            family=FamilyKind.RATIONAL,
        )


def test_spec_rejects_trig_sin_collision():
    # eta values pi apart collide under sin even though they differ
    with pytest.raises(InvariantViolation) as exc:
        IntegrableSpec(
            g=0.3,
            epsilon=(0.0, 1.0),
            eta=(0.5, 0.5 + math.pi),
            family=FamilyKind.TRIGONOMETRIC,
        )
    assert "sin" in str(exc.value)


def test_spec_rejects_length_mismatch_and_short_lists():
    with pytest.raises(InvariantViolation):
        IntegrableSpec(g=0.1, epsilon=(1.0, 2.0), eta=(1.0,), family=FamilyKind.RATIONAL)
    with pytest.raises(InvariantViolation):
        IntegrableSpec(g=0.1, epsilon=(1.0,), eta=(1.0,), family=FamilyKind.RATIONAL)


def test_spec_rejects_non_finite():
    with pytest.raises(InvariantViolation):
        IntegrableSpec(
            g=float("nan"),
            epsilon=(1.0, 2.0),
            eta=(1.0, 2.0),
            family=FamilyKind.RATIONAL,
        )


def test_build_trigonometric_two_level_example():
    spec = IntegrableSpec(
        g=0.1,
        epsilon=(0.0, 1.0),
        eta=(0.25, 0.25 + math.pi / 2),
        family=FamilyKind.TRIGONOMETRIC,
    )
    model = build_integrable(spec)
    # cot(+-pi/2) = 0 so the levels stay put; the hop picks up
    # (-1)/sin(-pi/2) = +1
    assert model.eps[0] == pytest.approx(0.0, abs=1e-15)
    assert model.eps[1] == pytest.approx(1.0, abs=1e-15)
    assert model.v1[0, 1] == pytest.approx(0.2, abs=1e-14)
    assert model.v2[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_build_trigonometric_quarter_pi_gap():
    spec = IntegrableSpec(
        g=0.1,
        epsilon=(-0.1, 0.9),
        eta=(0.3, 0.3 + math.pi / 4),
        family=FamilyKind.TRIGONOMETRIC,
    )
    model = build_integrable(spec)
    gap = -1.0  # epsilon[0] - epsilon[1]
    assert model.v1[0, 1] == pytest.approx(2 * 0.1 * gap / math.sin(-math.pi / 4), abs=1e-14)
    assert model.v1[0, 1] == pytest.approx(0.2 * math.sqrt(2.0), abs=1e-14)
    assert model.v2[0, 1] == pytest.approx(0.05, abs=1e-14)


def test_rational_eta_equals_eps_gives_constant_couplings():
    # with eta == epsilon both kernels degenerate to constants
    n, g = 8, -0.3
    eps = tuple(float(i) for i in range(1, n + 1))
    spec = IntegrableSpec(g=g, epsilon=eps, eta=eps, family=FamilyKind.RATIONAL)
    model = build_integrable(spec)
    off = ~np.eye(n, dtype=bool)
    assert np.allclose(model.v1[off], 2 * g, atol=1e-14)
    assert np.allclose(model.v2[off], g / 2, atol=1e-14)
    expected_eps = np.array(eps) - g * (n - 1)
    assert np.allclose(model.eps, expected_eps, atol=1e-13)


def test_zero_coupling_gives_non_interacting():
    spec = IntegrableSpec(
        g=0.0,
        epsilon=(0.5, 1.5, 2.5),
        eta=(0.1, 0.7, 1.9),
        family=FamilyKind.HYPERBOLIC,
    )
    model = build_integrable(spec)
    assert np.array_equal(model.eps, np.array([0.5, 1.5, 2.5]))
    assert not model.v1.any()
    assert not model.v2.any()


@pytest.mark.parametrize("family", list(FamilyKind))
def test_expanded_models_are_symmetric(family):
    rng = np.random.default_rng(sum(family.name.encode()))
    for _ in range(5):
        n = int(rng.integers(2, 9))
        eta = np.sort(rng.uniform(0.1, 2.8, size=n))
        eta += np.arange(n) * 0.05  # keep gaps comfortably above tolerance
        spec = IntegrableSpec(
            g=float(rng.uniform(-0.8, 0.8)),
            epsilon=rng.normal(size=n),
            eta=eta,
            family=family,
        )
        model = build_integrable(spec)
        assert np.array_equal(model.v1, model.v1.T)
        assert np.array_equal(model.v2, model.v2.T)
        assert not np.diag(model.v1).any()
        assert not np.diag(model.v2).any()
        assert np.isfinite(model.eps).all()


def test_reduced_bcs_matrices():
    model = build_reduced_bcs([1.0, 2.0, 3.0], 0.4)
    assert np.array_equal(model.eps, np.array([1.0, 2.0, 3.0]))
    off = ~np.eye(3, dtype=bool)
    assert np.all(model.v1[off] == -0.4)
    assert not model.v2.any()
    assert not np.diag(model.v1).any()


def test_pairing_model_validation():
    eps = np.zeros(3)
    good = np.zeros((3, 3))
    bad = good.copy()
    bad[0, 1] = 1.0  # asymmetric
    with pytest.raises(InvariantViolation) as exc:
        PairingModel(eps=eps, v1=bad, v2=good)
    assert "not symmetric" in str(exc.value)
    with_diag = good.copy()
    with_diag[1, 1] = 2.0
    with pytest.raises(InvariantViolation) as exc:
        PairingModel(eps=eps, v1=good, v2=with_diag)
    assert "diagonal" in str(exc.value)
    with pytest.raises(InvariantViolation):
        PairingModel(eps=np.array([1.0, np.inf, 0.0]), v1=good, v2=good)
    with pytest.raises(InvariantViolation):
        PairingModel(eps=eps, v1=np.zeros((2, 2)), v2=good)


def test_pairing_model_rejects_a_scale_whose_squares_overflow():
    # B = 2 sum|eps| + sum|v1| + 4 sum|v2| is accepted up to SCALE_BOUND
    # and refused just above it, for each term; B itself may overflow
    eps = np.arange(1.0, 11.0)
    for build in (
        lambda: build_reduced_bcs(eps, 3e159),
        lambda: build_reduced_bcs(eps, 1e308),
        lambda: build_reduced_bcs(np.r_[1e308, eps[1:]], 1.0),
    ):
        with pytest.raises(InvariantViolation, match="Hamiltonian scale"):
            build()
    zero, pair = np.zeros((2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]])
    for c, term in ((2.0, "eps"), (1.0, "v1"), (4.0, "v2")):
        # the term's sum is 2, so B = 2 c x
        for x, ok in ((SCALE_BOUND / (2 * c), True), (np.nextafter(SCALE_BOUND / (2 * c), np.inf), False)):
            arrays = {"eps": np.zeros(2), "v1": zero, "v2": zero}
            arrays[term] = np.full(2, x) if term == "eps" else x * pair
            if ok:
                PairingModel(**arrays)
            else:
                with pytest.raises(InvariantViolation, match="Hamiltonian scale"):
                    PairingModel(**arrays)


def test_pairing_model_arrays_are_readonly():
    model = build_reduced_bcs([1.0, 2.0], 0.1)
    with pytest.raises(ValueError):
        model.eps[0] = 99.0
    with pytest.raises(ValueError):
        model.v1[0, 1] = 99.0


def test_param_count():
    assert param_count("general", 10) == 190
    assert param_count("integrable_single", 10) == 21
    assert param_count("integrable_all_families", 10) == 63
    for n in (2, 5, 16):
        assert param_count("general", n) == 2 * n * n - n
        assert param_count("integrable_single", n) == 2 * n + 1
        assert param_count("integrable_all_families", n) == 3 * (2 * n + 1)
    with pytest.raises(InvariantViolation):
        param_count("unknown_kind", 4)
    assert set(MODEL_KINDS) == {"general", "integrable_single", "integrable_all_families"}


def test_save_load_round_trip_general():
    rng = np.random.default_rng(11)
    n = 5
    v1 = rng.normal(size=(n, n))
    v1 = v1 + v1.T
    np.fill_diagonal(v1, 0.0)
    v2 = rng.normal(size=(n, n))
    v2 = v2 + v2.T
    np.fill_diagonal(v2, 0.0)
    model = PairingModel(eps=rng.normal(size=n), v1=v1, v2=v2)
    doc = save_model(model)
    back = load_model(json.loads(json.dumps(doc)))
    assert isinstance(back, PairingModel)
    # bit exact through the JSON text round trip
    assert np.array_equal(back.eps, model.eps)
    assert np.array_equal(back.v1, model.v1)
    assert np.array_equal(back.v2, model.v2)


def test_save_load_round_trip_integrable():
    spec = IntegrableSpec(
        g=-0.25,
        epsilon=(0.3, 1.1, 2.9),
        eta=(0.2, 0.8, 1.7),
        family=FamilyKind.HYPERBOLIC,
    )
    doc = save_model(spec)
    back = load_model(doc)
    assert isinstance(back, IntegrableSpec)
    assert back.family is FamilyKind.HYPERBOLIC
    assert back.g == spec.g
    assert np.array_equal(back.epsilon, spec.epsilon)
    assert np.array_equal(back.eta, spec.eta)
    # text form parses the same way
    assert np.array_equal(load_model(json.dumps(doc)).eta, spec.eta)


def test_load_reduced_bcs_expands():
    doc = {"type": "reduced_bcs", "eps": [1.0, 2.0, 3.0, 4.0], "G": 0.7}
    model = load_model(doc)
    assert isinstance(model, PairingModel)
    off = ~np.eye(4, dtype=bool)
    assert np.all(model.v1[off] == -0.7)


def test_load_model_schema_errors_name_the_field():
    with pytest.raises(SchemaError) as exc:
        load_model(
            {
                "type": "general",
                "n_levels": 2,
                "eps": [1.0, 2.0],
                "v1": [[0.0, 1.0], [1.0, 0.0]],
            }
        )
    assert "v2" in str(exc.value)

    with pytest.raises(SchemaError) as exc:
        load_model(
            {
                "type": "general",
                "n_levels": 2,
                "eps": [1.0, True],
                "v1": [[0.0, 0.0], [0.0, 0.0]],
                "v2": [[0.0, 0.0], [0.0, 0.0]],
            }
        )
    assert "eps[1]" in str(exc.value)

    with pytest.raises(SchemaError) as exc:
        load_model(
            {
                "type": "general",
                "n_levels": 2,
                "eps": [1.0, 2.0],
                "v1": [[0.0, 1.0], [1.0, 0.0]],
                "v2": [[0.0], [0.0, 0.0]],
            }
        )
    assert "v2[0]" in str(exc.value)

    with pytest.raises(SchemaError):
        load_model({"type": "no_such_kind"})
    with pytest.raises(SchemaError):
        load_model([1, 2, 3])
    with pytest.raises(SchemaError):
        load_model("this is not json")


def test_load_model_rejects_asymmetric_matrix():
    with pytest.raises(InvariantViolation) as exc:
        load_model(
            {
                "type": "general",
                "n_levels": 2,
                "eps": [1.0, 2.0],
                "v1": [[0.0, 1.0], [2.0, 0.0]],
                "v2": [[0.0, 0.0], [0.0, 0.0]],
            }
        )
    assert "v1" in str(exc.value)


def test_load_model_integrable_errors():
    with pytest.raises(SchemaError) as exc:
        load_model(
            {
                "type": "integrable",
                "family": "elliptic",
                "g": 0.1,
                "epsilon": [1.0, 2.0],
                "eta": [1.0, 2.0],
            }
        )
    assert "family" in str(exc.value)
    with pytest.raises(InvariantViolation):
        load_model(
            {
                "type": "integrable",
                "family": "rational",
                "g": 0.1,
                "epsilon": [1.0, 2.0],
                "eta": [3.0, 3.0],
            }
        )
