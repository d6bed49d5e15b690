"""Mellin-at-zero machinery: the zeta-kernel pipeline, the Gamma-quotient
synthetic family with closed-form transforms, and robustness contracts."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from crtorsion import mellin
from crtorsion.errors import ArityError, DomainError, QuadratureError
from crtorsion.mellin import (
    EULER_GAMMA,
    GAMMA_PRIME_1,
    MellinInput,
    mellin_at_zero,
    riemann_zeta_check,
)

ZETA_PRIME_0 = -0.5 * math.log(2.0 * math.pi)
_BATCHED = mellin._gauss_kronrod


def gamma_family(coeffs, k):
    """f(t) = sum_j c_j t^{-k+j/2} e^{-t}: transform sum_j c_j G(z-k+j/2)/G(z).

    Returns (MellinInput, analytic M(0), analytic M'(0)).
    """
    coeffs = [float(c) for c in coeffs]

    def f(t):
        u = np.sqrt(t)
        return sum(c * u ** (j - 2 * k) for j, c in enumerate(coeffs)) * np.exp(-t)

    expansion = []
    for j in range(len(coeffs) + 8):
        acc = 0.0
        for jp, cj in enumerate(coeffs):
            if jp > j or (j - jp) % 2 == 1:
                continue
            p = (j - jp) // 2
            acc += cj * (-1.0) ** p / math.factorial(p)
        expansion.append(acc)
    value = 0.0
    deriv = 0.0
    for j, cj in enumerate(coeffs):
        b = -k + j / 2.0
        if b == int(b) and b <= 0:
            p = int(-b)
            value += cj * (-1.0) ** p / math.factorial(p)
            deriv += cj * (-1.0) ** p / math.factorial(p) * sum(
                1.0 / i for i in range(1, p + 1)
            )
        else:
            deriv += cj * math.gamma(b)
    C = 2.0 * sum(abs(c) for c in coeffs) + 1.0
    return MellinInput(f, k, tuple(expansion), (C, 0.9), 0.0), value, deriv


class TestBasicTransforms:
    def test_pure_exponential(self):
        inp = MellinInput(lambda t: np.exp(-t), 0, (1.0,), (1.0, 1.0))
        res = mellin_at_zero(inp)
        assert res.value0 == 1.0
        assert abs(res.derivative0) < 1e-10

    def test_t_exponential(self):
        inp = MellinInput(lambda t: t * np.exp(-t), 0, (0.0,), (1.0, 0.9))
        res = mellin_at_zero(inp)
        assert res.value0 == 0.0
        assert res.derivative0 == pytest.approx(1.0, abs=1e-10)

    def test_zeta_kernel(self):
        z0, zp0 = riemann_zeta_check()
        assert z0 == -0.5  # certificate copy, exact
        assert zp0 == pytest.approx(ZETA_PRIME_0, abs=1e-8)

    def test_zeta_kernel_value_is_bit_exact_copy(self):
        series_f0 = -0.5
        z0, _ = riemann_zeta_check()
        assert z0 == series_f0


class TestGammaFamily:
    def test_random_family_within_error_estimate(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            k = int(rng.integers(0, 3))
            coeffs = rng.uniform(-2.0, 2.0, size=2 * k + 3)
            inp, value, deriv = gamma_family(coeffs, k)
            res = mellin_at_zero(inp)
            assert res.value0 == pytest.approx(value, abs=1e-12)
            assert abs(res.derivative0 - deriv) <= 10.0 * res.error_estimate

    def test_half_power_cusp_handled(self):
        # f = t^{1/2} e^{-t}: M'(0) = Gamma(1/2) = sqrt(pi)
        inp, _, deriv = gamma_family([0.0, 1.0, 0.0], 0)
        res = mellin_at_zero(inp)
        assert deriv == pytest.approx(math.sqrt(math.pi))
        assert res.derivative0 == pytest.approx(deriv, abs=1e-9)

    def test_model_ceiling_below_noise_floor(self):
        # near-zero t^{1/2} slot: the extended terms stop decreasing below
        # t ~ 1e-6, far under the cancellation-noise floor (~4e-4); the floor
        # must stay above the noise and the estimate must still cover the error
        coeffs = [
            0.060122689975262045, 0.8408124789700939, -1.2025575467834884,
            1.3091971858634261, -1.901009439432105, 0.5164506900434591,
            1.368226832905759,
        ]
        inp, value, deriv = gamma_family(coeffs, 2)
        res = mellin_at_zero(inp)
        assert res.value0 == pytest.approx(value, abs=1e-12)
        assert abs(res.derivative0 - deriv) <= res.error_estimate < 1e-9

    def test_singular_input_with_pole_terms(self):
        # f = t^{-1} e^{-t}: M(0) = -1, M'(0) = -H_1 = ... value (-1)^1/1! = -1
        inp, value, deriv = gamma_family([1.0], 1)
        res = mellin_at_zero(inp)
        assert value == -1.0
        assert deriv == -1.0
        assert res.value0 == pytest.approx(-1.0)
        assert res.derivative0 == pytest.approx(-1.0, abs=1e-9)


class TestContracts:
    def test_expansion_arity(self):
        with pytest.raises(ArityError):
            MellinInput(lambda t: 0.0, 1, (1.0, 0.0), (1.0, 1.0))

    def test_decay_validation(self):
        with pytest.raises(DomainError):
            MellinInput(lambda t: 0.0, 0, (0.0,), (1.0, 0.0))
        with pytest.raises(DomainError):
            MellinInput(lambda t: 0.0, 0, (0.0,), (-1.0, 1.0))

    def test_floor_without_extended_terms_rejected(self):
        inp = MellinInput(lambda t: 1.0 / t, 1, (1.0, 0.0, 0.0), (1.0, 1.0), 1e-4)
        with pytest.raises(DomainError):
            mellin_at_zero(inp)

    def test_tolerance_invariance(self):
        # halving the tolerance must agree within twice the reported error
        # estimate
        inp, _, _ = gamma_family([0.7, -0.3, 0.4, 0.2], 1)
        loose = mellin_at_zero(inp, 1e-9)
        tight = mellin_at_zero(inp, 5e-10)
        assert abs(loose.derivative0 - tight.derivative0) <= 2.0 * max(
            loose.error_estimate, 1e-14
        )

    def test_loose_tolerance_still_close(self):
        z0, zp0 = riemann_zeta_check(1e-4)
        assert z0 == -0.5
        assert zp0 == pytest.approx(ZETA_PRIME_0, abs=1e-4)

    def test_quadrature_error_carries_partial(self, monkeypatch):
        # an integrand violently oscillating on [1, T] with a tiny subdivision
        # budget cannot converge
        def f(t):
            return np.exp(-t) * np.cos(400.0 * t * t)

        monkeypatch.setattr(mellin, "_MAX_ROUNDS", 10)
        inp = MellinInput(f, 0, (0.0,), (1.0, 0.5))
        with pytest.raises(QuadratureError) as err:
            mellin_at_zero(inp, 1e-13)
        assert math.isfinite(err.value.partial) or math.isnan(err.value.partial)

    def test_gamma_constant_precision(self):
        assert GAMMA_PRIME_1 == -EULER_GAMMA
        assert EULER_GAMMA == pytest.approx(0.57721566490153286061, abs=1e-18)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance(self, value):
        # nan slips past a plain `<= 0` test and would keep the adaptive
        # rule's stop test from ever passing
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            mellin_at_zero(MellinInput(lambda t: np.exp(-t), 0, (1.0,), (1.0, 1.0)), value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_expansion_entry(self, value):
        with pytest.raises(DomainError, match=r"expansion\[1\]"):
            MellinInput(lambda t: np.exp(-t), 1, (1.0, value, 0.0), (1.0, 1.0))

    @pytest.mark.parametrize(
        "decay", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)]
    )
    def test_decay_pair(self, decay):
        # a nan rate used to skip the tail and return derivative0 = -0.2194
        # for e^{-t} (true value 0) with error_estimate = nan
        with pytest.raises(DomainError, match="decay"):
            MellinInput(lambda t: np.exp(-t), 0, (1.0,), decay)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_eval_floor(self, value):
        with pytest.raises(DomainError, match="eval_floor"):
            MellinInput(lambda t: np.exp(-t), 0, (1.0,), (1.0, 1.0), value)


class TestBatchedIntegrator:
    """The adaptive 21-point Gauss-Kronrod rule against QUADPACK (scipy's
    quad), on every integral ``mellin_at_zero`` takes for an input."""

    @staticmethod
    def _compare(run, monkeypatch):
        """Run ``run()`` with every integral of the batched rule checked
        against quad over the same starting panels."""
        seen = []

        def spy(fn, edges, abs_tol, rel_tol, partial):
            value, error = _BATCHED(fn, edges, abs_tol, rel_tol, partial)
            ref = 0.0
            for a, b in zip(edges[:-1], edges[1:]):  # the doubling panels, one quad each
                ref += quad(
                    lambda x: float(fn(np.array([x]))[0]),
                    a,
                    b,
                    epsabs=abs_tol,
                    epsrel=rel_tol,
                    limit=mellin._MAX_ROUNDS,
                )[0]
            seen.append((value, error, ref))
            return value, error

        monkeypatch.setattr(mellin, "_gauss_kronrod", spy)
        run()
        assert len(seen) == 2  # the mid integral and the tail
        for value, error, ref in seen:
            assert abs(value - ref) <= error, (value, ref, error)

    def test_gamma_family(self, monkeypatch):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            k = int(rng.integers(0, 3))
            inp, _, _ = gamma_family(rng.uniform(-2.0, 2.0, size=2 * k + 3), k)
            self._compare(lambda: mellin_at_zero(inp), monkeypatch)

    def test_seed17_input_past_the_model_ceiling(self, monkeypatch):
        coeffs = [
            0.060122689975262045, 0.8408124789700939, -1.2025575467834884,
            1.3091971858634261, -1.901009439432105, 0.5164506900434591,
            1.368226832905759,
        ]
        inp = gamma_family(coeffs, 2)[0]
        self._compare(lambda: mellin_at_zero(inp), monkeypatch)

    def test_zeta_kernel(self, monkeypatch):
        self._compare(riemann_zeta_check, monkeypatch)

    def test_one_integrand_call_per_round(self):
        # every node of a round reaches the integrand in one 1-D float64 array
        shapes = []

        def f(t):
            assert t.ndim == 1 and t.dtype == np.float64
            shapes.append(t.size)
            return np.exp(-t)

        res = mellin_at_zero(MellinInput(f, 0, (1.0,), (1.0, 1.0)))
        assert abs(res.derivative0) < 1e-10
        assert all(size % 21 == 0 for size in shapes)
        # the tail's doubling panels [1, 2, 4, ..., T] share the first call
        assert shapes[1] == 21 * math.ceil(math.log2(mellin._tail_cutoff(1.0, 1.0, 1e-13)))

    # an inf value reaches the rule's own arithmetic as inf - inf
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_integrand_raises(self, bad):
        def f(t):
            out = np.exp(-t)
            out[t > 3.0] = bad
            return out

        with pytest.raises(QuadratureError, match="did not converge"):
            mellin_at_zero(MellinInput(f, 0, (1.0,), (1.0, 1.0)))

    def test_round_limit_is_max_subdivisions(self, monkeypatch):
        calls = []

        def f(t):
            calls.append(t.size)
            return np.exp(-t) * np.cos(400.0 * t * t)

        monkeypatch.setattr(mellin, "_MAX_ROUNDS", 10)
        with pytest.raises(QuadratureError):
            mellin_at_zero(MellinInput(f, 0, (0.0,), (1.0, 0.5)), 1e-13)
        # the mid integral converges; the tail stops after its first rule
        # plus _MAX_ROUNDS = 10 bisection rounds
        assert len(calls) <= 2 * (1 + 10)
