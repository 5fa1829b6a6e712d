"""The samplers draw the numbers of their references in tests/oracles.py
bit for bit and leave the generator in the same state.

The package's one standard-normal kernel, matrix2._complex_gauss, writes out
CPython's Random.gauss, so these tests also fail when that method changes.
Every sampler is started with no value pending in rng.gauss_next and with
one pending, compares float.hex of every real and imaginary part, and then
compares rng.getstate() (the pending value's sign included).
"""

import math
import random

import pytest

from mublocks import domain_f, matrix2, verify
from oracles import (closed_ball_matrix_reference, complex_gauss_reference,
                     contraction_from_rng_reference, lie_ball_interior_reference,
                     sample_shilov_param_f_reference, unit_s3_reference,
                     unitary_from_rng_reference)

SEEDS = range(200)

# (sampler, reference, draws per seed)
SAMPLERS = {
    "complex_gauss": (matrix2._complex_gauss, complex_gauss_reference, 5),
    "unitary_from_rng": (matrix2.unitary_from_rng, unitary_from_rng_reference, 3),
    "contraction_from_rng": (matrix2.contraction_from_rng,
                             contraction_from_rng_reference, 3),
    "closed_ball_matrix": (verify._closed_ball_matrix,
                           closed_ball_matrix_reference, 3),
    "lie_ball_interior": (verify._lie_ball_interior, lie_ball_interior_reference, 2),
    "unit_s3": (verify._unit_s3, unit_s3_reference, 3),
    "sample_shilov_param_f": (domain_f.sample_shilov_param_f,
                              sample_shilov_param_f_reference, 3),
}


def _hex(value) -> list:
    """float.hex of every real and imaginary part in a sample."""
    if isinstance(value, float):
        return [value.hex()]
    if isinstance(value, complex):
        return [value.real.hex(), value.imag.hex()]
    if isinstance(value, domain_f.ShilovParamF):
        value = (value.theta, value.x2, value.x3, value.x4)
    return [h for v in value for h in _hex(v)]


def _assert_same_state(new: random.Random, old: random.Random) -> None:
    assert new.getstate() == old.getstate()
    pending = (new.gauss_next, old.gauss_next)
    assert pending == (None, None) or _hex(pending[0]) == _hex(pending[1])


def _pair(seed: int, pending: bool):
    new, old = random.Random(seed), random.Random(seed)
    if pending:   # a lone gauss draw leaves its partner pending
        assert new.gauss(0.0, 1.0) == old.gauss(0.0, 1.0)
        assert new.gauss_next is not None
    return new, old


@pytest.mark.parametrize("pending", (False, True), ids=("none_pending", "pending"))
@pytest.mark.parametrize("name", SAMPLERS)
def test_sampler_matches_its_reference_bit_for_bit(name, pending):
    sampler, reference, draws = SAMPLERS[name]
    for seed in SEEDS:
        new, old = _pair(seed, pending)
        for _ in range(draws):
            assert _hex(sampler(new)) == _hex(reference(old)), (name, seed)
        _assert_same_state(new, old)


def test_complex_gauss_alternates_the_pending_value():
    """Mixed with lone gauss draws, the kernel sees both parities over and
    over and hands the pending value on exactly as two gauss calls do."""
    for seed in SEEDS:
        new, old = random.Random(seed), random.Random(seed)
        for k in range(12):
            if k % 3 == 1:
                assert new.gauss(0.0, 1.0).hex() == old.gauss(0.0, 1.0).hex()
            else:
                z, w = matrix2._complex_gauss(new), complex_gauss_reference(old)
                assert _hex(z) == _hex(w)
            _assert_same_state(new, old)


class _Scripted(random.Random):
    """random() returns the scripted uniforms first, then its own stream.
    (Python 3.10's Random takes no keyword or second argument in a
    subclass, so the script is set after construction.)"""

    script = ()

    def random(self):
        return self.script.pop(0) if self.script else super().random()


def _scripted(seed, script) -> _Scripted:
    rng = _Scripted(seed)
    rng.script = list(script)
    return rng


def _scripted_pair(seed, script, pending):
    new, old = _scripted(seed, script), _scripted(seed, script)
    if pending:
        new.gauss_next = old.gauss_next = 0.25
    return new, old


@pytest.mark.parametrize("pending", (False, True), ids=("none_pending", "pending"))
def test_zero_uniforms_give_positive_zeros(pending):
    """random() = 0.0 makes the radius sqrt(-0.0) = -0.0, so cos * g and
    sin * g are -0.0; the kernel returns +0.0 through 0.0 + value as gauss
    does, and a -0.0 left pending stays -0.0."""
    new, old = _scripted_pair(1, [0.0] * 8, pending)
    for _ in range(4):
        z, w = matrix2._complex_gauss(new), complex_gauss_reference(old)
        assert _hex(z) == _hex(w)
        _assert_same_state(new, old)
    assert _hex(z) == ["0x0.0p+0", "0x0.0p+0"]
    if pending:
        assert new.gauss_next.hex() == "-0x0.0p+0"


@pytest.mark.parametrize("pending", (False, True), ids=("none_pending", "pending"))
@pytest.mark.parametrize("name", sorted(set(SAMPLERS) - {"complex_gauss"}))
def test_samplers_after_zero_uniforms(name, pending):
    """Zero uniforms first (zero columns: the unitary samplers reject and
    redraw), then the generator's own stream."""
    sampler, reference, _ = SAMPLERS[name]
    for seed in range(20):
        new, old = _scripted_pair(seed, [0.0] * (4 + seed % 5), pending)
        assert _hex(sampler(new)) == _hex(reference(old)), (name, seed)
        assert new.script == old.script
        _assert_same_state(new, old)


@pytest.mark.parametrize("name, tail", [("contraction_from_rng", [0.0, 0.0]),
                                        ("closed_ball_matrix", [0.5, 0.0, 0.5, 0.0])])
def test_zero_singular_values_keep_the_signs_of_zero(name, tail):
    """With s1 = s2 = 0 every entry of U diag(s1, s2) V* is a signed zero,
    and which sign it gets rests on the 0j products of Matrix2.__matmul__."""
    sampler, reference, _ = SAMPLERS[name]
    signs = set()
    for seed in range(50):
        base = random.Random(seed)
        script = [base.random() for _ in range(16)] + tail   # two unitaries, then s1, s2
        new, old = _scripted_pair(seed, script, False)
        sample = _hex(sampler(new))
        assert sample == _hex(reference(old)), (name, seed)
        assert new.script == old.script == []
        signs.update(sample)
    assert signs == {"0x0.0p+0", "-0x0.0p+0"}


def _radius_uniform(total: float) -> float:
    """u with 0.55^2 * (-2 log(1 - u)) = total: one Box-Muller step whose
    complex normal, times 0.55, has |z|^2 = total (up to rounding)."""
    return -math.expm1(-total / 0.605)


@pytest.mark.parametrize("pending", (False, True), ids=("none_pending", "pending"))
def test_lie_ball_sampler_at_the_unit_sphere(pending):
    """Tries scripted to put sum |z|^2 just above and just below 1, and just
    past the pre-test's 1 + 1e-9 bound, are judged as the reference judges
    them; a last try at 0.99 (margin (1 - 0.99)^2 = 1e-4) is accepted after
    them by both."""
    tries = []
    for total in (1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 2e-9, 0.99):
        tries += [0.3, _radius_uniform(total)] + [0.6, 0.0] * 3
    new, old = _scripted_pair(5, tries, pending)
    assert _hex(verify._lie_ball_interior(new)) == _hex(lie_ball_interior_reference(old))
    assert new.script == old.script
    _assert_same_state(new, old)
    if not pending:   # the scripted sums straddle 1 as intended
        sums = []
        probe = _scripted(5, tries)
        for _ in range(4):
            z = [0.55 * complex_gauss_reference(probe) for _ in range(4)]
            sums.append(sum(abs(v) ** 2 for v in z))
        assert sums[0] > 1.0 > sums[1] and sums[2] > 1.0 + 1e-9
        assert new.script == [] and abs(sums[3] - 0.99) < 1e-12
