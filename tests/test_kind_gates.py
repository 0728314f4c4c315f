"""The cone gate and the family gate: every cone-kind argument of a public
entry goes through tomography.cone_kind, and every a/b family argument
through coefficients.outer_shape, each before any shortcut."""

import tracemalloc

import pytest
from test_partition_gate import raises_naming

from plethtomo import coefficients, reductions, restricted, tomography
from plethtomo.coefficients import CoefficientResult
from plethtomo.reductions import PlethysmInstance
from plethtomo.tomography import XRayInstance2D

EXAMPLE_1 = XRayInstance2D(1, (1, 1), (1, 1), (2, 0))

# (entry, the arguments before the cone kind, which answer with either
# cone); most are trivial inputs that answered any kind before the gate
CONE_ENTRIES = [
    (tomography.in_cone, ((1, 0, 0),)),
    (tomography.is_pyramid, (set(),)),
    (tomography.complete_pyramid, (-1,)),
    (tomography.pyramid_marginal, (1,)),
    (tomography.xi, (-1,)),
    (tomography.xi_by_enumeration, (2,)),
    (tomography.iota, (1,)),
    (tomography.beta, (0,)),
    (tomography.is_promise_instance, ((),)),
    (tomography.count_point_sets, ((),)),
    (tomography.count_pyramids, ((),)),
    (tomography.count_sym_2dxray, ((), 0)),
    (tomography.SymInstance, ((),)),
    (reductions.symmetrize_2d, (EXAMPLE_1,)),
    (reductions.embed_pyramid_3d, ((1,), 1)),
    (reductions.promise_to_plethysm, ((1,),)),
    (restricted.pyramid_size, (-1,)),
]

# (entry, a function of the family giving its arguments, which answer);
# resolve_coefficient used to count (3,) at (1, 3) of any family but b as
# the open cone's point set at (1,1,1), and answered 1
FAMILY_ENTRIES = [
    (coefficients.outer_shape, lambda v: (1, v)),
    (coefficients.plethysm_coeff, lambda v: ((), 0, 3, v)),
    (coefficients.m2_closed_form, lambda v: (0, v)),
    (reductions.inner_lift, lambda v: ((2, 1), 3, 1, v)),
    (reductions.resolve_coefficient, lambda v: (PlethysmInstance((3,), 1, 3, v),)),
]


def entry_id(entry) -> str:
    return f"{entry.__module__.rsplit('.', 1)[-1]}.{entry.__name__}"


@pytest.mark.parametrize("entry,args", CONE_ENTRIES, ids=[entry_id(e) for e, _ in CONE_ENTRIES])
def test_every_cone_kind_argument_is_checked(entry, args):
    for kind in ("closed", "open"):
        entry(*args, kind)
    with pytest.raises(ValueError, match=r"^unknown cone kind 'bogus'$"):
        entry(*args, "bogus")


@pytest.mark.parametrize("entry,args", FAMILY_ENTRIES, ids=[entry_id(e) for e, _ in FAMILY_ENTRIES])
def test_every_family_argument_is_checked(entry, args):
    for variant in ("a", "b"):
        entry(*args(variant))
    with pytest.raises(ValueError, match=r"^variant must be 'a' or 'b', got 'x'$"):
        entry(*args("x"))


def test_the_family_gate_refuses_a_negative_outer_degree():
    # (1^-2) was the empty shape: b_()(-2, 3) answered 1
    for query in (
        lambda: coefficients.outer_shape(-2, "b"),
        lambda: coefficients.plethysm_coeff((), -2, 3, "b"),
        lambda: coefficients.m2_closed_form(-1, "a"),
        lambda: reductions.resolve_coefficient(PlethysmInstance((), -2, 3, "b")),
    ):
        with pytest.raises(ValueError, match=r"^outer degree n must be >= 0, got -[12]$"):
            query()


def test_the_family_gate_builds_no_outer_shape():
    # (1^n) at n = 10^6 is an 8 MB tuple, which the gate built and dropped
    # on every query, and plethysm_coeff built before its degree check and
    # to answer s_mu[1] = [len(mu) <= 1] at m = 0
    n = 10**6
    mismatch = CoefficientResult(0, "degree-mismatch")
    for query, want in (
        (lambda: coefficients.plethysm_coeff((1,), n, 3, "b"), mismatch),
        (lambda: reductions.resolve_coefficient(PlethysmInstance((1,), n, 3, "b")), mismatch),
        (lambda: coefficients.plethysm_coeff((), n, 0, "a"), CoefficientResult(1, "jacobi-trudi")),
        (lambda: coefficients.plethysm_coeff((), n, 0, "b"), CoefficientResult(0, "jacobi-trudi")),
    ):
        tracemalloc.start()
        try:
            assert query() == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_outer_shapes():
    assert coefficients.outer_shape(0, "a") == coefficients.outer_shape(0, "b") == ()
    assert coefficients.outer_shape(3, "a") == (3,)
    assert coefficients.outer_shape(3, "b") == (1, 1, 1)


def test_each_gate_is_the_only_raise_that_names_its_vocabulary():
    assert raises_naming("unknown cone kind") == [("tomography.py", "cone_kind")]
    assert raises_naming("must be 'a' or 'b'") == [("coefficients.py", "outer_shape")]
