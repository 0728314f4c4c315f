"""The partition gate: every shape argument of a public entry goes through
partitions.partition, and a composition argument stays a composition."""

import ast
from pathlib import Path

import pytest

import plethtomo
from plethtomo import characters, coefficients, reductions, restricted, sympoly, tableaux
from plethtomo.partitions import partition, transpose
from plethtomo.tomography import count_point_sets

NOT_A_PARTITION = (1, 2)


def sympoly_key(k, key):
    """The SymPoly constructor on a single key."""
    return sympoly.SymPoly(k, {key: 1})


# (entry, arguments it answers, the positions of its shape arguments)
GATED = [
    (partition, ((2, 1),), [0]),
    (transpose, ((2, 1),), [0]),
    (characters.sn_character, ((2, 1), (2, 1)), [0, 1]),
    (characters.kronecker_shapes, ((2, 1), (2, 1), (2, 1)), [0, 1, 2]),
    (characters.kronecker, ((2, 1), (2, 1), (2, 1)), [0, 1, 2]),
    (characters.plethysm_power_expansion, ((1,), (2, 1)), [0, 1]),
    (characters.plethysm_schur_multiplicity, ((2, 1), (1,), (2, 1)), [0, 1, 2]),
    (characters.plethysm_schur_table, ((1,), (2, 1)), [0, 1]),
    (coefficients.kronecker, ((2, 1), (2, 1), (2, 1)), [0, 1, 2]),
    (coefficients.general_plethysm, ((2, 1), (1,), (2, 1)), [0, 1, 2]),
    (coefficients.jacobi_trudi_coeff, ((2, 1), (1,), (2, 1)), [0, 1, 2]),
    (coefficients.weight_multiplicity, ((1,), (2, 1), (2, 1)), [0, 1]),
    (coefficients.dim_plethysm_module, ((1,), (2, 1), 3), [0, 1]),
    (tableaux.kostka, ((2, 1), (1, 1, 1)), [0]),
    (tableaux.ssyt_weights, ((2, 1), 3), [0]),
    (tableaux.count_weighted_ssyt, ((2, 1), [(1,)], (3,)), [0]),
    (tableaux.dim_weyl, ((2, 1), 3), [0]),
    (sympoly.schur_poly, ((2, 1), 3), [0]),
    (sympoly_key, (3, (2, 1)), [1]),
    (reductions.inner_lift, ((2, 1), 3, 1, "a"), [0]),
    (restricted.psi_decompose, ((2, 1), "sym"), [0]),
    (restricted.psi_splits, ((2, 1), (3,), (8, 1)), [0]),
    (restricted.count_cone_ssyt, ((2, 1), (8, 1), "sym"), [0]),
]


@pytest.mark.parametrize(
    "entry,args",
    [
        pytest.param(entry, args[:i] + (NOT_A_PARTITION,) + args[i + 1 :], id=f"{entry.__module__.rsplit('.', 1)[-1]}.{entry.__name__}-{i}")
        for entry, args, positions in GATED
        for i in positions
    ],
)
def test_every_shape_argument_raises_on_a_non_partition(entry, args):
    with pytest.raises(ValueError, match=r"^\(1, 2\) is not a partition$"):
        entry(*args)


def test_composition_arguments_stay_compositions():
    assert tableaux.kostka((2, 1), (1, 2)) == tableaux.kostka((2, 1), (2, 1)) == 1
    assert coefficients.weight_multiplicity((1,), (2, 1), (1, 2)) == coefficients.weight_multiplicity((1,), (2, 1), (2, 1))
    assert tableaux.count_weighted_ssyt((1,), [(1, 2)], (1, 2)) == 1
    # the one point (1, 1, 0)
    assert count_point_sets((1, 2), "closed") == 1
    assert restricted.psi_splits((1,), (3,), (1, 2)) == []


def raises_naming(*phrases: str) -> list[tuple[str, str | None]]:
    """(file, enclosing function) of every raise in the package whose
    string constants contain one of the phrases."""
    package = Path(plethtomo.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            text = " ".join(c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str))
            if any(phrase in text for phrase in phrases):
                found.append((path.name, owner.get(id(node))))
    return found


def test_the_gate_is_the_only_raise_that_names_a_non_partition():
    # a raise whose message says a shape is not a partition, anywhere in
    # the package, sits in partitions.partition
    assert raises_naming("not a partition", "must be partitions") == [("partitions.py", "partition")]
