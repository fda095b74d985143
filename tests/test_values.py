"""Value semantics of the package's thirteen record classes.

Each class is an immutable value: it is built by position or by keyword
(with the defaults its signature names), it checks and normalises its
fields as it is built, it refuses assignment and deletion, it equals an
instance of the same class with equal fields and nothing else, and it
hashes by its fields where they are hashable.  These tests read only that
behaviour, not how the classes implement it.
"""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from gmsurf.covers import CoverCertificate, CoverSpec
from gmsurf.decision import Branch, TwoPieceInvariant, Verdict
from gmsurf.exact_linalg import Inertia, SymMatrix
from gmsurf.manifold import DecompositionGraph, GluingTorus, SeifertPiece
from gmsurf.reduction import NegativityCertificate, ReductionCertificate
from gmsurf.surface import CurveSystem, SurfaceCertificate

F = Fraction
P = inspect.Parameter.POSITIONAL_OR_KEYWORD
NO = inspect.Parameter.empty

PIECES = (SeifertPiece(1, F(-1, 2), 1, (2, 3)), SeifertPiece(2, F(1)))
REDUCTION = ReductionCertificate(({0: F(-1), 1: F(1)}, {0: F(1), 1: F(-1)}), (F(1), F(1)))
SYSTEM = CurveSystem(0, 1, 1, 0, 1, 0)

# class: (its fields' values, other values that differ in one field,
#         the repr of an instance with the first values, hashable?)
CASES = {
    Inertia: ((1, 0, 2), (1, 0, 3), "Inertia(n_pos=1, n_zero=0, n_neg=2)", True),
    SymMatrix: (
        (({0: F(-1), 1: F(1)}, {0: F(1), 1: F(-2)}),),
        (({0: F(-1), 1: F(1)}, {0: F(1), 1: F(-3)}),),
        "SymMatrix([[-1, 1], [1, -2]])",
        False,
    ),
    SeifertPiece: (
        (1, F(-1, 2), 1, (2, 3)),
        (1, F(-1, 2), 1, (2, 4)),
        "SeifertPiece(id=1, euler=Fraction(-1, 2), genus=1, cone_orders=(2, 3))",
        True,
    ),
    GluingTorus: (
        (1, 2, 1, 1, 1, 0),
        (1, 2, 1, 1, 1, 2),
        "GluingTorus(from_piece=1, to_piece=2, p=1, q=1, q_prime=1, p_prime=0)",
        True,
    ),
    DecompositionGraph: (
        (PIECES, (GluingTorus(1, 2, 1),)),
        (PIECES, (GluingTorus(1, 2, 2),)),
        f"DecompositionGraph(pieces={PIECES!r}, tori=({GluingTorus(1, 2, 1)!r},))",
        True,
    ),
    Verdict: (
        (True, True, Branch.POSITIVE_EIGENVALUE, 1, ([0], [1], [])),
        (True, True, Branch.POSITIVE_EIGENVALUE, 1, ([0], [], [1])),
        "Verdict(property_i=True, property_ve=True, branch=<Branch.POSITIVE_EIGENVALUE: "
        "'PositiveEigenvalue'>, perron_sign=1, blocks=([0], [1], []))",
        False,
    ),
    TwoPieceInvariant: (
        (F(1, 4), F(1), F(1, 4), F(1)),
        (F(1, 4), F(1), F(1, 4), F(2)),
        "TwoPieceInvariant(d=Fraction(1, 4), a11=Fraction(1, 1), a22=Fraction(1, 4), a12=Fraction(1, 1))",
        True,
    ),
    ReductionCertificate: (
        (REDUCTION.a_prime, REDUCTION.a),
        (REDUCTION.a_prime, (F(1), F(2))),
        "ReductionCertificate(a_prime=({0: Fraction(-1, 1), 1: Fraction(1, 1)}, "
        "{0: Fraction(1, 1), 1: Fraction(-1, 1)}), a=(Fraction(1, 1), Fraction(1, 1)))",
        False,
    ),
    NegativityCertificate: (
        ((F(1), F(2)), (F(-1), F(-1))),
        ((F(1), F(2)), (F(0), F(0))),
        "NegativityCertificate(a=(Fraction(1, 1), Fraction(2, 1)), image=(Fraction(-1, 1), Fraction(-1, 1)))",
        True,
    ),
    CurveSystem: (
        (0, 1, 1, 0, 1, 0),
        (0, 1, 1, 0, 1, 1),
        "CurveSystem(torus=0, side=1, a_plus=1, a_minus=0, b_plus=1, b_minus=0)",
        True,
    ),
    SurfaceCertificate: (
        ((1, 1), 1, REDUCTION, (SYSTEM,)),
        ((1, 1), 2, REDUCTION, (SYSTEM,)),
        f"SurfaceCertificate(degrees=(1, 1), scale=1, reduction={REDUCTION!r}, systems=({SYSTEM!r},))",
        False,
    ),
    CoverSpec: (
        (1, 3, ((3,), (2, 1))),
        (1, 3, ((3,), (1, 1, 1))),
        "CoverSpec(genus=1, alpha=3, boundary_degrees=((3,), (2, 1)))",
        True,
    ),
    CoverCertificate: (
        (3, ((1, 2, 0),), ((0, 2, 1),), ()),
        (3, ((1, 2, 0),), ((1, 0, 2),), ()),
        "CoverCertificate(alpha=3, x=((1, 2, 0),), y=((0, 2, 1),), z=())",
        True,
    ),
}

# The parameters of each constructor: (name, default), in order.
SIGNATURES = {
    Inertia: (("n_pos", NO), ("n_zero", NO), ("n_neg", NO)),
    SymMatrix: (("sparse", NO),),
    SeifertPiece: (("id", NO), ("euler", NO), ("genus", 0), ("cone_orders", ())),
    GluingTorus: (
        ("from_piece", NO), ("to_piece", NO), ("p", NO), ("q", 1), ("q_prime", 1), ("p_prime", 0),
    ),
    DecompositionGraph: (("pieces", NO), ("tori", ())),
    Verdict: (
        ("property_i", NO), ("property_ve", NO), ("branch", NO), ("perron_sign", NO), ("blocks", NO),
    ),
    TwoPieceInvariant: (("d", NO), ("a11", NO), ("a22", NO), ("a12", NO)),
    ReductionCertificate: (("a_prime", NO), ("a", NO)),
    NegativityCertificate: (("a", NO), ("image", NO)),
    CurveSystem: (
        ("torus", NO), ("side", NO), ("a_plus", NO), ("a_minus", NO), ("b_plus", NO), ("b_minus", NO),
    ),
    SurfaceCertificate: (("degrees", NO), ("scale", NO), ("reduction", NO), ("systems", NO)),
    CoverSpec: (("genus", NO), ("alpha", NO), ("boundary_degrees", NO)),
    CoverCertificate: (("alpha", NO), ("x", NO), ("y", NO), ("z", NO)),
}

CLASSES = sorted(CASES, key=lambda cls: cls.__name__)


def names(cls) -> list[str]:
    return [name for name, _ in SIGNATURES[cls]]


def test_the_thirteen_classes_are_pinned():
    assert len(CASES) == len(SIGNATURES) == 13
    assert CASES.keys() == SIGNATURES.keys()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_constructor_parameters_and_defaults(cls):
    parameters = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in parameters] == list(SIGNATURES[cls])
    assert {p.kind for p in parameters} == {P}
    with pytest.raises(TypeError):
        cls(*CASES[cls][0], None)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_by_position_and_by_keyword(cls):
    values = CASES[cls][0]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names(cls), values)))
    assert by_position == by_keyword
    for name, value in zip(names(cls), values):
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value


def test_defaults_fill_the_trailing_fields():
    assert SeifertPiece(1, F(2)) == SeifertPiece(1, F(2), 0, ())
    assert SeifertPiece(id=1, euler=F(2), cone_orders=(2,)).genus == 0
    assert GluingTorus(1, 2, 3) == GluingTorus(1, 2, 3, 1, 1, 0)
    assert GluingTorus(from_piece=1, to_piece=2, p=3, p_prime=4).q_prime == 1
    assert DecompositionGraph(PIECES).tori == ()


def test_fields_are_normalised_as_they_are_set():
    piece = SeifertPiece(1, 3, 0, [2, 3])
    assert type(piece.euler) is Fraction and piece.euler == 3
    assert type(piece.cone_orders) is tuple and piece.cone_orders == (2, 3)
    assert SeifertPiece(1, "-1/2").euler == F(-1, 2)
    graph = DecompositionGraph(list(PIECES), [GluingTorus(1, 2, 1)])
    assert type(graph.pieces) is tuple and type(graph.tori) is tuple
    assert graph == DecompositionGraph(PIECES, (GluingTorus(1, 2, 1),))
    matrix = SymMatrix([{0: F(1)}])
    assert type(matrix.sparse) is tuple
    spec = CoverSpec(1, 3, [[3], [2, 1]])
    assert spec.boundary_degrees == ((3,), (2, 1))
    assert all(type(inner) is tuple for inner in spec.boundary_degrees)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: SeifertPiece(True, F(1)), TypeError, "piece id must be an integer, got True"),
        (lambda: SeifertPiece(1, 1.5), TypeError, "floats are not exact; got 1.5"),
        (lambda: SeifertPiece(1, F(1), "1"), TypeError, "piece 1: genus must be an integer, got '1'"),
        (lambda: SeifertPiece(1, F(1), -1), ValueError, "piece 1: genus must be non-negative"),
        (lambda: SeifertPiece(1, F(1), 0, (2.0,)), TypeError, "piece 1: cone orders must be integers, got 2.0"),
        (lambda: SeifertPiece(1, F(1), 0, (1,)), ValueError, "piece 1: cone orders must be >= 2, got 1"),
        (lambda: GluingTorus(1, 2, 1, q_prime=False), TypeError, "torus field q_prime must be an integer, got False"),
        (lambda: GluingTorus(1, "2", 1), TypeError, "torus field to_piece must be an integer, got '2'"),
        (lambda: SymMatrix(({0: 1},)), TypeError, "entry (0, 0) is not a nonzero Fraction: 1"),
        (lambda: SymMatrix(({0: F(0)},)), TypeError, "entry (0, 0) is not a nonzero Fraction: Fraction(0, 1)"),
        (lambda: SymMatrix(({1: F(1)},)), ValueError, "row 0 has column 1 outside 0..0"),
        (lambda: SymMatrix(({1: F(1)}, {})), ValueError, "not symmetric at (0, 1)"),
        (lambda: CoverSpec(1.0, 3, ((3,),)), TypeError, "genus must be an integer, got 1.0"),
        (lambda: CoverSpec(1, True, ((1,),)), TypeError, "alpha must be an integer, got True"),
        (lambda: CoverSpec(1, 3, ((3.0,),)), TypeError, "boundary circle 0: degrees must be integers, got 3.0"),
        (lambda: CoverSpec(0, 3, ((3,),)), ValueError, "genus must be >= 1, got 0"),
        (lambda: CoverSpec(1, 0, ((),)), ValueError, "alpha must be >= 1, got 0"),
        (lambda: CoverSpec(1, 3, ()), ValueError, "need at least one boundary circle"),
        (lambda: CoverSpec(1, 3, ((3, 0),)), ValueError, "boundary circle 0: degrees must be positive"),
        (lambda: CoverSpec(1, 3, ((3,), (2,))), ValueError, "boundary circle 1: degrees sum to 2, expected 3"),
    ],
)
def test_validation_errors_are_unchanged(make, error, message):
    with pytest.raises(error) as excinfo:
        make()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise_attribute_error(cls):
    value = cls(*CASES[cls][0])
    before = repr(value)
    for name in names(cls):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert repr(value) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_by_type_and_fields(cls):
    values, other, _, _ = CASES[cls]
    value = cls(*values)
    assert value == cls(*values) and not value != cls(*values)
    assert value != cls(*other) and not value == cls(*other)
    assert value != values and value != object()
    assert value.__eq__(values) is NotImplemented

    class Subclass(cls):
        pass

    assert value != Subclass(*values)
    assert Subclass(*values) != value


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_hash_by_fields_where_they_are_hashable(cls):
    values, _, _, hashable = CASES[cls]
    value = cls(*values)
    if hashable:
        assert hash(value) == hash(cls(*values))
        assert {value: 1}[cls(*values)] == 1
    else:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr(cls):
    values, _, text, _ = CASES[cls]
    assert repr(cls(*values)) == text


def test_inertia_str():
    assert str(Inertia(1, 0, 2)) == "(1, 0, 2)"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_round_trip(cls):
    value = cls(*CASES[cls][0])
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and repr(clone) == repr(value)
        assert clone == value


def test_last_z_is_kept_outside_equality_hash_and_repr():
    values = CASES[CoverCertificate][0]
    cert, fresh = CoverCertificate(*values), CoverCertificate(*values)
    text, code = repr(cert), hash(cert)
    last = cert.last_z()
    assert cert.last_z() is last
    assert cert == fresh and fresh == cert
    assert hash(cert) == code == hash(fresh)
    assert repr(cert) == text
    assert cert.all_z() == (last,)
    with pytest.raises(AttributeError):
        cert._last_z = None
    assert cert.last_z() is last
