"""The record contract of every public record class, and whole results free of floats.

Each record class is checked on two instances: `sample(k)` builds the
k-th, so two calls with one k give equal records that are not the same
object. The repr strings and field orders are the ones the classes had
when they were built by `dataclasses.dataclass(frozen=True)`.
"""

import copy
import operator
import pickle
import random
from fractions import Fraction

import pytest
from result_leaves import is_canonical, numbers

from tropkit import assign, determ, dynamics, plucker, projector, semiring, spectral, tropmat, twosided
from tropkit.assign import (
    AssignMatrix,
    NotStronglyRegular,
    RegularityCertificate,
    SubdifferentialReport,
    assign_matrix,
    strong_regularity,
    subdifferential,
)
from tropkit.determ import Bideterminant, StandardTransform, bideterminant
from tropkit.dynamics import (
    CrossingMap,
    EigenReduction,
    HomogeneousMap,
    MinPlusTerm,
    PeriodReport,
    RingWord,
    T1HSystem,
    UTermMatrix,
    build_crossing,
    road_event_graph,
    term,
    traffic_light_system,
    uterm_matrix,
)
from tropkit.errors import BadConfig, DimensionMismatch, SchemaError, TagMismatch
from tropkit.plucker import CheckResult, GridFlowNet, SubsetFunction, grid_net, subset_function
from tropkit.projector import (
    Halfspace,
    HilbertReport,
    NotSeparable,
    Semimodule,
    cyclic_spectral_radius,
    semimodule,
)
from tropkit.semiring import MAX_PLUS, MAX_TIMES, MIN_PLUS, Interval, PayloadOps, TropScalar, interval, scalar
from tropkit.spectral import SpectralResult, spectral_analysis
from tropkit.tropmat import IntervalMatrix, TropMatrix, TropVector, matrix, vector
from tropkit.twosided import GeneratorSet, InequalitySystem, solve_system

_SAMPLES = {
    PayloadOps: lambda k: PayloadOps(operator.add, operator.mul, operator.matmul, operator.sub, operator.le, None, k),
    TropScalar: lambda k: TropScalar(f"{k + 1}/2", MIN_PLUS),
    Interval: lambda k: interval(0, 3 + k),
    TropVector: lambda k: vector([1, None, Fraction(1, 2) + k]),
    TropMatrix: lambda k: matrix([[0, None], [k, Fraction(5, 2)]]),
    IntervalMatrix: lambda k: IntervalMatrix(matrix([[0, None]]), matrix([[1, k]])),
    SpectralResult: lambda k: spectral_analysis(matrix([[2 * k, 1], [2, None]])),
    Semimodule: lambda k: semimodule([[0, k], [1, None]]),
    HilbertReport: lambda k: cyclic_spectral_radius([semimodule([[0, k]]), semimodule([[0, 1], [2, 0]])]),
    Halfspace: lambda k: Halfspace(vector([0, None]), vector([0, k])),
    NotSeparable: lambda k: NotSeparable(vector([0, k])),
    InequalitySystem: lambda k: InequalitySystem(matrix([[0, k]]), matrix([[1, 0]])),
    GeneratorSet: lambda k: solve_system(InequalitySystem(matrix([[0, k]]), matrix([[1, 0]]))),
    Bideterminant: lambda k: bideterminant(matrix([[k, 1], [2, 0]])),
    StandardTransform: lambda k: StandardTransform((1, 0), (scalar(k), scalar(1)), (scalar(0), scalar(2)), (0, 1)),
    AssignMatrix: lambda k: assign_matrix([[k, 1], [2, 0]]),
    SubdifferentialReport: lambda k: subdifferential(assign_matrix([[0, 1], [2, 0]]), [k, 0]),
    RegularityCertificate: lambda k: strong_regularity(assign_matrix([[3 + k, 0], [0, 3]])),
    NotStronglyRegular: lambda k: strong_regularity(
        assign_matrix([[k, k], [k, k]] if k else [[0, 0, 0], [0, None, None], [0, None, None]])),
    SubsetFunction: lambda k: subset_function(2, {(): 0, (1,): k, (2,): Fraction(1, 2), (1, 2): 2}),
    CheckResult: lambda k: CheckResult(False, (k, 1)) if k else CheckResult(True),
    GridFlowNet: lambda k: grid_net(2, {((2, 1), (1, 1)): k, ((1, 1), (1, 2)): Fraction(-1, 3)}),
    RingWord: lambda k: RingWord.from_string("10" + "01" * k),
    MinPlusTerm: lambda k: term(Fraction(1, 2), [k, 1 - k, 0]),
    HomogeneousMap: lambda k: HomogeneousMap(1, ((MinPlusTerm(k, [(0, 1)]),),)),
    EigenReduction: lambda k: EigenReduction(1 + k, list, sum),
    CrossingMap: lambda k: CrossingMap(2, ((term(0, [1, 0]),), (term(k, [0, 1]),)), 0, 1, 0, 1, 1),
    UTermMatrix: lambda k: uterm_matrix(2, [[0, None], [k, term(1, [1, -1])]]),
    T1HSystem: lambda k: T1HSystem(matrix([[0]], MIN_PLUS), uterm_matrix(1, [[0]]), None, (0,), (k,)),
    PeriodReport: lambda k: PeriodReport(k, 2, (Fraction(1, 2), 1)),
}
_CLASSES = sorted(_SAMPLES, key=lambda cls: cls.__name__)

# the field names and sample(0)'s repr of each record class, as `dataclasses` built them
_FIELDS = {
    "AssignMatrix": ("data",),
    "Bideterminant": ("plus", "minus"),
    "CheckResult": ("ok", "witness"),
    "CrossingMap": ("dim", "coords", "entry1", "entry2", "exit1", "exit2", "free2"),
    "EigenReduction": ("dim", "g", "lam"),
    "GeneratorSet": ("generators",),
    "GridFlowNet": ("n", "edge_weights"),
    "Halfspace": ("u", "v"),
    "HilbertReport": ("value", "witness_vectors", "support_set", "eigenvector"),
    "HomogeneousMap": ("dim", "coords"),
    "InequalitySystem": ("a", "b"),
    "Interval": ("lo", "hi"),
    "IntervalMatrix": ("lo", "hi"),
    "MinPlusTerm": ("constant", "exponents"),
    "NotSeparable": ("witness",),
    "NotStronglyRegular": ("best_bijection", "second_bijection", "reason"),
    "PayloadOps": ("add", "mul", "dot", "residual", "le", "zero", "unit"),
    "PeriodReport": ("start", "period", "gain"),
    "RegularityCertificate": ("bijection", "f", "g"),
    "RingWord": ("bits",),
    "Semimodule": ("generators",),
    "SpectralResult": ("eigenvalue", "critical_nodes", "critical_edges", "critical_classes", "eigenvectors"),
    "StandardTransform": ("p", "d", "e", "q", "transpose"),
    "SubdifferentialReport": ("mapping", "inverse", "is_covering", "is_minimal_covering"),
    "SubsetFunction": ("n", "table"),
    "T1HSystem": ("c", "a_of_u", "b_of_u", "u0", "x0"),
    "TropMatrix": ("payload", "tag"),
    "TropScalar": ("value", "tag"),
    "TropVector": ("payload", "tag"),
    "UTermMatrix": ("udim", "entries"),
}
_REPRS = {
    "AssignMatrix": "AssignMatrix(data=[0, 1; 2, 0])",
    "Bideterminant": "Bideterminant(plus=0, minus=3)",
    "CheckResult": "CheckResult(ok=True, witness=None)",
    "CrossingMap": (
        "CrossingMap(dim=2, coords=((MinPlusTerm(constant=0, exponents=((0, 1),)),), "
        "(MinPlusTerm(constant=0, exponents=((1, 1),)),)), entry1=0, entry2=1, exit1=0, exit2=1, free2=1)"
    ),
    "EigenReduction": "EigenReduction(dim=1, g=<class 'list'>, lam=<built-in function sum>)",
    "GeneratorSet": "GeneratorSet(generators=[0, -inf; -inf, 0])",
    "GridFlowNet": (
        "GridFlowNet(n=2, edge_weights=((((1, 1), (1, 2)), Fraction(-1, 3)), (((2, 1), (1, 1)), 0), (((2, "
        "1), (2, 2)), 0), (((2, 2), (1, 2)), 0)))"
    ),
    "Halfspace": "Halfspace(u=(0, -inf), v=(0, 0))",
    "HilbertReport": (
        "HilbertReport(value=0, witness_vectors=((1, 1), (1, 1)), support_set=frozenset({0, 1}), "
        "eigenvector=(1, 1))"
    ),
    "HomogeneousMap": "HomogeneousMap(dim=1, coords=((MinPlusTerm(constant=0, exponents=((0, 1),)),),))",
    "InequalitySystem": "InequalitySystem(a=[0, 0], b=[1, 0])",
    "Interval": "[0, 3]",
    "IntervalMatrix": "IntervalMatrix(lo=[0, -inf], hi=[1, 0])",
    "MinPlusTerm": "MinPlusTerm(constant=Fraction(1, 2), exponents=((1, 1),))",
    "NotSeparable": "NotSeparable(witness=(0, 0))",
    "NotStronglyRegular": (
        "NotStronglyRegular(best_bijection=None, second_bijection=None, "
        "reason='no bijection with finite weight')"
    ),
    "PayloadOps": (
        "PayloadOps(add=<built-in function add>, mul=<built-in function mul>, dot=<built-in function matmul>, "
        "residual=<built-in function sub>, le=<built-in function le>, zero=None, unit=0)"
    ),
    "PeriodReport": "PeriodReport(start=0, period=2, gain=(Fraction(1, 2), 1))",
    "RegularityCertificate": "RegularityCertificate(bijection=(0, 1), f=(0, 0), g=(3, 3))",
    "RingWord": "RingWord(bits=(1, 0))",
    "Semimodule": "Semimodule(generators=[0, 1; 0, -inf])",
    "SpectralResult": (
        "SpectralResult(eigenvalue=3/2, critical_nodes=frozenset({0, 1}), critical_edges=frozenset({(0, 1), "
        "(1, 0)}), critical_classes=(frozenset({0, 1}),), eigenvectors=((0, 1/2),))"
    ),
    "StandardTransform": "StandardTransform(p=(1, 0), d=(0, 1), e=(0, 2), q=(0, 1), transpose=False)",
    "SubdifferentialReport": (
        "SubdifferentialReport(mapping={0: frozenset({1}), 1: frozenset({0})}, inverse={0: frozenset({1}), "
        "1: frozenset({0})}, is_covering=True, is_minimal_covering=True)"
    ),
    "SubsetFunction": "SubsetFunction(n=2, table=(0, 0, Fraction(1, 2), 2))",
    "T1HSystem": (
        "T1HSystem(c=[0], a_of_u=UTermMatrix(udim=1, entries=(((MinPlusTerm(constant=0, "
        "exponents=()),),),)), b_of_u=None, u0=(0,), x0=(0,))"
    ),
    "TropMatrix": "[0, -inf; 0, 5/2]",
    "TropScalar": "1/2",
    "TropVector": "(1, -inf, 1/2)",
    "UTermMatrix": (
        "UTermMatrix(udim=2, entries=(((MinPlusTerm(constant=0, exponents=()),), None), "
        "((MinPlusTerm(constant=0, exponents=()),), (MinPlusTerm(constant=1, exponents=((0, 1), (1, "
        "-1))),))))"
    ),
}


def _values(record):
    return tuple(getattr(record, name) for name in type(record)._fields)


def _outcome(fn):
    try:
        return "returns", fn()
    except Exception as exc:  # the exception type is the outcome compared
        return "raises", type(exc)


def test_every_record_class_has_a_sample():
    modules = (assign, determ, dynamics, plucker, projector, semiring, spectral, tropmat, twosided)
    records = {cls for m in modules for cls in vars(m).values() if isinstance(cls, type) and hasattr(cls, "_fields")}
    assert records <= set(_SAMPLES) and len(_SAMPLES) == len(_FIELDS) == len(_REPRS) == 30


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_record_fields_repr_and_equality(cls):
    sample = _SAMPLES[cls]
    a, again, b = sample(0), sample(0), sample(1)
    assert type(a) is cls and cls._fields == _FIELDS[cls.__name__]
    assert repr(a) == _REPRS[cls.__name__]
    # the generated trusted constructor takes the field values in field order
    trusted = cls._trusted(*_values(a))
    assert type(trusted) is cls and trusted == a and _values(trusted) == _values(a)
    # ... and refuses a value list of the wrong length at the call
    for wrong in (_values(a)[:-1], (*_values(a), None)):
        with pytest.raises(ValueError):
            cls._trusted(*wrong)
    assert a is not again and a == again and not a != again
    assert a != b and not a == b
    # == holds only between instances of one class
    assert a != _values(a) and _values(a) != a
    others = [sample(0) for other, sample in _SAMPLES.items() if other is not cls]
    assert all(a != o and o != a for o in others)
    assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(_values(a)))
    if _outcome(lambda: hash(a))[0] == "returns":
        assert hash(a) == hash(again)


def test_records_equal_only_within_their_class():
    road = road_event_graph([1, 0, 1])
    plain = HomogeneousMap(road.dim, road.coords)
    crossing = build_crossing(2, 2, [0])
    assert road == plain and hash(road) == hash(plain)
    assert HomogeneousMap(crossing.dim, crossing.coords) != crossing
    assert crossing._fields[:2] == HomogeneousMap._fields


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_record_is_frozen(cls):
    a = _SAMPLES[cls](0)
    before = _values(a)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert _values(a) == before


def test_plain_subclass_sets_only_attributes_that_are_not_fields():
    class Tagged(HomogeneousMap):
        pass

    class TaggedCrossing(Tagged, CrossingMap):
        pass

    road = road_event_graph([1, 0, 1])
    crossing = build_crossing(2, 2, [0])
    for a in (Tagged(road.dim, road.coords), TaggedCrossing(**{n: getattr(crossing, n) for n in crossing._fields})):
        before = _values(a)
        a.note = 1
        assert a.note == 1
        X, D = list(range(a.dim)), 2
        stepped = a.step(X, D)  # fills the `_compiled` cache
        # a copy keeps the class and the fields; an attribute that is not a
        # field and a cached_property cache are not part of the value
        for b in (copy.copy(a), copy.deepcopy(a)):
            assert type(b) is type(a) and _values(b) == _values(a) and b == a
            assert not hasattr(b, "note") and "_compiled" not in vars(b)
            assert b.step(X, D) == stepped
        del a.note
        assert not hasattr(a, "note")
        for name in a._fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(a, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(a, name)
        assert _values(a) == before


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_record_copies_equal_the_original(cls):
    a = _SAMPLES[cls](0)
    copies = [copy.copy(a), copy.deepcopy(a)]
    if cls is not EigenReduction:  # its sample holds builtins, but real ones hold closures
        copies.append(pickle.loads(pickle.dumps(a)))
    for b in copies:
        assert type(b) is cls and b == a and _outcome(lambda: hash(b)) == _outcome(lambda: hash(a))
        assert list(map(type, _values(b))) == list(map(type, _values(a)))
        assert hasattr(b, "__dict__") == hasattr(a, "__dict__")


@pytest.mark.parametrize("cls", sorted(set(_CLASSES) - {TropVector, TropMatrix}, key=lambda c: c.__name__),
                         ids=lambda cls: cls.__name__)
def test_record_construction_by_position_and_keyword(cls):
    a = _SAMPLES[cls](0)
    values = _values(a)
    assert cls(*values) == a
    assert cls(**dict(zip(cls._fields, values))) == a
    assert cls(*values[:1], **dict(zip(cls._fields[1:], values[1:]))) == a
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{cls._fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, not_a_field=None)
    with pytest.raises(TypeError):
        cls()


def test_vector_and_matrix_construction_by_position_and_keyword():
    assert TropVector([1, None], MAX_PLUS) == TropVector(entries=[1, None], tag=MAX_PLUS) == vector([1, None])
    assert TropMatrix([[1], [None]], tag=MAX_PLUS) == matrix([[1], [None]])
    assert not hasattr(vector([1]), "__dict__") and not hasattr(matrix([[1]]), "__dict__")


def test_record_defaults():
    assert CheckResult(True) == CheckResult(True, None) == CheckResult(ok=True)
    assert CheckResult(True).witness is None
    t = StandardTransform((0,), (scalar(0),), (scalar(1),), (0,))
    assert t.transpose is False and t == StandardTransform((0,), (scalar(0),), (scalar(1),), (0,), False)
    assert StandardTransform((0,), (scalar(0),), (scalar(1),), (0,), transpose=True).transpose is True
    r = HilbertReport(scalar(0), (), frozenset())
    assert r.eigenvector is None and r == HilbertReport(scalar(0), (), frozenset(), None)


def test_post_init_reads_and_validates():
    assert TropScalar("3/1", MAX_PLUS).value == 3 and type(TropScalar("3/1", MAX_PLUS).value) is int
    t = MinPlusTerm(constant="1/2", exponents=[(2, 1), (0, 0), (1, "-1/3")])
    assert t == MinPlusTerm(Fraction(1, 2), ((1, Fraction(-1, 3)), (2, 1)))
    assert SubsetFunction(1, ("1/2", None)).table == (Fraction(1, 2), None)
    assert GridFlowNet(1, ((((1, 1), (1, 2)), "2/1"),)).edge_weights == ((((1, 1), (1, 2)), 2),)
    u, v = vector([1, 0]), vector([0, 0])
    cases = [
        (lambda: Halfspace(u, v), ValueError),  # u is not <= v
        (lambda: Halfspace(vector([0], MIN_PLUS), vector([0], MIN_PLUS)), ValueError),
        (lambda: uterm_matrix(1, [[0, 1], [0]]), DimensionMismatch),  # ragged
        (lambda: UTermMatrix(1, ()), DimensionMismatch),
        (lambda: uterm_matrix(1, [[()]]), ValueError),
        (lambda: TropScalar(0.5, MAX_PLUS), TypeError),
        (lambda: Interval(scalar(2), scalar(1)), ValueError),
        (lambda: Interval(scalar(0), scalar(1, MIN_PLUS)), TagMismatch),
        (lambda: IntervalMatrix(matrix([[2]]), matrix([[1]])), ValueError),
        (lambda: IntervalMatrix(matrix([[1]]), matrix([[1, 2]])), DimensionMismatch),
        (lambda: RingWord((1,)), BadConfig),
        (lambda: RingWord((1, 2)), BadConfig),
        (lambda: MinPlusTerm(0.5, ()), TypeError),
        (lambda: MinPlusTerm(0, [(0, 0.5)]), TypeError),
        (lambda: HomogeneousMap(1, ((term(0, [2]),),)), ValueError),
        (lambda: HomogeneousMap(0, ()), DimensionMismatch),
        (lambda: StandardTransform((0, 0), (), (), ()), ValueError),
        (lambda: StandardTransform((0,), (scalar(None),), (), ()), ValueError),
        (lambda: AssignMatrix(matrix([[0, None], [None, None]])), SchemaError),
        (lambda: AssignMatrix(matrix([[0, 1]])), DimensionMismatch),
        (lambda: InequalitySystem(matrix([[0]]), matrix([[0, 1]])), DimensionMismatch),
        (lambda: InequalitySystem(matrix([[0]], MIN_PLUS), matrix([[0]], MIN_PLUS)), TagMismatch),
        (lambda: Semimodule(matrix([[None]])), SchemaError),
        (lambda: SubsetFunction(2, (0, 0)), ValueError),
        (lambda: GridFlowNet(1, ((((1, 1), (1, 2)), 0.5),)), TypeError),
    ]
    for fn, exc in cases:
        assert _outcome(fn) == ("raises", exc)
    # trusted means unchecked: the record the constructor refuses is built as given
    assert _values(Interval._trusted(scalar(2), scalar(1))) == (scalar(2), scalar(1))
    light = traffic_light_system(2, 2, [0], [1])
    with pytest.raises(DimensionMismatch):
        T1HSystem(light.c, light.a_of_u, light.b_of_u, light.u0, light.x0[1:])
    with pytest.raises(DimensionMismatch):
        CrossingMap(0, (), 0, 0, 0, 0, 0)  # the base class's __post_init__


# -- no float in any public result ----------------------------------------------


def _random_matrix(rng, n, m=None, bottoms=0.2):
    m = n if m is None else m
    return [[None if rng.random() < bottoms else Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
             for _ in range(m)] for _ in range(n)]


def _public_results(rng):
    """name -> the result of one seeded call to each public function of the
    six modules other than `dynamics`, `io` and `cli`."""
    a = matrix(_random_matrix(rng, 4, bottoms=0))
    sparse = matrix(_random_matrix(rng, 4))
    b = assign.assign_matrix(_random_matrix(rng, 4, bottoms=0))
    regular = assign.assign_matrix([[5, 1, 0], [1, 5, 2], [0, Fraction(1, 2), 5]])
    cert = assign.strong_regularity(regular)
    vs = [projector.semimodule(matrix(_random_matrix(rng, 3, 2, 0))) for _ in range(2)]
    x = vector([Fraction(rng.randint(-9, 9), 2) for _ in range(3)])
    lhs = _random_matrix(rng, 2, 3)  # B >= A entrywise, so every x solves A x <= B x
    rhs = [[None if v is None else v + Fraction(rng.randint(0, 4), 2) for v in row] for row in lhs]
    system = twosided.InequalitySystem(matrix(lhs), matrix(rhs))
    n = 3
    w = {e: Fraction(rng.randint(-9, 9), rng.choice((1, 2))) for e in plucker.grid_edges(n)}
    net = plucker.grid_net(n, w)
    f = plucker.flow_tp(net)
    times = matrix([[Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4)] for _ in range(4)], MAX_TIMES)
    t = determ.StandardTransform((1, 0), (scalar(1), scalar(Fraction(1, 2))), (scalar(0), scalar(2)), (0, 1), True)
    return {
        "spectral.max_cycle_mean": spectral.max_cycle_mean(sparse),
        "spectral.spectral_analysis": spectral.spectral_analysis(a),
        "spectral.collatz_wielandt_certificate": spectral.collatz_wielandt_certificate(a),
        "projector.semimodule": vs[0],
        "projector.project": projector.project(vs[0], x),
        "projector.cyclic_orbit": projector.cyclic_orbit(vs, x, 3),
        "projector.hilbert_value": projector.hilbert_value([x, projector.project(vs[1], x)]),
        "projector.cyclic_spectral_radius": projector.cyclic_spectral_radius(vs),
        "projector.separate": projector.separate(vs),
        "twosided.check_solution": twosided.check_solution(system, vector([0, 0, 0])),
        "twosided.row_generators": twosided.row_generators(vector([1, Fraction(1, 2), None]), vector([0, 2, 1])),
        "twosided.solve_system": twosided.solve_system(system),
        "determ.bideterminant": determ.bideterminant(a),
        "determ.permanent": determ.permanent(times),
        "determ.rook_coefficients": determ.rook_coefficients(times),
        "determ.is_trop_singular": determ.is_trop_singular(times),
        "determ.is_pattern_singular": determ.is_pattern_singular(sparse),
        "determ.apply_standard_transform": determ.apply_standard_transform(matrix(_random_matrix(rng, 2)), t),
        "assign.assign_matrix": b,
        "assign.apply_b": assign.apply_b(b, [Fraction(1, 2), 0, 1, 2]),
        "assign.subdifferential": assign.subdifferential(b, [Fraction(1, 2), 0, 1, 2]),
        "assign.optimal_bijections": assign.optimal_bijections(b),
        "assign.strong_regularity": assign.strong_regularity(b),
        "assign.normal_form": assign.normal_form(regular, cert),
        "assign.distances_potentials": assign.distances_potentials(regular, cert.bijection),
        "plucker.subset_mask": plucker.subset_mask([1, 3], 3),
        "plucker.mask_elements": plucker.mask_elements(5),
        "plucker.interval_masks": plucker.interval_masks(3),
        "plucker.subset_function": plucker.subset_function(1, {(): 0, (1,): Fraction(1, 2)}),
        "plucker.is_tp": plucker.is_tp(f),
        "plucker.is_dmtp": plucker.is_dmtp(f),
        "plucker.grid_edges": plucker.grid_edges(n),
        "plucker.grid_net": net,
        "plucker.flow_tp": f,
        "plucker.reconstruct_from_intervals": plucker.reconstruct_from_intervals(n, f.restrict_to_intervals()),
        "plucker.is_submodular": plucker.is_submodular(f),
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_public_results_hold_no_float(seed):
    for name, result in _public_results(random.Random(seed)).items():
        values = numbers(result)
        assert not any(type(v) is float for v in values), name
        assert all(is_canonical(v) for v in values), name
