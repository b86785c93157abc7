import random
from fractions import Fraction

import pytest

from flow_oracle import flow_table_enumerated, flow_value_bruteforce, reconstruct_fixpoint_oracle
from tropkit import plucker
from tropkit.errors import Inconsistent, NoFlow, SchemaError, TooLarge
from tropkit.plucker import (
    CHECK_CAP,
    GridFlowNet,
    SubsetFunction,
    flow_tp,
    grid_edges,
    grid_net,
    interval_masks,
    is_dmtp,
    is_submodular,
    is_tp,
    mask_elements,
    reconstruct_from_intervals,
    subset_function,
    subset_mask,
)
from tropkit.semiring import scalar


def test_trivial_functions():
    f0 = subset_function(3, {m: 0 for m in range(8)})
    assert is_tp(f0) and is_dmtp(f0)
    fcard = subset_function(3, {m: bin(m).count("1") for m in range(8)})
    assert is_tp(fcard) and is_dmtp(fcard)


def test_flow_matches_edge_subset_oracle_n2():
    rng = random.Random(21)
    for _ in range(25):
        w = {e: Fraction(rng.randint(-4, 4)) for e in grid_edges(2)}
        net = grid_net(2, w)
        f = flow_tp(net)
        for mask in range(4):
            assert f.table[mask] == flow_value_bruteforce(net, mask_elements(mask))


def test_flow_matches_path_system_oracle():
    rng = random.Random(27)
    for n in (1, 2, 3, 4):
        for _ in range(30 if n < 4 else 10):
            w = {e: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for e in grid_edges(n)}
            net = grid_net(n, w)
            f = flow_tp(net)
            assert list(f.table) == flow_table_enumerated(net)
            assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in f.table)


@pytest.mark.parametrize("n", range(1, CHECK_CAP + 1))
def test_zero_weight_grid_routes_every_subset(n):
    f = flow_tp(grid_net(n, {}))
    assert f.is_finite() and all(v == 0 for v in f.table)


@pytest.mark.parametrize("n", range(5, CHECK_CAP + 1))
def test_flow_functions_above_enumeration_reach(n):
    rng = random.Random(28 + n)
    w = {e: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for e in grid_edges(n)}
    f = flow_tp(grid_net(n, w))
    assert f.is_finite()
    assert is_tp(f) and is_dmtp(f)
    assert is_submodular(f) == is_submodular(f, on_intervals_only=True)
    assert reconstruct_from_intervals(n, f.restrict_to_intervals()).table == f.table


def test_flow_capped_at_check_cap():
    with pytest.raises(TooLarge):
        flow_tp(grid_net(CHECK_CAP + 1, {}))
    # refused before the 2^n table is allocated
    with pytest.raises(TooLarge):
        subset_function(64, {0: 0})


def test_flow_without_residual_path_raises_no_flow():
    with pytest.raises(NoFlow):
        flow_tp(GridFlowNet(2, ()))  # no edges: source 1 cannot reach sink 1


def test_flow_empty_set_and_zero_weights():
    net = grid_net(3, {})
    f = flow_tp(net)
    assert f.value([]) == 0
    assert all(v == 0 for v in f.table)


def test_flow_functions_are_dmtp_and_tp():
    rng = random.Random(22)
    for _ in range(40):
        w = {e: Fraction(rng.randint(-4, 4)) for e in grid_edges(3)}
        f = flow_tp(grid_net(3, w))
        assert f.is_finite()
        assert is_dmtp(f)
        assert is_tp(f)  # the grid realizes tropical flag minors exactly


def test_perturbation_yields_witness():
    rng = random.Random(23)
    w = {e: Fraction(rng.randint(-4, 4)) for e in grid_edges(3)}
    f = flow_tp(grid_net(3, w))
    vals = {m: f.table[m] for m in range(8)}
    vals[subset_mask([1, 3], 3)] += 1
    fp = subset_function(3, vals)
    r = is_tp(fp)
    assert not r and r.witness is not None
    rd = is_dmtp(fp)
    assert not rd and rd.witness is not None


def test_first_witnesses_are_pinned():
    # one scan order for both checkers: the first failing relation is reported
    rng = random.Random(27)
    w = {e: Fraction(rng.randint(-4, 4)) for e in grid_edges(4)}
    vals = dict(enumerate(flow_tp(grid_net(4, w)).table))
    vals[subset_mask([2, 4], 4)] += 1
    fp = subset_function(4, vals)
    assert is_tp(fp).witness == (subset_mask([4], 4), 1, 2, 3)
    assert is_dmtp(fp).witness == ("3-term", subset_mask([4], 4), 1, 2, 3)
    # no finite 3-term relation, so only the 4-term one at A = {} can fail
    pairs = {m: Fraction(0) for m in range(16) if bin(m).count("1") == 2}
    pairs[subset_mask([1, 3], 4)] = pairs[subset_mask([2, 4], 4)] = Fraction(1)
    g = subset_function(4, {m: pairs.get(m, 0 if m in (0, 15) else None) for m in range(16)})
    assert is_tp(g)
    assert is_dmtp(g).witness == ("4-term", 0, 1, 2, 3, 4)


def test_reconstruction_round_trip():
    rng = random.Random(24)
    for n in (3, 4):
        for _ in range(12 if n == 3 else 4):
            w = {e: Fraction(rng.randint(-4, 4)) for e in grid_edges(n)}
            f = flow_tp(grid_net(n, w))
            g = reconstruct_from_intervals(n, f.restrict_to_intervals())
            assert g.table == f.table


def test_reconstruction_single_step_formula():
    iv = {
        0: 0,
        subset_mask([1], 3): 1,
        subset_mask([2], 3): 2,
        subset_mask([3], 3): 1,
        subset_mask([1, 2], 3): 3,
        subset_mask([2, 3], 3): 2,
        subset_mask([1, 2, 3], 3): 4,
    }
    g = reconstruct_from_intervals(3, iv)
    assert g.value([1, 3]) == max(
        Fraction(3) + Fraction(1), Fraction(2) + Fraction(1)
    ) - Fraction(2)
    z = reconstruct_from_intervals(3, {m: 0 for m in interval_masks(3)})
    assert all(v == 0 for v in z.table)


def test_reconstruction_from_arbitrary_interval_data():
    # the interval restriction is a bijection: any rational interval data
    # extends to a TP function, which the final verification confirms
    rng = random.Random(25)
    for _ in range(40):
        n = rng.choice([3, 4])
        data = {m: Fraction(rng.randint(-5, 5)) for m in interval_masks(n)}
        f = reconstruct_from_intervals(n, data)
        assert is_tp(f)
        for m in interval_masks(n):
            assert f.table[m] == data[m]


def test_reconstruction_equals_fixpoint_oracle():
    # the one pass in order of span against the repeat-until-stable propagation
    rng = random.Random(29)
    for case in range(320):
        n = case % CHECK_CAP + 1
        if case // CHECK_CAP % 2:
            data = {m: rng.randint(-9, 9) for m in interval_masks(n)}
        else:
            data = {m: Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for m in interval_masks(n)}
        got = reconstruct_from_intervals(n, data).table
        want = reconstruct_fixpoint_oracle(n, data).table
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]


def test_reconstruction_input_validation():
    with pytest.raises(ValueError):
        reconstruct_from_intervals(3, {0: 0})  # intervals missing
    data = {m: 0 for m in interval_masks(3)}
    data[subset_mask([1, 3], 3)] = 1  # not an interval
    with pytest.raises(ValueError):
        reconstruct_from_intervals(3, data)


def test_submodularity():
    f0 = subset_function(3, {m: 0 for m in range(8)})
    assert is_submodular(f0) and is_submodular(f0, on_intervals_only=True)
    fsq = subset_function(3, {m: bin(m).count("1") ** 2 for m in range(8)})
    assert not is_submodular(fsq)
    # A = {1}, B = {2} is the classical supermodular witness
    assert fsq.value([1]) + fsq.value([2]) < fsq.value([1, 2]) + fsq.value([])


def test_submodularity_interval_equivalence_on_tp():
    rng = random.Random(26)
    for _ in range(30):
        w = {e: Fraction(rng.randint(-4, 4)) for e in grid_edges(3)}
        f = flow_tp(grid_net(3, w))
        assert is_tp(f)
        assert is_submodular(f) == is_submodular(f, on_intervals_only=True)
    # modular functions are TP and submodular: both sides agree on True
    for _ in range(10):
        wts = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
        f = subset_function(
            4, {m: sum(wts[e - 1] for e in mask_elements(m)) for m in range(16)}
        )
        assert is_tp(f)
        assert is_submodular(f) and is_submodular(f, on_intervals_only=True)


def test_minus_infinity_values_are_skipped():
    vals = {m: 0 for m in range(8)}
    vals[subset_mask([1, 3], 3)] = None  # recorded "no flow"
    f = subset_function(3, vals)
    assert is_tp(f) and is_dmtp(f)
    assert is_submodular(f)


def test_subset_function_constructor_reads_values_as_exact_rationals():
    # a float table used to be checked as given: is_tp answered ok=True on it
    with pytest.raises(TypeError):
        SubsetFunction(2, (0.5, 1.5, 0.25, 0.1))
    f = SubsetFunction(2, (Fraction(4, 2), "1/2", None, 3))
    assert f.table == (2, Fraction(1, 2), None, 3)
    assert [type(v) for v in f.table] == [int, Fraction, type(None), int]
    # a table of ints and None is kept as it is; one other value sends the
    # whole table through `_rational`, which takes no bottom spelling, no
    # scalar, no bool and no float
    table = (0, None, 2, -3)
    assert SubsetFunction(2, table).table is table
    assert SubsetFunction(2, [0, None, 2, -3]).table == table
    for bad in ("-inf", scalar(1), scalar("-inf"), True, 1.0):
        for at in range(4):
            with pytest.raises(TypeError if bad != "-inf" else ValueError):
                SubsetFunction(2, table[:at] + (bad,) + table[at + 1:])


def test_grid_flow_net_constructor_reads_weights_as_exact_rationals():
    # float weights used to fail late, inside flow_tp's unscaling
    with pytest.raises(TypeError):
        GridFlowNet(2, tuple((e, 0.5) for e in grid_edges(2)))
    net = GridFlowNet(2, tuple((e, Fraction(2, 2)) for e in grid_edges(2)))
    assert all(type(w) is int for _, w in net.edge_weights)
    assert flow_tp(net) == flow_tp(grid_net(2, {e: 1 for e in grid_edges(2)}))


# the checkers and flow_tp take only a SubsetFunction or GridFlowNet, whose
# constructors refuse a ground set above the cap
@pytest.mark.parametrize("call, error", [
    (lambda: subset_mask([4], 3), ValueError),
    (lambda: grid_net(2, {((5, 5), (5, 6)): 1}), SchemaError),
    (lambda: subset_function(2, {0: 0, 1: 1, 3: 3}), SchemaError),
    (lambda: subset_function(2, {0: 0, 1: 1, 2: 2, -1: 7}), SchemaError),
    (lambda: subset_function(2, {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}), SchemaError),
    (lambda: SubsetFunction(CHECK_CAP + 1, (0,) * (1 << (CHECK_CAP + 1))), TooLarge),
    (lambda: GridFlowNet(CHECK_CAP + 1, ()), TooLarge),
    (lambda: grid_net(CHECK_CAP + 1, {}), TooLarge),
    (lambda: subset_function(10**9, {0: 0}), TooLarge),
    (lambda: reconstruct_from_intervals(CHECK_CAP + 1, {}), TooLarge),
    (lambda: reconstruct_from_intervals(10**9, {0: 0}), TooLarge),
], ids=["subset-element", "off-grid-edge", "subset-function-not-total", "negative-mask", "mask-of-2^n",
        "table-cap", "net-cap", "grid-net-cap", "subset-function-cap-1e9", "reconstruct-cap", "reconstruct-cap-1e9"])
def test_plucker_input_checks_raise(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


def test_reconstruction_rejects_a_fill_that_breaks_the_relation(monkeypatch):
    # a fault in the fill kernel (each derived value one too high) must be
    # caught by the closing TP check, not returned
    canonical = plucker._canonical
    monkeypatch.setattr(plucker, "_canonical", lambda v: canonical(v + 1))
    with pytest.raises(Inconsistent):
        reconstruct_from_intervals(3, {m: 0 for m in interval_masks(3)})
