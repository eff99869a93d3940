"""run_cycle against the rule functions, applied to arrays and to single agents."""

import itertools
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from luccsim import (
    Landscape,
    SplitMix64,
    TechLevel,
    Wgc,
    climate_adjusted_aspiration,
    compute_profit,
    compute_rl,
    context_for,
    decide_land_use,
    evaluate_goals,
    initialize,
    preset,
    run_cycle,
    select_best_neighbor,
    update_aspiration,
    update_technology,
)
from luccsim.numeric import sequential_sum

from conftest import uniform_config
from oracle_sim import moore_neighbors


def test_neighbor_views_match_moore_neighbors_with_minus_inf_pads():
    for rows, cols in itertools.product(range(1, 10), repeat=2):
        scape = Landscape(rows, cols, alloc=(0.0, 100.0, 0.0), tl=0, tenant=False, al=0.0)
        scape.profit_grid[...] = np.arange(rows * cols).reshape(rows, cols)  # earns its index
        views = scape.neighbor_profits
        assert len(views) == 8 and all(v.shape == (rows, cols) for v in views)
        for i in range(rows * cols):
            column = np.array([v[divmod(i, cols)] for v in views])
            pads = column == -np.inf
            expected = [r * cols + c for r, c in moore_neighbors(divmod(i, cols), (rows, cols))]
            assert column[~pads].tolist() == expected
            assert (i + scape.neighbor_steps[~pads]).tolist() == expected


def _same_bits(whole, parts):
    """An array result equals the per-element results, in dtype and bit for bit."""
    whole, parts = np.asarray(whole), np.array(parts)
    assert whole.dtype == parts.dtype and whole.tobytes() == parts.tobytes()


@given(st.data(), st.sampled_from(Wgc))
def test_each_rule_gives_the_same_bits_on_arrays_and_on_scalars(tables, data, wgc):
    n = data.draw(st.integers(min_value=1, max_value=6))

    def draw(dtype, elements, shape=n):
        return data.draw(hnp.arrays(dtype, shape, elements=elements))

    money = st.floats(min_value=-1e4, max_value=1e4)
    alloc = draw(np.float64, st.floats(min_value=0.0, max_value=100.0), (n, 3))
    tl, bn_tl = draw(np.intp, st.integers(0, 2)), draw(np.intp, st.integers(0, 2))
    tenant = draw(bool, st.booleans())
    al = draw(np.float64, st.floats(min_value=0.0, max_value=1e4))
    p, rl, bn_cal = draw(np.float64, money), draw(np.float64, money), draw(np.float64, money)
    bn_p = draw(np.float64, money | st.just(-np.inf))  # -inf: no neighbor
    neighbor_ps = [draw(np.float64, money | st.sampled_from([-np.inf, 0.0, -0.0]))
                   for _ in range(data.draw(st.integers(min_value=1, max_value=8)))]
    ctx = context_for(replace(preset("longterm"), rent=("usd_per_ha", 443.2)), tables, wgc)
    cal = climate_adjusted_aspiration(al, wgc, tables)
    whole = (
        compute_profit(alloc, tl, tenant, ctx), compute_rl(alloc, tl, ctx), cal,
        *evaluate_goals(p, cal, rl, ctx.et_pct), *select_best_neighbor(neighbor_ps),
        decide_land_use(p, cal, bn_p), update_aspiration(cal, p, bn_cal, bn_p, tl, bn_tl, tables),
        update_technology(p, tables),
    )
    parts, neighbor_lists = [], [v.tolist() for v in neighbor_ps]
    for j, (a, t, tn, al_j, p_j, rl_j, cal_j, bn_cal_j, bn_p_j, bn_tl_j) in enumerate(zip(
        *(x.tolist() for x in (alloc, tl, tenant, al, p, rl, cal, bn_cal, bn_p, bn_tl))
    )):
        best_j, best_p_j = select_best_neighbor([v[j] for v in neighbor_lists])
        parts.append((
            compute_profit(a, t, tn, ctx), compute_rl(a, t, ctx),
            climate_adjusted_aspiration(al_j, wgc, tables),
            *evaluate_goals(p_j, cal_j, rl_j, ctx.et_pct), best_j, best_p_j,
            decide_land_use(p_j, cal_j, bn_p_j),
            update_aspiration(cal_j, p_j, bn_cal_j, bn_p_j, t, bn_tl_j, tables),
            update_technology(p_j, tables),
        ))
    for got, expected in zip(whole, zip(*parts), strict=True):
        _same_bits(got, expected)
    imitate = decide_land_use(p, cal, bn_p)  # bn_cal and bn_tl given for just these agents
    _same_bits(update_aspiration(cal, p, bn_cal[imitate], bn_p, tl, bn_tl[imitate], tables),
               whole[-2])


def test_a_tie_of_zeros_gives_the_same_bits_on_arrays_of_any_length_and_on_scalars():
    # np.fmax(-0.0, 0.0) is 0.0 on numpy's vector loop but -0.0 on one element
    for n in (1, 7, 64, 100):
        for first, second in ((-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
            best, best_p = select_best_neighbor([np.full(n, first), np.full(n, second)])
            parts = [select_best_neighbor([first, second])] * n
            _same_bits(best, [b for b, _ in parts])
            _same_bits(best_p, [p for _, p in parts])
            assert best.tolist() == [0] * n


def test_an_agent_with_no_neighbor_gets_the_pad_index_and_never_imitates(tables):
    scape = Landscape(1, 1, alloc=(0.0, 100.0, 0.0), tl=0, tenant=False, al=0.0)
    scape.profit_grid[...] = 5.0
    best, best_p = select_best_neighbor(scape.neighbor_profits)
    # position 0 is the NW pad of the -inf border
    assert best.tolist() == [[0]] and best_p.tolist() == [[-np.inf]]
    assert scape.neighbor_profits[0].tolist() == [[-np.inf]]
    assert not decide_land_use(5.0, 1e9, best_p[0, 0])

    scape = initialize(uniform_config(), tables, SplitMix64(0))
    cell = scape.cells[0]
    before = cell.allocation
    scape.al[0] = 1e9
    run_cycle(scape, context_for(uniform_config(), tables, Wgc.AVERAGE))
    assert not cell.econ_ok
    assert cell.allocation == before
    p, cal = cell.last_profit_usd_per_ha, cell.last_cal_usd_per_ha
    assert cell.al_usd_per_ha == cal + (1.0 - 0.55) * (p - cal)


def _tie_landscape(rows, cols, target):
    """Every agent but `target` farms full soybean at high tech and is satisfied.

    All of them earn the same profit; each holds its own aspiration, 1 + its
    index, so the aspiration the target adopts names the neighbor copied.
    """
    n = rows * cols
    alloc = np.tile((0.0, 100.0, 0.0), (n, 1))
    tl = np.full(n, TechLevel.HIGH)
    al = 1.0 + np.arange(n)
    alloc[target], tl[target], al[target] = (100.0, 0.0, 0.0), TechLevel.LOW, 400.0
    return Landscape(rows=rows, cols=cols, alloc=alloc, tl=tl, tenant=False, al=al)


@pytest.mark.parametrize(
    "rows, cols, target, first",
    [
        (3, 3, 4, 0),  # interior: NW
        (3, 3, 1, 0),  # top edge: W comes before E and the row below
        (3, 3, 3, 0),  # left edge: N comes before NE
        (3, 3, 0, 1),  # corner: E
        (1, 4, 2, 1),  # one row: W before E
        (4, 1, 2, 1),  # one column: N before S
    ],
)
def test_profit_tie_goes_to_first_neighbor_in_scan_order(tables, rows, cols, target, first):
    scape = _tie_landscape(rows, cols, target)
    pre = [c.allocation for c in scape.cells]
    config = replace(preset("longterm"), rent=("usd_per_ha", 0.0))
    run_cycle(scape, context_for(config, tables, Wgc.AVERAGE))
    agent = scape.cells[target]
    assert not agent.econ_ok
    others = [c for i, c in enumerate(scape.cells) if i != target]
    assert len({c.last_profit_usd_per_ha for c in others}) == 1
    assert all(c.econ_ok for c in others)
    # at average weather CAL equals AL, so the copied CAL is 1 + first
    assert agent.al_usd_per_ha == (1.0 + first) * (
        1.0 + tables.alpha_bn[(TechLevel.LOW, TechLevel.HIGH)]
    )
    assert agent.allocation == pre[first]


def _cycles_compose(tables, rows, cols, wgc):
    """Check six cycles on a rows x cols grid against the rules, agent by agent.

    Returns the number of imitations seen.
    """
    config = replace(
        preset("longterm", seed=23), grid_rows=rows, grid_cols=cols,
        owner_share_pct=40.0, initial_al_factor=1.1,
    )
    scape = initialize(config, tables, SplitMix64(config.seed))
    ctx = context_for(config, tables, wgc)
    imitations = 0
    for cycle in range(6):
        alloc, tl, tenant, al = (
            a.tolist() for a in (scape.alloc, scape.tl, scape.tenant, scape.al)
        )
        record = run_cycle(scape, ctx, cycle_index=cycle)
        profits = [compute_profit(*agent, ctx) for agent in zip(alloc, tl, tenant)]
        rls = [compute_rl(a, t, ctx) for a, t in zip(alloc, tl)]
        cals = [climate_adjusted_aspiration(a, wgc, tables) for a in al]
        assert record.mean_profit_usd_per_ha == sequential_sum(profits) / len(al)
        for i, cell in enumerate(scape.cells):
            assert type(cell.last_profit_usd_per_ha) is float and type(cell.econ_ok) is bool
            assert cell.last_profit_usd_per_ha == profits[i]
            assert cell.last_rl_pct == rls[i]
            assert cell.last_cal_usd_per_ha == cals[i]
            econ, env = evaluate_goals(profits[i], cals[i], rls[i], ctx.et_pct)
            assert (cell.econ_ok, cell.env_ok) == (econ, env)
            neighbors = [r * cols + c for r, c in moore_neighbors(divmod(i, cols), (rows, cols))]
            # no neighbor: one -inf, whose CAL and tech level are never read
            k, bn_profit = select_best_neighbor([profits[j] for j in neighbors] or [-np.inf])
            bn = neighbors[k] if neighbors else i
            imitate = decide_land_use(profits[i], cals[i], bn_profit)
            assert cell.allocation == tuple(alloc[bn if imitate else i])
            imitations += bool(imitate)
            assert cell.al_usd_per_ha == update_aspiration(
                cals[i], profits[i], cals[bn], bn_profit, tl[i], tl[bn], tables
            )
            assert cell.tl is TechLevel(update_technology(profits[i], tables))
    return imitations


@pytest.mark.parametrize("wgc", list(Wgc))
def test_cycles_on_a_5x7_grid_are_the_composition_of_the_public_ops(tables, wgc):
    assert _cycles_compose(tables, 5, 7, wgc) > 0


# every agent of these grids is on the border, where pads and clipped gathers act
@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 6), (6, 1), (2, 2)])
@pytest.mark.parametrize("wgc", list(Wgc))
def test_cycles_on_border_only_grids_are_the_composition_of_the_public_ops(
    tables, wgc, rows, cols
):
    assert (_cycles_compose(tables, rows, cols, wgc) > 0) == (rows * cols > 1)


def test_sequential_sum_is_the_running_sum_from_zero():
    values = [1e16, 1.0, -1e16, 3.5, -0.0]
    running = 0.0
    for v in values:
        running += v
    assert sequential_sum(values) == running == 3.5  # fsum would give 4.5
    assert sequential_sum([[1e16, 1.0], [1.0, 2.0], [-1e16, 3.0]]) == [0.0, 6.0]
    assert sequential_sum([]) == 0.0


def _running_sum(values):
    s = 0.0
    for x in values:
        s += x
    return s


def _same_float(a, b):
    """Equal bits, with any NaN equal to any NaN."""
    return math.isnan(a) and math.isnan(b) or struct.pack("<d", a) == struct.pack("<d", b)


_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     2.2250738585072009e-308, -2.2250738585072009e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@settings(derandomize=True, max_examples=200)
@given(st.one_of(
    hnp.arrays(np.float64, st.tuples(st.integers(0, 12)), elements=_EDGE_FLOATS),
    hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.just(3)), elements=_EDGE_FLOATS),
))
def test_sequential_sum_has_the_bits_of_the_running_sum_from_zero(values):
    with np.errstate(over="ignore", invalid="ignore"):
        total = sequential_sum(values)
    if values.ndim == 1:
        assert _same_float(total, _running_sum(values.tolist()))
    else:
        assert len(total) == 3
        for got, column in zip(total, values.T.tolist()):
            assert _same_float(got, _running_sum(column))


def test_sequential_sum_of_negative_zeros_is_positive_zero():
    assert _same_float(sequential_sum([-0.0, -0.0]), 0.0)
    assert _same_float(sequential_sum([-0.0]), 0.0)
    columns = sequential_sum([[-0.0, -0.0, 1.0], [-0.0, 0.0, -1.0]])
    assert [math.copysign(1.0, c) for c in columns] == [1.0, 1.0, 1.0]
    assert columns == [0.0, 0.0, 0.0]
    assert sequential_sum(np.zeros((0, 3))) == [0.0, 0.0, 0.0]


def _bits(values):
    """Each value's float64 bits, so -0.0 and 0.0 and every NaN are told apart."""
    return np.asarray(values, np.float64).reshape(-1).view(np.uint64).tolist()


def _rule_on_arrays_and_scalars(rule, *columns):
    """rule on whole columns, on each element alone and on each thrice, as arrays and scalars.

    numpy takes a length-1 or length-3 array through its scalar loops and a
    long one through its vector loops, which may differ on a zero's sign.
    """
    columns = [np.asarray(c) for c in columns]
    results = []
    for reps in (1, 64):
        tiled = [np.tile(c, (reps,) + (1,) * (c.ndim - 1)) for c in columns]
        results.append(np.asarray(rule(*tiled))[:len(columns[0])])
    for reps in (1, 3):
        results.append(np.array([np.asarray(rule(*(np.repeat(c[j:j + 1], reps, 0) for c in columns)))[0]
                                 for j in range(len(columns[0]))]))
    results.append(np.array([rule(*(c[j].tolist() for c in columns))
                             for j in range(len(columns[0]))]))
    return results


def test_update_aspiration_maps_nan_negative_zero_and_negative_results_to_positive_zero(tables):
    nan, inf = math.nan, math.inf
    # (cal, p, bn_cal, bn_profit): met, decayed and copied branches
    cases = [
        (5.0, nan, 1.0, -inf),     # NaN profit: decays to NaN
        (inf, inf, 1.0, -inf),     # met at inf: inf - inf is NaN
        (1.0, 0.0, nan, 2.0),      # copies a NaN CAL
        (1.0, 0.0, -0.0, 2.0),     # copies a -0.0 CAL
        (1.0, 0.0, -5.0, 2.0),     # copies a negative CAL
        (10.0, -100.0, 1.0, -inf),  # decays below zero
        (-0.0, -50.0, 1.0, -inf),  # decays below zero from -0.0
        (-3.0, -1.0, 1.0, -inf),   # met, still negative
    ]
    cal, p, bn_cal, bn_p = (np.array(c) for c in zip(*cases))
    tl, bn_tl = np.zeros(len(cases), np.intp), np.full(len(cases), 2, np.intp)
    with np.errstate(invalid="ignore"):  # inf - inf
        results = _rule_on_arrays_and_scalars(
            lambda *a: update_aspiration(*a, tables),
            cal, p, bn_cal, bn_p, tl, bn_tl)
    for got in results:
        assert _bits(got) == _bits(np.zeros(len(cases)))


def test_a_profit_equal_to_cal_is_met_and_keeps_cal(tables):
    # equality is met: never copied, even when the best neighbor out-earns CAL
    cal = np.array([0.0, -0.0, 0.0, 250.0, 1e300, 5e-324])
    p = np.array([0.0, 0.0, -0.0, 250.0, 1e300, 5e-324])
    bn_cal, bn_p = np.full(len(cal), 7.0), np.full(len(cal), math.inf)
    tl = np.zeros(len(cal), np.intp)
    for got in _rule_on_arrays_and_scalars(
            lambda c, pp, bc, bp, t: update_aspiration(c, pp, bc, bp, t, t, tables),
            cal, p, bn_cal, bn_p, tl):
        assert _bits(got) == _bits(cal + 0.0)
    assert not decide_land_use(p, cal, bn_p).any()
    assert evaluate_goals(p, cal, p, 0.0)[0].all()


def test_an_owners_profit_keeps_its_bits_under_rent(tables):
    config = replace(preset("longterm"), rent=("usd_per_ha", 443.2))
    ctx = context_for(config, tables, Wgc.FAVORABLE)
    # all-negative margins make an empty allocation's profit -0.0
    negative = replace(ctx, margins=-np.abs(ctx.margins) - 1.0)
    alloc = np.array([[0.0, 0.0, 0.0], [12.5, 50.0, 37.5], [100.0, 0.0, 0.0], [0.0, 0.0, 100.0]])
    tl = np.array([0, 1, 2, 1], np.intp)
    owner = np.zeros(len(tl), bool)
    for c in (ctx, negative):
        m = c.margins.tolist()
        expected = [(a0 / 100.0) * m[t][0] + (a1 / 100.0) * m[t][1] + (a2 / 100.0) * m[t][2]
                    for (a0, a1, a2), t in zip(alloc.tolist(), tl.tolist())]
        for got in _rule_on_arrays_and_scalars(
                lambda a, t, tn: compute_profit(a, t, tn, c),
                alloc, tl, owner):
            assert _bits(got) == _bits(expected)
    assert _bits(compute_profit(alloc[0], 0, False, negative)) == _bits(-0.0)


def test_update_technology_at_each_threshold_takes_the_higher_level(tables):
    wct = tables.wct_usd_per_ha
    p = np.array([wct[TechLevel.AVERAGE], wct[TechLevel.HIGH], math.nan, -0.0, 0.0,
                  np.nextafter(wct[TechLevel.AVERAGE], 0.0), np.nextafter(wct[TechLevel.HIGH], 0.0),
                  math.inf, -math.inf])
    expected = [TechLevel.AVERAGE, TechLevel.HIGH, TechLevel.LOW, TechLevel.LOW, TechLevel.LOW,
                TechLevel.LOW, TechLevel.AVERAGE, TechLevel.HIGH, TechLevel.LOW]
    for got in _rule_on_arrays_and_scalars(lambda q: update_technology(q, tables), p):
        assert got.tolist() == [int(level) for level in expected]


def test_update_aspiration_broadcasts_one_agents_values_against_per_agent_tech_levels(tables):
    # a scalar cal, p or bn_profit with per-agent tech levels: out has the agents' shape
    tl, bn_tl = np.array([0, 1, 2, 1, 0]), np.array([2, 2, 0, 1, 1])
    bn_cal = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    for cal, p, bn_p in ((100.0, 50.0, 200.0), (100.0, 150.0, 200.0), (100.0, 50.0, 60.0)):
        whole = update_aspiration(cal, p, bn_cal, bn_p, tl, bn_tl, tables)
        assert whole.shape == tl.shape
        _same_bits(whole, [update_aspiration(cal, p, c, bn_p, t, b, tables)
                           for c, t, b in zip(bn_cal.tolist(), tl.tolist(), bn_tl.tolist())])


def test_update_aspiration_refuses_an_out_it_cannot_index_flat(tables):
    # the imitators' CALs are written by flat index, through a row-major view of out
    cal, p, bn_p = np.ones((2, 3)), np.zeros((2, 3)), np.full((2, 3), 5.0)
    with pytest.raises(ValueError, match="C-contiguous"):
        update_aspiration(cal, p, 7.0, bn_p, 0, 0, tables, out=np.zeros((2, 3), order="F"))
    out = np.zeros((2, 3))
    update_aspiration(cal, p, 7.0, bn_p, 0, 0, tables, out=out)
    assert out.tolist() == [[7.0] * 3] * 2  # each copied a CAL of 7.0 at an equal tech level
