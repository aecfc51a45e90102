"""Tanh-sinh integration against scipy.integrate.quad as oracle."""

import math
import random

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from staggered_xx import quadrature
from staggered_xx import (
    ChainParams,
    QuadResult,
    QuadSpec,
    Thermal,
    ToleranceNotReached,
    band_crossings,
    integrate,
    require_converged,
    theta_of_q,
)


def scalar(f):
    # scipy.integrate.quad feeds scalars; our integrands take arrays
    return lambda x: float(f(np.asarray([x]))[0])


def test_quad_spec_validation():
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=-1e-10)
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=0.0, rel_tol=0.0)


def over_pieces(f, edges, spec=None):
    """:func:`integrate` over each piece between consecutive ``edges``."""
    return [integrate(f, spec, lo=lo, hi=hi) for lo, hi in zip(edges, edges[1:])]


def test_smooth_integrands_match_scipy():
    integrands = [
        lambda q: np.sin(q),
        lambda q: np.cos(3.0 * q) ** 2 * np.exp(-q),
        lambda q: 1.0 / (1.0 + 25.0 * (q - 1.0) ** 2),
        lambda q: np.sqrt(1.0 + 0.3 * np.sin(q) ** 2),
    ]
    for f in integrands:
        res = integrate(f, QuadSpec(abs_tol=1e-12, rel_tol=1e-12))
        ref, _ = sp_integrate.quad(scalar(f), 0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
        assert res.converged
        assert abs(res.value - ref) < 1e-11


def test_closed_forms():
    res = integrate(np.sin)
    assert res.converged and math.isclose(res.value, 2.0, rel_tol=1e-12)
    res = integrate(lambda q: np.cos(q) ** 2)
    assert math.isclose(res.value, math.pi / 2, rel_tol=1e-12)
    # custom bounds, as used for the band-energy integrals
    res = integrate(np.sin, lo=0.3, hi=1.2)
    assert math.isclose(res.value, math.cos(0.3) - math.cos(1.2), rel_tol=1e-12)


def test_sharp_thermal_layer_on_pieces_split_at_its_centres():
    # The layers are 1e-4 wide; with pieces ending at their centres the
    # tanh-sinh nodes crowd into them, so the crossings are the only seeds
    # (as the band integrals split).  scipy needs the layer edges too.
    p = ChainParams(J=1.0, j=0.4, b=0.2, B=0.7)
    beta = 1e4
    f = lambda q: np.tanh(beta * (p.B - theta_of_q(p, q)))
    r = (p.B**2 - p.b**2 - p.j**2) / (p.J**2 - p.j**2)
    x = math.acos(math.sqrt(r))
    w = 18.4 / beta
    points = [x - w, x, x + w, math.pi - x - w, math.pi - x, math.pi - x + w]
    pieces = over_pieces(f, (0.0, x, math.pi - x, math.pi))
    ref, _ = sp_integrate.quad(
        scalar(f), 0.0, math.pi, points=points, limit=400,
        epsabs=1e-13, epsrel=1e-13,
    )
    assert all(res.converged for res in pieces)
    assert abs(sum(res.value for res in pieces) - ref) < 1e-10


def test_layer_clipped_by_boundary_needs_only_its_centre():
    # With the layer centred on a breakpoint its two tails cancel, but a
    # layer clipped by the integration boundary loses that cancellation,
    # and a rule whose nodes step over the layer reports a wrong value as
    # converged.  The tanh-sinh nodes crowd into the layer from both piece
    # ends, so a split at its centre is enough.
    beta, x0 = 1e4, 1e-3
    f = lambda q: np.tanh(beta * (q - x0))
    w = 18.4 / beta
    ref, _ = sp_integrate.quad(
        scalar(f), 0.0, math.pi, points=[x0, x0 + w], limit=400,
        epsabs=1e-13, epsrel=1e-13,
    )
    centre_only = over_pieces(f, (0.0, x0, math.pi))
    seeded = over_pieces(f, (0.0, x0, x0 + w, math.pi))
    for pieces in (centre_only, seeded):
        assert all(res.converged for res in pieces)
        assert abs(sum(res.value for res in pieces) - ref) < 1e-10


def _levels(monkeypatch, n: int) -> None:
    """Leave :func:`integrate` only its first ``n`` levels (h = 1/2 .. 2^-n)."""
    monkeypatch.setattr(quadrature, "_LEVELS", quadrature._LEVELS[:n])


def test_split_at_a_kink_restores_convergence(monkeypatch):
    x0 = 1.0
    f = lambda q: np.sqrt(np.abs(q - x0))
    exact = (2.0 / 3.0) * ((math.pi - x0) ** 1.5 + x0**1.5)
    tight = QuadSpec(abs_tol=1e-13, rel_tol=1e-13)
    # equal refinement budget: the pieces split at the kink are far more accurate
    with monkeypatch.context() as m:
        _levels(m, 4)
        blind = integrate(f, tight)
        split = sum(res.value for res in over_pieces(f, (0.0, x0, math.pi), tight))
    assert abs(split - exact) < abs(blind.value - exact) / 50.0
    # all levels converge outright
    full = over_pieces(f, (0.0, x0, math.pi), tight)
    assert all(res.converged for res in full)
    assert abs(sum(res.value for res in full) - exact) < 1e-13


def test_halving_tolerances_consistent_within_error_estimates():
    integrands = [
        lambda q: np.sin(5.0 * q) * np.exp(np.cos(q)),
        lambda q: np.sqrt(np.abs(q - 0.8)),
        lambda q: np.tanh(50.0 * (q - 2.0)),
    ]
    for f in integrands:
        for tol in (1e-6, 1e-8, 1e-10):
            a = integrate(f, QuadSpec(abs_tol=tol, rel_tol=tol))
            b = integrate(f, QuadSpec(abs_tol=tol / 2, rel_tol=tol / 2))
            assert abs(a.value - b.value) <= a.error + b.error + 1e-15


def test_exhaustion_flags_instead_of_raising(monkeypatch):
    f = lambda q: np.tanh(1e6 * (0.6 - q))  # step at q = 0.6, no seed
    with monkeypatch.context() as m:
        _levels(m, 3)
        res = integrate(f, QuadSpec(abs_tol=1e-14, rel_tol=1e-14))
    assert isinstance(res, QuadResult)
    assert not res.converged
    with pytest.raises(ToleranceNotReached) as exc:
        require_converged(res)
    assert exc.value.result is res
    # split at the step, both pieces converge and pass through require_converged
    for ok in over_pieces(f, (0.0, 0.6, math.pi)):
        assert require_converged(ok) == ok.value


def test_error_estimate_is_honest():
    rng = np.random.default_rng(21)
    for _ in range(25):
        a, c = rng.uniform(1.0, 6.0), rng.uniform(0.5, 2.5)
        f = lambda q: np.sin(a * q + 0.3) * np.exp(-c * q)
        res = integrate(f, QuadSpec(abs_tol=1e-9, rel_tol=1e-9))
        ref, _ = sp_integrate.quad(scalar(f), 0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
        assert res.converged
        assert abs(res.value - ref) <= max(res.error, 1e-13)


# Structural points for the batched engine: generic, both critical fields
# (and -B), J < |j| with B at its upper critical field, the flat band
# J = |j|, b = j = 0 (theta vanishes at pi/2) and J = j = 0 (theta = |b|).
_J, _j, _b = 1.0, 0.6, 0.3
STRUCTURAL_POINTS = [
    ChainParams(_J, _j, _b, 0.8),
    ChainParams(_J, _j, _b, math.hypot(_J, _b)),
    ChainParams(_J, _j, _b, math.hypot(_j, _b)),
    ChainParams(_J, _j, _b, -math.hypot(_j, _b)),
    ChainParams(1.0, 1.4, 0.2, 1.1),
    ChainParams(1.0, 1.4, 0.2, math.hypot(1.4, 0.2)),
    ChainParams(1.0, 1.0, 0.3, 0.7),
    ChainParams(1.0, -1.0, 0.0, 0.5),
    ChainParams(1.0, 0.0, 0.0, 0.4),
    ChainParams(1.0, 0.0, 0.0, 0.0),
    ChainParams(0.0, 0.0, 0.5, 0.2),
]


def _band_integrands(p, t):
    """The seven integrands of the record (``thermo._kernel`` of its rows) at a finite-T
    point, each a function of q alone."""
    from staggered_xx.thermo import _kernel

    def one(k):
        return lambda q: _kernel((0, 1, 2), True)(
            q, np.cos(q), np.sin(q), theta_of_q(p, q), p.J, p.j, p.b, p.B, t.beta
        )[k]

    return tuple(one(k) for k in range(7))


def _record_rows(cells):
    """The record rows the CLI reads (``thermo._record``) of the cells (p, t) of one block:
    per cell u, m, m_s and both parts of g1 and g2, and their flag codes."""
    from staggered_xx.model import _columns
    from staggered_xx.thermo import _ROWS, _record

    beta = np.array([t.beta for _, t in cells])
    rows, codes, _ = _record(_columns([p for p, _ in cells]), beta)
    return ([tuple(rows[name][k].item() for name in _ROWS) for k in range(len(cells))],
            [tuple(codes[name][k].item() for name in _ROWS) for k in range(len(cells))])


def _record_values(cells):
    """The record rows of ``_record_rows``, each cell's flagged nothing."""
    values, codes = _record_rows(cells)
    assert not any(map(any, codes)), codes
    return values


def _reference_values(p, beta):
    """The same seven values by QUADPACK on the model's formulas written out again."""
    from band_reference import band_integrals

    want, err = band_integrals(p.J, p.j, p.b, p.B, beta)
    assert err < 1e-12, (p, beta, err)
    return (want["u"], want["m"], want["m_s"], *want["g1"], *want["g2"])


def _library_values(p, t):
    """The same seven values from the library functions, each given no record."""
    from staggered_xx import g1, g_even, internal_energy, magnetization, staggered_magnetization

    pair1, pair2 = g1(p, t), g_even(p, t, 2)
    return (internal_energy(p, t), magnetization(p, t), staggered_magnetization(p, t),
            pair1.uniform, pair1.staggered, pair2.uniform, pair2.staggered)


@pytest.mark.parametrize("p", STRUCTURAL_POINTS, ids=str)
def test_batched_band_integrals_match_quadpack(p):
    # one row holds every temperature at scale 1 and the same states at
    # 2^+-560, which the batch integrates in their own units; energies are
    # compared in those units
    betas = (1e-3, 0.1, 1.0, 10.0, 100.0, 1e4)
    want = {beta: _reference_values(p, beta) for beta in betas}
    row = [
        (s, beta, ChainParams(*(v * s for v in (p.J, p.j, p.b, p.B))), Thermal.finite(beta / s))
        for s in (1.0, 2.0**560, 2.0**-560)
        for beta in betas
    ]
    for (s, beta, _, _), got in zip(row, _record_values([(q, t) for _, _, q, t in row])):
        for k, (a, b) in enumerate(zip(got, want[beta])):
            if k == 0:
                a = a / s
            assert abs(a - b) < 1e-10, (s, beta, k, a, b)


def _pair_concurrence(coherence, sz_l, sz_r, g):
    # C = max{0, coherence - 2 sqrt(p00 p11)} with 16 p00 p11 in factored form
    rad = ((1.0 + sz_l) * (1.0 + sz_r) - g * g) * ((1.0 - sz_l) * (1.0 - sz_r) - g * g)
    return max(0.0, coherence - 0.5 * math.sqrt(max(rad, 0.0)))


@pytest.mark.parametrize(
    "p, beta",
    [
        (ChainParams(1.0, 0.5, 0.3, 0.8), 5.0),
        (ChainParams(1.0, -0.6, 0.2, 0.1), 20.0),
        (ChainParams(1.0, 0.0, 0.2, 0.95), 20.0),  # c2 > 0 on both sublattices
        (ChainParams(1.0, 0.3, 0.0, 0.4), 2.0),
    ],
    ids=str,
)
def test_quantity_functions_read_band_integrals_record(p, beta):
    # each library function reads its rows of the point's record, the rows the CLI
    # reads (one cell of thermo._record), bit for bit, through their recipes
    from staggered_xx import (
        ConcurrencePair, CorrelatorPair, c1, c2, g1, g_even, internal_energy, magnetization,
        staggered_magnetization, witness,
    )
    from staggered_xx.thermo import _point

    t = Thermal.finite(beta)
    ((u, m, ms, gu1, gs1, gu2, gs2),) = _record_values([(p, t)])
    assert internal_energy(p, t) == u
    assert magnetization(p, t) == m
    assert staggered_magnetization(p, t) == ms
    g, g2 = CorrelatorPair(gu1, gs1), CorrelatorPair(gu2, gs2)
    assert g1(p, t) == g
    assert g_even(p, t, 2) == g2
    want1, want2 = {}, {}
    for parity, s in (("odd", -1.0), ("even", 1.0)):
        gp, g_mid, g2_l = g.uniform + s * g.staggered, g.uniform - s * g.staggered, g2.at(parity)
        want1[parity] = _pair_concurrence(abs(gp), m + s * ms, m - s * ms, gp)
        coherence = abs(gp * g_mid - g2_l * (m - s * ms))
        want2[parity] = _pair_concurrence(coherence, m + s * ms, m + s * ms, g2_l)
    assert c1(p, t) == ConcurrencePair(**want1)
    assert c2(p, t) == ConcurrencePair(**want2)
    # the witness reads the exchange energy J gu1 + j gs1
    lhs = 4.0 * abs(p.J * g.uniform + p.j * g.staggered) / (abs(p.J - p.j) + abs(p.J + p.j))
    assert witness(p, t).lhs == lhs
    # ln Z and separations other than 1 and 2 are not in the record
    read = _point(p, t)
    assert read("u", "gu2") == (u, gu2) and math.isnan(read("f")[0])  # f holds at T = 0 only
    for name in ("ln_z", "gu3", "gs3"):
        with pytest.raises(KeyError, match=name):
            read(name)


def test_batched_error_estimate_is_honest():
    import mpmath

    from staggered_xx.quadrature import _integrate_cells

    # integrands even about pi/2 with closed-form integrals over [0, pi], taken
    # to 30 digits so that a double's rounding of them does not count, on
    # cells split anywhere in the half zone and doubled, against half the
    # absolute tolerance, as thermo._cell_integrals runs them
    mp = mpmath.mp.clone()
    mp.dps = 30
    exact = [
        (lambda q: 1.0 / (1.0 + 60.0 * np.cos(q) ** 2), mp.pi / mp.sqrt(61)),
        (lambda q: np.exp(3.0 * np.cos(2.0 * q)), mp.pi * mp.besseli(0, 3)),
    ]
    splits = [(0.0, x, math.pi / 2) for x in (0.3, 1.0, math.pi / 2)]
    for tol in (1e-3, 1e-6, 1e-9, 1e-12):
        got, err, ok = _integrate_cells(
            lambda q, rows: [f(q) for f, _ in exact], 2, splits, QuadSpec(tol / 2, tol)
        )
        assert np.all(ok)
        for (_, value), got_r, err_r in zip(exact, 2.0 * got, 2.0 * err):
            for v, e in zip(got_r, err_r):
                assert abs(mp.mpf(v) - value) <= e + 1e-15
    # band integrands against a fine adaptive reference, on a row of two
    # temperatures split at the crossing
    p = ChainParams(1.0, 0.6, 0.3, 0.9)
    temps = (Thermal.finite(30.0), Thermal.finite(300.0))
    fs = [_band_integrands(p, t) for t in temps]
    x = min(band_crossings(p))
    for tol in (1e-4, 1e-8):
        got, err, ok = _integrate_cells(
            lambda q, rows: [[fs[c][r](qc) for c, qc in zip(rows, q)] for r in range(7)],
            7, [(0.0, x, math.pi / 2)] * 2, QuadSpec(tol / 2, tol),
        )
        got, err = 2.0 * got, 2.0 * err
        assert np.all(ok)
        for cell, cell_fs in enumerate(fs):
            for r, f in enumerate(cell_fs):
                ref, _ = sp_integrate.quad(
                    scalar(f), 0.0, math.pi, points=(x, math.pi / 2, math.pi - x),
                    limit=800, epsabs=1e-13, epsrel=1e-13,
                )
                assert abs(got[r, cell] - ref) <= err[r, cell] + 1e-14


def test_truncated_levels_or_a_nan_flag_only_their_own_cell(monkeypatch):
    from staggered_xx import thermo
    from staggered_xx.quadrature import _integrate_cells

    # four levels resolve beta <= 10 but not the layers at beta = 1e3: in one
    # row only the cold cell is unconverged, and its record says so
    p = ChainParams(1.0, 0.4, 0.2, 0.7)
    row = [(p, Thermal.finite(beta)) for beta in (0.01, 1e3, 10.0)]
    with monkeypatch.context() as m:
        _levels(m, 4)
        (hot, _, warm), (hot_codes, cold_codes, warm_codes) = _record_rows(row)
        for name in thermo._ROWS:
            with pytest.raises(ToleranceNotReached):
                thermo._point(*row[1])(name)
    assert hot_codes == warm_codes == (0,) * 7 and cold_codes == (1,) * 7
    for got, (_, t) in ((hot, row[0]), (warm, row[2])):
        assert got == pytest.approx(_reference_values(p, t.beta), abs=1e-10)
    # a NaN in one integrand of one cell at the third level, where its other
    # integrand, a constant, has converged: that cell leaves with NaN values
    # and no converged flag, the others converge, and the record reads a NaN
    # as unconverged
    def f(q, rows):
        out = np.array([np.ones_like(q), np.sqrt(np.sin(q))])
        if q.shape[1] > 50:
            out[1, rows == 1, 0] = np.nan
        return out

    value, _, ok = _integrate_cells(f, 2, [(0.0, x, math.pi / 2) for x in (0.4, 0.9, math.pi / 2)])
    assert np.all(np.isnan(value[:, 1])) and not np.any(ok[:, 1])
    want = [[math.pi / 2] * 2, [1.1981402347355922] * 2]  # int_0^(pi/2) sqrt(sin q)
    np.testing.assert_allclose(value[:, [0, 2]], want, rtol=0, atol=1e-12)
    assert np.all(ok[:, [0, 2]])
    # a record row the engine leaves unconverged is read as a ToleranceNotReached that
    # carries its QuadResult, and the cell's other rows read as before
    def broken_m(chains, *args, engine=thermo._cell_integrals):
        k, value, err, ok = engine(chains, *args)
        value[1], err[1], ok[1] = math.nan, math.nan, False
        return k, value, err, ok

    with monkeypatch.context() as m:
        m.setattr(thermo, "_cell_integrals", broken_m)
        read = thermo._point(*row[0])
        with pytest.raises(ToleranceNotReached) as raised:
            read("u", "m")
        assert read("u")[0] == hot[0]
    got = raised.value.result
    assert (math.isnan(got.value), math.isnan(got.error), got.converged, got.n_panels) == (
        True, True, False, 2)
    # the finite-T engine refuses a T = 0 cell; a block gives it the ground record columns
    from staggered_xx import ground
    from staggered_xx.model import _columns
    from staggered_xx.thermo import _cell_integrals, _kernel

    with pytest.raises(ValueError, match="finite temperature"):
        _cell_integrals(_columns([p]), np.array([math.inf]), 7, _kernel((0, 1, 2), True))
    both = thermo._record_columns(_columns([p, p]), np.array([row[0][1].beta, math.inf]))
    for cell, want in ((0, thermo._record_columns(_columns([p]), np.array([row[0][1].beta]))),
                       (1, ground._record_columns(_columns([p]), None, (0, 1, 2), True))):
        for got_c, want_c in zip(both, want):
            np.testing.assert_array_equal(got_c[..., cell], want_c[..., 0])
    assert _record_rows([]) == ([], [])


def _kernel_run(kernel, n, cols, edges):
    """One ``_integrate_cells`` run of a library kernel at the chains ``cols`` ((K, m):
    J, j, b and the kernel's further columns), as ``thermo`` and ``ground`` run theirs."""
    from staggered_xx.model import _theta
    from staggered_xx.quadrature import _integrate_cells

    cols = np.asarray(cols, dtype=float)[:, :, None]

    def f(q, cells):
        c, s = np.cos(q), np.sin(q)
        J, j, b, *rest = (cols[cells, i] for i in range(cols.shape[1]))
        return kernel(q, c, s, _theta(J, j, b, c, s), J, j, b, *rest)

    return _integrate_cells(f, n, edges)


def _seeded_cells(k, zone):
    """K seeded cells as (columns, edges): finite-T cells split at the crossing (P = 2)
    or the filled intervals F (P = 1).  Past the first cell, cell 0 integrates a NaN
    and the last cell exhausts the levels: a crossing inside a piece at beta 1e5, or
    the spike b/theta of width 1e-6 inside F."""
    from staggered_xx.ground import _fill

    rng = random.Random(f"batch-{zone}-{k}")
    cols, edges = [], []
    while len(cols) < k:
        p = ChainParams(1.0, rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0),
                        rng.uniform(0.0, 2.0))
        if zone == "finite":
            x = (band_crossings(p) or (math.pi / 2,))[0]
            cols.append((p.J, p.j, p.b, p.B, 10.0 ** rng.uniform(-2.0, 3.0)))
            edges.append((0.0, x, math.pi / 2))
        elif (f := _fill(p)).lo < f.hi:
            cols.append((p.J, p.j, p.b))
            edges.append((f.lo, f.hi))
    if k > 1:
        cols[0] = (math.nan, *cols[0][1:])
        if zone == "finite":
            cols[-1], edges[-1] = (1.0, 0.4, 0.2, 0.7, 1e5), (0.0, 0.3, math.pi / 2)
        else:
            cols[-1], edges[-1] = (1.0, 1e-8, 1e-6), (0.2, 1.9)
    return cols, np.array(edges)


@pytest.mark.parametrize("zone", ["finite", "filled"])
@pytest.mark.parametrize("k", [1, 63, 64, 65, 130])
def test_a_cell_reads_the_same_bits_whatever_cells_share_its_run(zone, k):
    # the engine runs K cells in blocks of 64; each cell's values, error
    # estimates and flags are those of the cell run alone, to the last bit
    from staggered_xx import ground, thermo

    # the record's integrands: all seven at finite T, the five over F at T = 0
    module, n = (thermo, 7) if zone == "finite" else (ground, 5)
    kernel = module._kernel((0, 1, 2), True)
    cols, edges = _seeded_cells(k, zone)
    batched = _kernel_run(kernel, n, cols, edges)
    for cell in range(k):
        alone = _kernel_run(kernel, n, cols[cell:cell + 1], edges[cell:cell + 1])
        for got, want in zip(batched, alone):
            assert got[:, cell].tobytes() == want[:, 0].tobytes(), cell
    value, _, ok = batched
    assert ok[:, 1:-1].all()
    if k > 1:  # the NaN cell and the one that exhausts the levels are there
        assert np.isnan(value[:, 0]).all() and not ok[:, 0].any()
        assert np.isfinite(value[:, -1]).all() and not ok[:, -1].all()


def _large_beta_points():
    """60 seeded chains with beta log-uniform in [300, 1e8], in four kinds:
    any field; |B| within 5 T of the band top (nearly saturated); within 5 T
    of the band bottom; and the flat band J = |j| with |B| within 5 T of it."""
    rng = random.Random("large-beta")
    points = []
    for k in range(60):
        beta = 10.0 ** rng.uniform(math.log10(300.0), 8.0)
        j = rng.uniform(-2.0, 2.0)
        b = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.0)
        edges = sorted((math.hypot(1.0, b), math.hypot(j, b)))
        level = [rng.uniform(0.0, 2.5), edges[1], edges[0], math.hypot(1.0, b)][k % 4]
        if k % 4:
            level += rng.uniform(-5.0, 5.0) / beta
        if k % 4 == 3:
            j = rng.choice((-1.0, 1.0))
        points.append((1.0, j, b, rng.choice((-1.0, 1.0)) * level, beta))
    return points


def test_large_beta_band_integrals_match_an_independent_reference():
    # u, m, m_s and the g1, g2 pairs against QUADPACK on the model's formulas
    # written out again (band_reference.py); the thermal layers are down to
    # 1e-8 wide.  Every point goes through the library functions, each on a
    # one-cell record, and, all 60 as one sweep row, through the record columns.
    from band_reference import band_integrals

    points = _large_beta_points()
    cells = [(ChainParams(*point[:4]), Thermal.finite(point[4])) for point in points]
    misses = []
    for point, (p, t), batch in zip(points, cells, _record_values(cells)):
        want, err = band_integrals(*point)
        assert err < 1e-12, (point, err)
        want = (want["u"], want["m"], want["m_s"], *want["g1"], *want["g2"])
        for engine, got in (("library", _library_values(p, t)), ("batch", batch)):
            off = np.max(np.abs(np.subtract(got, want)))
            if off > 1e-10:
                misses.append((point, engine, off))
    assert not misses
