"""Cross-check the analytics against the two independent finite-size routes.

Route 1: exact periodic spin rings, whose bulk averages must close in on
the thermodynamic-limit analytics: dense diagonalization at N = 8, 10, 12,
then the same rings as two parity-projected fermion rings (``spin_ring``)
at N = 16, 32, 64, far past the reach of dense diagonalization.
Route 2: the free fermions of much larger periodic rings, diagonalized
numerically from their real-space hoppings in 2x2 Bloch blocks; they
share no integrand with the analytics, and their gap is the ring's
finite-size error.

Run:  python demos/oracle_crosscheck.py
"""

from staggered_xx import (
    ChainParams,
    FiniteChainSpec,
    QuadSpec,
    Thermal,
    c1,
    dense_ed,
    finite_free_fermion,
    spin_ring,
    g1,
    g_even,
    g_odd,
    internal_energy,
    magnetization,
    sigma_z,
    staggered_magnetization,
    zz_correlator,
)

TIGHT = QuadSpec(abs_tol=1e-13, rel_tol=1e-13)


def main() -> None:
    p = ChainParams(J=1.0, j=0.2, b=0.2, B=0.4)
    t = Thermal.finite(3.0)
    print(f"couplings: J={p.J} j={p.j} b={p.b} B={p.B}")

    print(f"\nexact periodic spin rings at beta={t.beta} (gap to bulk analytics):")
    pair = c1(p, t)
    targets = {
        ("c1", "odd"): pair.odd,
        ("c1", "even"): pair.even,
        ("sz", "odd"): sigma_z(p, t, "odd"),
        ("sz", "even"): sigma_z(p, t, "even"),
        ("zz1", "odd"): zz_correlator(p, t, "odd", 1),
        ("zz1", "even"): zz_correlator(p, t, "even", 1),
    }
    header = "".join(f" {name + '/' + par[:1]:>8}" for name, par in targets)
    print(f"{'N':>4}" + header + "  route")
    for n in (8, 10, 12, 16, 32, 64):
        ring = dense_ed if n <= 12 else spin_ring
        ed = ring(FiniteChainSpec(n, p, t))
        values = {
            ("c1", par): ed.concurrence[(par, 1)] for par in ("odd", "even")
        } | {
            ("sz", par): ed.sigma_z[par] for par in ("odd", "even")
        } | {
            ("zz1", par): ed.zz[(par, 1)] for par in ("odd", "even")
        }
        gaps = "".join(f" {abs(values[k] - targets[k]):8.1e}" for k in targets)
        print(f"{n:>4}{gaps}  {ring.__name__}")

    # the rings only distinguish N once the thermal layers are narrower
    # than the momentum spacing, so probe this route deep in the cold regime
    cold = Thermal.finite(400.0)
    print(f"\nfree-fermion rings at beta={cold.beta} (gap to bulk integrals):")
    refs = {
        "u": internal_energy(p, cold, TIGHT),
        "m": magnetization(p, cold, TIGHT),
        "m_s": staggered_magnetization(p, cold, TIGHT),
    }
    pairs = {1: g1(p, cold, TIGHT), 2: g_even(p, cold, 2, TIGHT), 3: g_odd(p, cold, 3, TIGHT)}
    print(f"{'N':>6} {'u':>8} {'m':>8} {'m_s':>8} {'G1':>8} {'G2':>8} {'G3':>8}")
    for n in (2**8, 2**10, 2**12):
        res = finite_free_fermion(FiniteChainSpec(n, p, cold))
        cols = [abs(res.u - refs["u"]), abs(res.m - refs["m"]), abs(res.m_s - refs["m_s"])]
        for r, ref in pairs.items():
            cols.append(
                max(abs(res.g[r].uniform - ref.uniform), abs(res.g[r].staggered - ref.staggered))
            )
        print(f"{n:>6}" + "".join(f" {c:8.1e}" for c in cols))
    print("\nboth routes shrink toward zero with N; see tests/ for the pinned bounds")


if __name__ == "__main__":
    main()
