"""Generate frozen reference values for the test suite.

All integrals use the closed form
    int_0^L s^(a-1) cos(n s) ds = Re[ (-i n)^(-a) * gammainc(a, 0, -i n L) ]
evaluated at 50 decimal digits, which is independent of any panel
quadrature. Output (stdout) is a Python module of constants; the committed
copy lives at tests/oracle_values.py.

Usage: python3 tools/make_oracles.py > tests/oracle_values.py
Requires mpmath (a tooling dependency only; the package itself never
imports it).
"""
import mpmath as mp

mp.mp.dps = 50


def powcos(a, n, L):
    """int_0^L s^(a-1) cos(n s) ds, a > 0, integer n >= 0."""
    if n == 0:
        return L**a / a
    z = -1j * mp.mpf(n) * L
    return mp.re(mp.gammainc(mp.mpf(a), 0, z) / (-1j * mp.mpf(n)) ** mp.mpf(a))


def xihat(gamma, n):
    return powcos(gamma, n, mp.pi) / mp.pi


def fmt(x, digits=30):
    return mp.nstr(x, digits, strip_zeros=False)


lines = []
lines.append('"""Frozen high-precision reference values.')
lines.append("")
lines.append("Generated by tools/make_oracles.py (50-digit arithmetic, closed forms")
lines.append('via the incomplete gamma function). Do not edit by hand."""')
lines.append("")
lines.append("import math")
lines.append("")

lines.append("# gamma function on (0, 2]")
lines.append("GAMMA_REF = {")
for label, xv in [("0.125", mp.mpf(1) / 8), ("0.25", mp.mpf(1) / 4),
                  ("1.0 / 3.0", mp.mpf(1) / 3), ("0.5", mp.mpf(1) / 2),
                  ("0.75", mp.mpf(3) / 4), ("1.0", mp.mpf(1)),
                  ("1.25", mp.mpf(5) / 4), ("1.5", mp.mpf(3) / 2),
                  ("2.0", mp.mpf(2))]:
    lines.append(f"    {label}: {fmt(mp.gamma(xv))},")
lines.append("}")
lines.append("")

cases = [
    ("0.125", mp.mpf(1) / 8, [0, 1, 17, 100, 1000, 10000]),
    ("1.0 / 3.0", mp.mpf(1) / 3, [0, 1, 5, 17, 1000]),
    ("0.25", mp.mpf(1) / 4, [0, 1, 10, 100, 1000, 10000]),
    ("0.5", mp.mpf(1) / 2, [3, 1000]),
    ("0.9", mp.mpf(9) / 10, [50]),
    # inner-product exponents g = 2*beta + 1 for q in {3, 4, 8}
    ("5.0 / 3.0", mp.mpf(5) / 3, [7]),
    ("1.75", mp.mpf(7) / 4, [0, 1, 10, 100, 200, 1000, 1599, 2047]),
    ("1.875", mp.mpf(15) / 8, [7]),
]
lines.append("# POWCOS_REF[(g, n)] = int_0^pi s^(g-1) cos(n s) ds")
lines.append("POWCOS_REF = {")
for label, g, ns in cases:
    for n in ns:
        lines.append(f"    ({label}, {n}): {fmt(powcos(g, n, mp.pi))},")
lines.append("}")
lines.append("")

# period integrals via the shifted closed form:
# I_l = int_{2pi l}^{2pi(l+1)} u^(g-1) cos u du
lines.append("# PERIOD_REF[(g, l)] = int_0^{2pi} (2 pi l + x)^(g-1) cos(x) dx")
lines.append("PERIOD_REF = {")
for label, g in [("0.25", mp.mpf(1) / 4)]:
    for l in (0, 1, 10, 100):
        val = powcos(g, 1, 2 * mp.pi * (l + 1)) - powcos(g, 1, 2 * mp.pi * l)
        lines.append(f"    ({label}, {l}): {fmt(val)},")
lines.append("}")
lines.append("")

# witness orbit/resolvent oracles: mu_k = 4^k, c_k = 2^k,
# xi_k = xihat(ceil(k/2)) with gamma = 1/4
gamma4 = mp.mpf(1) / 4
t = mp.mpf(4) ** (-5)
acc = mp.mpf(0)
for k in range(200):
    nu = (k + 1) // 2
    acc += xihat(gamma4, nu) * mp.mpf(2) ** k * mp.exp(-mp.mpf(4) ** k * t)
lines.append("# witness orbit sum_k xi_k 2^k exp(-4^k t), 200 terms, q = 4, t = 4^-5")
lines.append(f"ORBIT_Q4_T4POW_MINUS5 = {fmt(acc)}")
lines.append("")

lam = mp.mpc(1, 10)
acc = mp.mpc(0)
for k in range(400):
    nu = (k + 1) // 2
    acc += xihat(gamma4, nu) * mp.mpf(2) ** k / (lam + mp.mpf(4) ** k)
lines.append("# witness resolvent sum_k xi_k 2^k / (lambda + 4^k), lambda = 1 + 10j, q = 4")
lines.append(f"RESOLVENT_Q4_LAM_1_10J = complex({fmt(mp.re(acc))}, "
             f"{fmt(mp.im(acc))})")
lines.append("")

lines.append("# xi_hat(n) * n^gamma limit: Gamma(gamma) cos(pi gamma/2) / pi")
lines.append("XI_LIMIT = {")
for qlabel, qv in [("3.0", 3), ("4.0", 4), ("8.0", 8)]:
    g = mp.mpf(1) / qv
    lines.append(f"    {qlabel}: {fmt(mp.gamma(g) * mp.cos(mp.pi * g / 2) / mp.pi)},")
lines.append("}")
lines.append("")
lines.append("SQRT_PI = math.sqrt(math.pi)")
lines.append("")

print("\n".join(lines))
