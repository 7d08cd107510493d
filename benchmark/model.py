"""The paper's model, computed apart from the program, and the output checks.

Everything here is re-derived from Etinski et al. (IPDPS 2009): eq. (4)
load balance, eq. (5) parallel efficiency, the MAX frequency rule, the
power model P = A*C*f*V^2 + alpha*V, the time model
T(f)/T(fmax) = beta*(fmax/f - 1) + 1, and the gear tables. The only
program output used as input is the per-rank sum of compute bursts of
each generated trace (pals_layers facts). Every check returns a list of
failure strings; an empty list passes.
"""

import math

FREF = 2.3          # reference (top) frequency, GHz
VREF = 1.5
FMIN = 0.8
VMIN = 1.0

# Table 3 of the paper: load balance and parallel efficiency, percent.
PAPER_TABLE3 = {
    "BT-MZ-32": (35.21, 35.07), "CG-32": (97.82, 78.55),
    "MG-32": (94.55, 87.28), "IS-32": (43.77, 8.21),
    "SPECFEM3D-32": (92.80, 92.61), "WRF-32": (90.60, 89.53),
    "CG-64": (93.46, 63.36), "MG-64": (91.50, 85.60),
    "IS-64": (49.59, 17.00), "SPECFEM3D-96": (79.07, 78.65),
    "PEPC-128": (76.12, 67.78), "WRF-128": (93.65, 85.27),
}
TABLE3_TOLERANCE_PP = 0.5


def voltage(f):
    """Linear V(f) through (0.8 GHz, 1.0 V) and (2.3 GHz, 1.5 V)."""
    slope = (VREF - VMIN) / (FREF - FMIN)
    return slope * f + (VMIN - slope * FMIN)


def gear_set(name):
    """Discrete gear frequencies (ascending) for a gear-set name, or None
    for a continuous set. Returns (freqs, has_gear_above_reference)."""
    if name.startswith("uniform-"):
        n = int(name.split("-")[1])
        step = (FREF - FMIN) / (n - 1)
        freqs = [FMIN + step * i for i in range(n)]
        freqs[-1] = FREF
        return freqs, False
    if name.startswith("exponential-"):
        n = int(name.split("-")[1])
        unit = (FREF - FMIN) / (2.0 ** (n - 1) - 1.0)
        freqs = [FREF]
        f = FREF
        for i in range(n - 1):
            f -= unit * 2.0 ** i
            freqs.append(f)
        freqs.reverse()
        freqs[0] = FMIN
        return freqs, False
    if name == "avg-discrete":
        freqs, _ = gear_set("uniform-6")
        return freqs + [2.6], True
    if name in ("continuous-unlimited", "unlimited", "continuous-limited",
                "limited"):
        return None, False
    raise ValueError("unknown gear set " + name)


def gear_voltage(f):
    return 1.6 if f == 2.6 else voltage(f)


def stretch(f, beta):
    return beta * (FREF / f - 1.0) + 1.0


def max_gear_choices(c, cmax, beta, freqs):
    """MAX rule: the lowest gear at which the rank's stretched compute
    time still fits in the longest rank's time. The ideal frequency
    solves beta*(fref/f - 1) + 1 = cmax/c and never exceeds fref. Returns
    both neighbours when the ideal sits on a gear boundary within
    floating-point noise."""
    if c == 0.0:
        return [freqs[0]]
    ideal = FREF * beta / (cmax / c - 1.0 + beta)

    def snap(x):
        x = min(x, FREF)
        return next(f for f in freqs if f >= x)

    return sorted({snap(ideal * (1.0 - 1e-9)), snap(ideal * (1.0 + 1e-9))})


def energy_bounds(compute, freqs, pe, nt, h, beta, static_fraction,
                  activity_ratio):
    """Interval of normalized energy for a static MAX cell.

    compute: per-rank compute-burst sums at the reference gear.
    freqs: the discrete gear set's frequencies, ascending.
    pe, nt: the row's parallel efficiency and normalized time, each
    printed with absolute rounding error at most h. The baseline makespan
    follows from eq. (5); the scaled one is nt times it."""
    n = len(compute)
    total = sum(compute)
    cmax = max(compute)
    alpha = static_fraction / (1.0 - static_fraction) * FREF * VREF

    def powers(f):
        v = gear_voltage(f)
        dyn = f * v * v
        return dyn + alpha * v, dyn / activity_ratio + alpha * v

    pc0, pm0 = powers(FREF)
    # Per rank, E1 = a + b*T1 for each gear the MAX rule can pick; a rank
    # on a gear boundary contributes its cheaper and dearer case.
    options = []
    for c in compute:
        per_gear = []
        for f in max_gear_choices(c, cmax, beta, freqs):
            pc, pm = powers(f)
            cs = c * stretch(f, beta)
            per_gear.append((cs * (pc - pm), pm))
        options.append(per_gear)
    a0 = sum(c * (pc0 - pm0) for c in compute)
    b0 = n * pm0
    lo, hi = math.inf, -math.inf
    for pe_x in (pe - h, pe + h):
        t0 = total / (n * pe_x)
        for nt_x in (nt - h, nt + h):
            t1 = nt_x * t0
            e0 = a0 + b0 * t0
            e1_lo = sum(min(a + b * t1 for a, b in o) for o in options)
            e1_hi = sum(max(a + b * t1 for a, b in o) for o in options)
            lo = min(lo, e1_lo / e0)
            hi = max(hi, e1_hi / e0)
    return lo, hi


def load_balance(compute):
    """Eq. (4): sum of compute over N times the largest."""
    return sum(compute) / (len(compute) * max(compute))


# --- checks ---------------------------------------------------------------
# A row is a dict with instance, variant, lb, pe, energy, time (fractions),
# plus the cell it came from: gear_set, algorithm, controller, beta,
# static_fraction, activity_ratio.

def check_table3(rows, h):
    fails = []
    seen = set()
    for r in rows:
        paper = PAPER_TABLE3.get(r["instance"])
        if paper is None:
            fails.append("table3: unexpected instance " + r["instance"])
            continue
        seen.add(r["instance"])
        for got, want, what in ((r["lb"], paper[0], "LB"), (r["pe"], paper[1], "PE")):
            gap = abs(got * 100.0 - want)
            if gap > TABLE3_TOLERANCE_PP + h * 100.0:
                fails.append("table3: %s %s %.2f%% vs paper %.2f%%" % (
                    r["instance"], what, got * 100.0, want))
    if seen != set(PAPER_TABLE3):
        fails.append("table3: instances %s" % sorted(set(PAPER_TABLE3) - seen))
    return fails


def table3_max_gap_pp(rows):
    return max(max(abs(r["lb"] * 100 - PAPER_TABLE3[r["instance"]][0]),
                   abs(r["pe"] * 100 - PAPER_TABLE3[r["instance"]][1]))
               for r in rows)


def check_lb(rows, facts, h):
    fails = []
    for r in rows:
        want = load_balance(facts[r["instance"]])
        if abs(r["lb"] - want) > h + 1e-9:
            fails.append("eq4: %s [%s] LB %.6f, model %.8f" % (
                r["instance"], r["variant"], r["lb"], want))
    return fails


def check_max_energy(rows, facts, h):
    """Static MAX cells on discrete gear sets: energy from the model."""
    fails = []
    checked = 0
    for r in rows:
        if r["algorithm"] != "max" or r["controller"] != "static":
            continue
        freqs, _ = gear_set(r["gear_set"])
        if freqs is None:
            continue
        lo, hi = energy_bounds(facts[r["instance"]], freqs, r["pe"],
                               r["time"], h, r["beta"], r["static_fraction"],
                               r["activity_ratio"])
        checked += 1
        if not (lo - h - 1e-9 <= r["energy"] <= hi + h + 1e-9):
            fails.append("energy: %s [%s] %.6f outside model [%.6f, %.6f]" % (
                r["instance"], r["variant"], r["energy"], lo, hi))
    if checked == 0:
        fails.append("energy: no static MAX cell on a discrete gear set")
    return fails


def check_time_floor(rows, h):
    """MAX never runs a rank above the reference gear when the set has no
    gear above it, so no rank gets faster: normalized time >= 1."""
    fails = []
    for r in rows:
        if r["algorithm"] != "max" or gear_set(r["gear_set"])[1]:
            continue
        if r["time"] < 1.0 - h - 1e-12:
            fails.append("time: %s [%s] normalized time %.6f < 1" % (
                r["instance"], r["variant"], r["time"]))
    return fails


def check_count(got, want, what):
    return [] if got == want else ["count: %s %d, expected %d" % (what, got, want)]
