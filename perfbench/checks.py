"""Correctness checks of the benchmark's workload outputs.

Each check returns (attempted, failures): the number of outputs it looked
at and a list of one-line reasons, one per output that failed.
"""

import math

# W1 tolerance against the checked-in 21x16 N=12 table. A sub-grid warm-
# starts each bias point from a farther neighbour than the full table does,
# which moves currents by up to ~1% of their value (or ~0.7% of the table's
# largest current in subthreshold) and charges by ~0.5% of the largest
# charge. A point passes when its current is within CURRENT_REL of the
# reference value or within CURRENT_OF_MAX of the largest reference
# current, and its charge within CHARGE_OF_MAX of the largest reference
# charge. Scaling every current by 10% fails.
CURRENT_REL = 0.03
CURRENT_OF_MAX = 0.015
CHARGE_OF_MAX = 0.015

# W2/W3 tolerances against the default-seed reference values.
FREQ_REL = 0.05
POWER_REL = 0.10
SNM_ABS_V = 0.01

PLANE_STEP_V = 0.05


def load_table_csv(path):
    """Parse a device-table CSV (device::save_table format) into
    {(ivg, ivd): (current_A, charge_C)} keyed by plane index (0.05 V)."""
    points = {}
    header = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            row = dict(zip(header, (float(x) for x in line.split(","))))
            points[plane_index(row["vg"], row["vd"])] = (row["current_A"], row["charge_C"])
    if not points:
        raise ValueError(f"{path}: no table rows")
    return points


def plane_index(vg, vd):
    return (round(vg / PLANE_STEP_V), round(vd / PLANE_STEP_V))


def check_device_table(outputs, reference):
    """W1: every sub-grid point against the reference table."""
    failures = []
    i_max = max(abs(i) for i, _ in reference.values())
    q_max = max(abs(q) for _, q in reference.values())
    vg, vd = outputs["vg"], outputs["vd"]
    currents, charges = outputs["current_A"], outputs["charge_C"]
    for ig, g in enumerate(vg):
        for idx, d in enumerate(vd):
            key = plane_index(g, d)
            where = f"VG={g:.2f} VD={d:.2f}"
            if abs(g - key[0] * PLANE_STEP_V) > 1e-9 or abs(d - key[1] * PLANE_STEP_V) > 1e-9:
                failures.append(f"{where}: off the 0.05 V plane")
                continue
            if key not in reference:
                failures.append(f"{where}: outside the reference table")
                continue
            i_ref, q_ref = reference[key]
            i = currents[ig * len(vd) + idx]
            q = charges[ig * len(vd) + idx]
            if not (math.isfinite(i) and math.isfinite(q)):
                failures.append(f"{where}: non-finite current or charge")
                continue
            di = abs(i - i_ref)
            if di > CURRENT_REL * abs(i_ref) and di > CURRENT_OF_MAX * i_max:
                failures.append(f"{where}: current {i:.4g} A vs reference {i_ref:.4g} A")
            if abs(q - q_ref) > CHARGE_OF_MAX * q_max:
                failures.append(f"{where}: charge {q:.4g} C vs reference {q_ref:.4g} C")
    return len(vg) * len(vd), failures


def _finite(*xs):
    return all(x is not None and math.isfinite(x) for x in xs)


def _rel_close(a, b, rel):
    return abs(a - b) <= rel * max(abs(b), 1e-300)


def check_plane(outputs, reference=None):
    """W2: physical invariants of every ok point; on the default seed also
    the reference values, and no point that was ok may turn not-ok."""
    failures = []
    points = outputs["points"]
    for p in points:
        where = f"VT={p['vt']:.2f} VDD={p['vdd']:.2f}"
        if not p["ok"]:
            continue
        if not _finite(p["frequency_Hz"], p["edp_Js"], p["snm_V"], p["static_power_W"],
                       p["dynamic_power_W"]):
            failures.append(f"{where}: non-finite figure of merit")
        elif p["frequency_Hz"] <= 0 or p["edp_Js"] <= 0 or p["static_power_W"] < 0:
            failures.append(f"{where}: f, EDP or static power not positive")
        elif not 0 <= p["snm_V"] <= p["vdd"] / 2 + 1e-12:
            failures.append(f"{where}: SNM {p['snm_V']:.4f} V outside [0, VDD/2]")
    if reference is not None:
        if len(reference["points"]) != len(points):
            return len(points), failures + ["plane size differs from the reference"]
        for p, r in zip(points, reference["points"]):
            where = f"VT={p['vt']:.2f} VDD={p['vdd']:.2f}"
            if abs(p["vt"] - r["vt"]) > 1e-12 or abs(p["vdd"] - r["vdd"]) > 1e-12:
                failures.append(f"{where}: not the reference point")
            elif r["ok"] and not p["ok"]:
                failures.append(f"{where}: ok in the reference, not ok now")
            elif r["ok"] and p["ok"]:
                if not _rel_close(p["frequency_Hz"], r["frequency_Hz"], FREQ_REL):
                    failures.append(f"{where}: f {p['frequency_Hz']:.4g} vs {r['frequency_Hz']:.4g} Hz")
                if abs(p["snm_V"] - r["snm_V"]) > SNM_ABS_V:
                    failures.append(f"{where}: SNM {p['snm_V']:.4f} vs {r['snm_V']:.4f} V")
                if not _rel_close(p["static_power_W"], r["static_power_W"], POWER_REL):
                    failures.append(f"{where}: static power off the reference")
    return len(points), failures


def _check_ring(where, s):
    if not _finite(s["frequency_Hz"], s["static_power_W"], s["dynamic_power_W"]):
        return f"{where}: non-finite ring metrics"
    if s["frequency_Hz"] <= 0 or s["static_power_W"] < 0:
        return f"{where}: f or static power not positive"
    return None


def check_monte_carlo(outputs, reference=None):
    """W3: the nominal ring and every valid sample are physical; on the
    default seed also the reference values, and no valid sample may turn
    invalid."""
    failures = []
    samples = outputs["samples"]
    nominal = outputs["nominal"]
    if not nominal["ok"]:
        failures.append("nominal ring did not oscillate")
    elif (msg := _check_ring("nominal", nominal)):
        failures.append(msg)
    for i, s in enumerate(samples):
        if s["ok"] and (msg := _check_ring(f"sample {i}", s)):
            failures.append(msg)
    if reference is not None:
        if len(reference["samples"]) != len(samples):
            return len(samples) + 1, failures + ["sample count differs from the reference"]
        pairs = [("nominal", nominal, reference["nominal"])]
        pairs += [(f"sample {i}", s, r) for i, (s, r) in enumerate(zip(samples, reference["samples"]))]
        for where, s, r in pairs:
            if r["ok"] and not s["ok"]:
                failures.append(f"{where}: valid in the reference, invalid now")
            elif r["ok"] and s["ok"]:
                if not _rel_close(s["frequency_Hz"], r["frequency_Hz"], FREQ_REL):
                    failures.append(f"{where}: f {s['frequency_Hz']:.4g} vs {r['frequency_Hz']:.4g} Hz")
                if not _rel_close(s["static_power_W"], r["static_power_W"], POWER_REL):
                    failures.append(f"{where}: static power off the reference")
    return len(samples) + 1, failures
