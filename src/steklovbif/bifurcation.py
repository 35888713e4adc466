"""Degeneracy instants and their certification as bifurcation instants.

A degeneracy instant is a parameter t where some branch rho_(i,j)(t) meets
the rescaled mean curvature Hhat.  Branch (i, j) at t is rho_j(c) at the
bulk coefficient c = t * rho_i, and each rho_j increases strictly in c, so
it meets Hhat at exactly one critical coefficient c_j*.  Every instant is
therefore some c_j* / rho_i: the model's table of c_j*, each accepted by
one eigensolve, is solved once and enumeration, isolation and Morse indices
are arithmetic on it.  The Morse index jump across an isolated instant
equals the multiplicity that crossed -- which is the certification
criterion: both endpoints nondegenerate and unequal indices.  Sylvester
inertia (``spectral.count_below``) checks the table where it certifies: on
both sides of the instant, for every factor index that crosses there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    CutoffExhaustedError,
    DegenerateInstantError,
    EpsilonExhaustedError,
    NoDegeneracyError,
    NumericalError,
    PreconditionError,
)
from .product import ProductModel, morse_index, nullity
from .serialize import read_csv, write_csv
from .spectral import count_below

MERGE_RTOL = 1e-6
EPSILON_CAP = 0.05
CSV_HEADER = ["t_star", "i", "j", "multiplicity", "nullity", "n_minus", "n_plus", "certified"]


@dataclass(frozen=True)
class DegeneracyRecord:
    """One instant t_star with the branches crossing there.

    crossings is a tuple of (i, j, multiplicity); n_minus / n_plus are the
    Morse indices at t_star -/+ epsilon once certification ran.
    """

    t_star: float
    crossings: tuple
    nullity: int
    n_minus: int | None = None
    n_plus: int | None = None
    epsilon: float | None = None
    certified: bool = False


def find_degeneracy_instant(model: ProductModel, i: int) -> float:
    """The unique t_i with rho_(i,0)(t_i) = Hhat, for factor index i >= 1:
    c_0* / rho_i.  Positive Hhat is required -- otherwise no instants exist.
    """
    if model.Hhat <= 0:
        raise NoDegeneracyError(
            f"no degeneracy instants exist: Hhat = {model.Hhat:g} <= 0"
        )
    if i < 1:
        raise PreconditionError("factor index must be >= 1 (constants never cross)")
    return model.critical_coefficients[0] / model.factor.value(i)


def _instants(model, t_min, t_max):
    """(t_star, crossings) of the c_j* / rho_i in [t_min, t_max], descending,
    coincident roots merged at their mean; no eigensolve beyond the model's
    table, and none at all for Hhat <= 0, where no instants exist.  A group is
    anchored on its first root, so no chain of close roots drifts past
    MERGE_RTOL from it.

    Truncation: the lowest branch of factor index i clears Hhat at t_min once
    t_min * rho_i > c_0*, and every later index and branch lies higher, so
    the factor spectrum must reach past c_0* / t_min.
    """
    if model.Hhat <= 0:
        return []
    c_stars = model.critical_coefficients
    factor = model.factor
    if factor.value(len(factor) - 1) * t_min <= c_stars[0]:
        raise CutoffExhaustedError(
            f"factor spectrum cutoff {factor.cutoff:g} exhausted before "
            f"the lowest branch at t_min={t_min:g} cleared Hhat={model.Hhat:g}"
        )
    roots = [
        (c / factor.value(i), i, j, factor.multiplicity(i))
        for i in range(1, len(factor))
        for j, c in enumerate(c_stars)
    ]
    roots = sorted((r for r in roots if t_min <= r[0] <= t_max), key=lambda r: -r[0])
    groups = []
    for t_root, i, j, mu in roots:
        if groups and abs(groups[-1][0][0] - t_root) <= MERGE_RTOL * groups[-1][0][0]:
            groups[-1][0].append(t_root)
            groups[-1][1].append((i, j, mu))
        else:
            groups.append(([t_root], [(i, j, mu)]))
    return [(float(np.mean(ts)), crossings) for ts, crossings in groups]


def enumerate_instants(
    model: ProductModel, t_min: float, t_max: float
) -> list[DegeneracyRecord]:
    """All degeneracy instants in [t_min, t_max], descending in t.

    Instants are the c_j* / rho_i inside the window; coincident ones merge
    into one record with summed multiplicity.  Nothing is solved: at
    c = t_star * rho_i each crossing sits on its accepted c_j*, up to
    rounding alone, or up to MERGE_RTOL (relative) when merged.
    """
    if not (0 < t_min < t_max):
        raise PreconditionError(f"need 0 < t_min < t_max, got [{t_min}, {t_max}]")
    return [
        DegeneracyRecord(
            t_star=t_star,
            crossings=tuple(crossings),
            nullity=sum(mu for _, _, mu in crossings),
        )
        for t_star, crossings in _instants(model, t_min, t_max)
    ]


def certify_bifurcation(
    model: ProductModel,
    record: DegeneracyRecord,
    epsilon: float | None = None,
    *,
    degeneracy_rtol: float | None = None,
) -> DegeneracyRecord:
    """Check the index-jump criterion across record.t_star.

    Starts from epsilon (default EPSILON_CAP * t_star) and halves it while
    some other c_j* / rho_i, read from the model's table, or a degenerate
    endpoint lies in the window.  Reads the Morse index on both sides off
    the table and certifies when both endpoints are nondegenerate and the
    indices differ.  For each factor index i crossing at t_star, one inertia
    count below Hhat at c = (t_star -/+ epsilon) * rho_i must equal the
    table's #{j : c_j* > c}; otherwise it raises NumericalError.
    """
    t_star = record.t_star
    epsilon = EPSILON_CAP * t_star if epsilon is None else epsilon
    if not (0 < epsilon < t_star):
        raise PreconditionError(f"epsilon must lie in (0, t_star), got {epsilon}")

    for _ in range(12):
        if any(
            abs(t - t_star) > MERGE_RTOL * max(t, t_star)
            for t, _ in _instants(model, t_star - epsilon, t_star + epsilon)
        ):
            epsilon *= 0.5
            continue
        try:
            n_minus = morse_index(model, t_star - epsilon, rtol=degeneracy_rtol)
            n_plus = morse_index(model, t_star + epsilon, rtol=degeneracy_rtol)
        except DegenerateInstantError:
            epsilon *= 0.5
            continue
        c_stars, rho = np.array(model.critical_coefficients), model.factor.value
        for i in sorted({i for i, _, _ in record.crossings}):
            for c in ((t_star - epsilon) * rho(i), (t_star + epsilon) * rho(i)):
                tabled = int(np.sum(c_stars > c))
                if count_below(model.boundary_forms, c, model.Hhat) != tabled:
                    raise NumericalError(f"an inertia count below Hhat at c={c:.12g} (factor index "
                                         f"i={i}) disagrees with the c_j* table's {tabled}")
        return replace(
            record,
            n_minus=n_minus,
            n_plus=n_plus,
            epsilon=epsilon,
            certified=n_minus != n_plus,
        )
    raise EpsilonExhaustedError(
        f"could not isolate t*={t_star:.12g}: neighboring instants closer than "
        "the working tolerance"
    )


def classify(model: ProductModel, t: float, *, tol: float | None = None) -> str:
    """'degenerate' when the Jacobi operator has kernel at t, else 'rigid'.

    Nonpositive Hhat short-circuits to rigid (the whole family is)."""
    if t <= 0:
        raise PreconditionError(f"metric parameter t must be positive, got {t}")
    if model.Hhat <= 0:
        return "rigid"
    tol = model.degeneracy_tol() if tol is None else tol
    return "degenerate" if nullity(model, t, tol) > 0 else "rigid"


# ---------------------------------------------------------------------------
# export / import

def records_to_json(records, path) -> None:
    doc = [
        {
            "t_star": r.t_star,
            "crossings": [list(c) for c in r.crossings],
            "nullity": r.nullity,
            "n_minus": r.n_minus,
            "n_plus": r.n_plus,
            "epsilon": r.epsilon,
            "certified": r.certified,
        }
        for r in records
    ]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def _typed(value, kind, key):
    """value when its JSON type is kind: an integer passes as float, a
    boolean only as bool; anything else raises instead of being coerced."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise TypeError(f"{key} must be a JSON {kind.__name__}, got {value!r}")
    return kind(value)


def _record_from_json(r) -> DegeneracyRecord:
    if not isinstance(r, dict):
        raise TypeError(f"a record must be an object, got {r!r}")

    def optional(key, kind, default=None):
        return default if r.get(key) is None else _typed(r[key], kind, key)

    crossings = r["crossings"]
    if not (isinstance(crossings, list)
            and all(isinstance(c, list) and len(c) == 3 for c in crossings)):
        raise TypeError(f"crossings must be a list of [i, j, multiplicity], got {crossings!r}")
    return DegeneracyRecord(
        t_star=_typed(r["t_star"], float, "t_star"),
        crossings=tuple(tuple(_typed(x, int, "a crossing entry") for x in c) for c in crossings),
        nullity=_typed(r["nullity"], int, "nullity"),
        n_minus=optional("n_minus", int),
        n_plus=optional("n_plus", int),
        epsilon=optional("epsilon", float),
        certified=optional("certified", bool, False),
    )


def records_from_json(path) -> list[DegeneracyRecord]:
    """The records of a file written by ``records_to_json``; an unreadable
    file, malformed JSON or a value of the wrong JSON type is a ConfigError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, list):
            raise TypeError(f"a list of records expected, got {type(doc).__name__}")
        return [_record_from_json(r) for r in doc]
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"instants file {path} holds no valid records: {exc!r}") from exc


def records_to_csv(records, path) -> None:
    rows = [(r.t_star, i, j, mu, r.nullity, r.n_minus, r.n_plus, r.certified)
            for r in records for i, j, mu in r.crossings]
    write_csv(path, CSV_HEADER, rows)


def records_from_csv(path) -> list[DegeneracyRecord]:
    records = []
    for row in read_csv(path, CSV_HEADER):
        t_star = float(row[0])
        crossing = (int(row[1]), int(row[2]), int(row[3]))
        fields = {
            "nullity": int(row[4]),
            "n_minus": int(row[5]) if row[5] else None,
            "n_plus": int(row[6]) if row[6] else None,
            "certified": row[7] == "true",
        }
        if records and records[-1].t_star == t_star:
            records[-1] = replace(
                records[-1], crossings=records[-1].crossings + (crossing,)
            )
        else:
            records.append(
                DegeneracyRecord(t_star=t_star, crossings=(crossing,), **fields)
            )
    return records
