"""Degeneracy instants and their certification as bifurcation instants.

A degeneracy instant is a parameter t where some branch rho_(i,j)(t) meets
the rescaled mean curvature Hhat.  Branch (i, j) at t is rho_j(c) at the
bulk coefficient c = t * rho_i, and each rho_j increases strictly in c, so
it meets Hhat at exactly one critical coefficient c_j*.  Every instant is
therefore some c_j* / rho_i, listed once per model (``ProductModel.instants``)
from the c_j*, the positive eigenvalues of one linear pencil, solved and
proved once.  Enumeration, isolation and Morse indices are arithmetic on
that list.  The Morse index jump across an isolated instant equals the
multiplicity that crossed -- which is the certification criterion: unequal
indices at both ends.  The table is proved at every c outside the windows
that ``level_crossings`` proved the c_j* in, and isolation keeps every c
that certification reads outside them and above the table's edge, by the
table's own comparisons, so both ends are nondegenerate by construction.
MERGE_RTOL says which instants are one (``same_instant``): it merges them
into one record, and keeps the report's index points off every record.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigError, EpsilonExhaustedError, NoDegeneracyError, PreconditionError
from .product import ProductModel, check_edge, morse_index, nullity
from .serialize import typed, write_csv

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


def same_instant(a, b):
    """Whether instants a and b, elementwise, are one: |a - b| <= MERGE_RTOL * max(a, b)."""
    return np.abs(a - b) <= MERGE_RTOL * np.maximum(a, b)


def find_degeneracy_instant(model: ProductModel, i: int) -> float:
    """The unique t_i with rho_(i,0)(t_i) = Hhat, for factor index i >= 1:
    c_0* / rho_i.  Positive Hhat is required -- otherwise no instants exist.
    """
    if model.Hhat <= 0:
        raise NoDegeneracyError(f"no degeneracy instants exist: Hhat = {model.Hhat:g} <= 0")
    if i < 1:
        raise PreconditionError("factor index must be >= 1 (constants never cross)")
    model.factor.value(i)  # an index beyond the cutoff raises
    table = model.instants
    return float(table.t[(table.i == i) & (table.j == 0)][0])


def enumerate_instants(model: ProductModel, t_min: float,
                       t_max: float) -> list[DegeneracyRecord]:
    """All degeneracy instants in [t_min, t_max], descending in t: the
    model's instants in the window, coincident ones merged into one record
    with summed multiplicity, at their mean.  A group is anchored on its
    first, largest instant: each member is ``same_instant`` as it.  t_min
    must pass ``check_edge``, so that none is missing.  Nothing is solved.
    """
    if not t_min < t_max:
        raise PreconditionError(f"need t_min < t_max, got [{t_min}, {t_max}]")
    check_edge(model, t_min)
    table = model.instants
    inside = (t_min <= table.t) & (table.t <= t_max)
    groups = []  # (instants, crossings)
    for t, *crossing in zip(*(a[inside].tolist() for a in (table.t, table.i, table.j, table.mu))):
        if not groups or not same_instant(groups[-1][0][0], t):
            groups.append(([], []))
        groups[-1][0].append(t)
        groups[-1][1].append(tuple(crossing))
    return [
        DegeneracyRecord(t_star=float(np.mean(ts)), crossings=tuple(crossings),
                         nullity=sum(mu for _, _, mu in crossings))
        for ts, crossings in groups
    ]


def certify_bifurcation(model: ProductModel, record: DegeneracyRecord) -> DegeneracyRecord:
    """Check the index-jump criterion across record.t_star.

    Starts from epsilon = EPSILON_CAP * t_star and halves it while
    t_star - epsilon lies at or below the table's edge, or [t_star -/+
    epsilon] rho_i meets the window of another of the model's instants (one
    not ``same_instant`` as t_star), as ``InstantTable.sides`` tells.
    Then neither end lies in any c_j*'s window, so both are nondegenerate;
    reads the Morse index on both sides off the table, which is proved
    there, and certifies when the indices differ, which every isolating
    epsilon gives alike.  A t_star at or below the edge raises; gives up
    after 12 halvings.
    """
    t_star = record.t_star
    epsilon = EPSILON_CAP * t_star
    if not epsilon > 0:  # a record read from a file; 5e-324 leaves epsilon 0
        raise PreconditionError(f"t_star must leave a positive radius {EPSILON_CAP:g} * t_star, "
                                f"got t_star = {t_star}")
    check_edge(model, t_star)
    table = model.instants
    for _ in range(12):
        lo, hi = t_star - epsilon, t_star + epsilon
        t = table.t[np.logical_or(*table.sides(lo)) & ~table.sides(hi)[0]]  # windows met
        if table.truncated(lo) or not np.all(same_instant(t, t_star)):
            epsilon *= 0.5
            continue
        n_minus, n_plus = morse_index(model, lo), morse_index(model, hi)
        return replace(record, n_minus=n_minus, n_plus=n_plus, epsilon=epsilon,
                       certified=n_minus != n_plus)
    raise EpsilonExhaustedError(f"could not isolate t*={t_star:.12g}: neighboring instants "
                                "closer than the working tolerance")


def index_points(records, t_min: float, t_max: float) -> list[float]:
    """Where a report reads the Morse index: the geometric midpoint of each gap
    between t_max, the records' t_star (descending) and t_min whose ratio is
    at least 1 + 10 MERGE_RTOL, which keeps it off every merged group's span."""
    cuts = [t_max] + [r.t_star for r in records] + [t_min]
    return [float(np.sqrt(lo * hi)) for hi, lo in zip(cuts, cuts[1:])
            if hi / lo >= 1.0 + 10 * MERGE_RTOL]


def classify(model: ProductModel, t: float) -> str:
    """'degenerate' when the Jacobi operator may have kernel at t -- some
    t * rho_i in the window of a c_j* -- else 'rigid', as the whole family
    is for nonpositive Hhat, whose table is empty."""
    return "degenerate" if nullity(model, t) > 0 else "rigid"


# ---------------------------------------------------------------------------
# export / import

def records_document(records) -> list:
    """The JSON document of records: one object per record, its fields in
    the order ``DegeneracyRecord`` lists them."""
    return [asdict(r) for r in records]


def records_to_json(records, path) -> None:
    with open(path, "w") as fh:
        json.dump(records_document(records), fh, indent=2)


def _record_from_json(r) -> DegeneracyRecord:
    if not isinstance(r, dict):
        raise TypeError(f"a record must be an object, got {r!r}")

    def optional(key, kind, default=None):
        return default if r.get(key) is None else typed(r[key], kind, key)

    crossings = r["crossings"]
    if not (isinstance(crossings, list)
            and all(isinstance(c, list) and len(c) == 3 for c in crossings)):
        raise TypeError(f"crossings must be a list of [i, j, multiplicity], got {crossings!r}")
    crossings = tuple(tuple(typed(x, int, "a crossing entry") for x in c) for c in crossings)
    # as enumerate_instants writes them: a record has crossings, each a
    # branch (i >= 1, j >= 0) of positive multiplicity, summed by its nullity
    if not crossings or any(i < 1 or j < 0 or mu < 1 for i, j, mu in crossings):
        raise ValueError(f"crossings must be a nonempty list of [i >= 1, j >= 0, "
                         f"multiplicity >= 1], got {r['crossings']!r}")
    nullity = typed(r["nullity"], int, "nullity")
    if nullity != sum(mu for _, _, mu in crossings):
        raise ValueError(f"nullity {nullity} is not the sum of the crossings' multiplicities")
    return DegeneracyRecord(
        t_star=typed(r["t_star"], float, "t_star"),
        crossings=crossings,
        nullity=nullity,
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

