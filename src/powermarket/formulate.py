"""Translate a power system plus policy into a sparse LP of named blocks.

Each (family, entity) pair, such as ``("g", "wind@N")``, ``("balance", "N")``
or ``("co2-cap", None)``, owns one block of columns or rows, registered once
by :func:`build_lp`.  A block is an ``int`` position for a scalar and a
``slice`` with one position per snapshot otherwise; the slice is strided
where the blocks of one storage unit or line interleave snapshot by
snapshot.  Objective, bounds, senses, right-hand sides and the COO triplets
of A are numpy arrays, and solve, metrics, verify and sweep read values by
slicing through the block index.

Names of the form ``family.entity.t<idx>`` exist only at the interchange
edges: the free-form MPS file written here, the solution file
in :mod:`powermarket.solve`, and error messages.  :func:`relax` is the one
Lagrangian relaxation of policy rows: it frees rows and prices them into
the costs, so that a binding cap relaxed at its shadow price is a tax and a
binding quota a premium.
"""

from __future__ import annotations

import copy
from typing import Optional

import numpy as np

from .model import (
    SHEDDING_NAME,
    Co2Cap,
    Co2Tax,
    FixedFip,
    PolicyConfig,
    PowerSystem,
    SupportAvailable,
    SupportDispatched,
    tech_key,
    validate,
)

__all__ = [
    "LinearProgram",
    "FormulationError",
    "build_lp",
    "cycle_basis",
    "apply_equivalence_substitution",
    "column_major",
    "relax",
    "write_mps",
]

INF = float("inf")


class FormulationError(ValueError):
    pass


def _positions(index) -> np.ndarray:
    """The positions a block index (int or slice) covers, as an array."""
    if isinstance(index, slice):
        return np.arange(index.start, index.stop, index.step)
    return np.asarray(index)


def _key(key) -> tuple:
    return key if isinstance(key, tuple) else (key, None)


def _block_id(key: tuple) -> str:
    """Name of a (family, entity) block: ``family`` or ``family.entity``."""
    family, entity = key
    return family if entity is None else f"{family}.{entity}"


def _block_names(key: tuple, index) -> list:
    base = _block_id(key)
    if isinstance(index, slice):
        return [f"{base}.t{t}" for t in range(len(_positions(index)))]
    return base


class Table:
    """Equal-length numpy fields, one per keyword of the constructor (whose
    value is the field's default and fixes its dtype).  Appends are kept as
    chunks and joined into one array per field when the field is read."""

    def __init__(self, **defaults):
        self.defaults = defaults
        self._chunks = {k: [np.empty(0, np.asarray(v).dtype)] for k, v in defaults.items()}
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __getattr__(self, name):
        chunks = self.__dict__.get("_chunks", {}).get(name)
        if chunks is None:
            raise AttributeError(name)
        if len(chunks) > 1:
            chunks[:] = [np.concatenate(chunks)]
        return chunks[0]

    def append(self, n: int, **values) -> None:
        for name, default in self.defaults.items():
            chunk = np.asarray(values.get(name, default), self._chunks[name][0].dtype)
            self._chunks[name].append(np.broadcast_to(chunk, (n,)).copy())
        self._len += n


class LinearProgram:
    """Sparse minimization LP whose columns and rows form named blocks.

    ``columns`` (lower, upper, objective), ``rows`` (sense, rhs) and
    ``entries`` (row, col, value: the COO triplets of A, duplicates summed
    by consumers) are :class:`Table` s in LP order; ``col_index`` and
    ``row_index`` map each (family, entity) key to its int or slice.
    """

    def __init__(self):
        self.columns = Table(lower=0.0, upper=INF, objective=0.0)
        self.rows = Table(sense="<=", rhs=0.0)
        self.entries = Table(row=0, col=0, value=0.0)
        self.col_index: dict = {}
        self.row_index: dict = {}

    # -- construction ----------------------------------------------------------

    @staticmethod
    def _register(table: Table, index: dict, keys, count, fields: dict):
        """Append one block per key; the blocks of several keys interleave
        snapshot by snapshot.  A field value is broadcast over the new
        positions, or given per key as a tuple when there are several keys."""
        keys = [_key(k) for k in keys]
        k, start, n = len(keys), len(table), 1 if count is None else count
        for i, key in enumerate(keys):
            if key in index:
                raise FormulationError(f"duplicate block '{_block_id(key)}'")
            index[key] = start + i if count is None else \
                slice(start + i, start + i + k * n, k)
        values = {}
        for name, value in fields.items():
            per_key = value if k > 1 and isinstance(value, tuple) else (value,) * k
            grid = np.empty((n, k), np.asarray(table.defaults[name]).dtype)
            for i, v in enumerate(per_key):
                grid[:, i] = v
            values[name] = grid.ravel()
        table.append(n * k, **values)
        return index[keys[0]] if k == 1 else tuple(index[key] for key in keys)

    def add_columns(self, *keys, count: Optional[int] = None, **fields):
        """Register column blocks; a key is ``(family, entity)`` or a bare
        family.  Without ``count`` each block is one scalar column.  Returns
        the block's index, or a tuple of them for several keys."""
        return self._register(self.columns, self.col_index, keys, count, fields)

    def add_rows(self, *keys, count: Optional[int] = None, sense, rhs=0.0):
        for s in (sense if isinstance(sense, tuple) else (sense,)):
            if s not in ("=", "<=", ">="):
                raise FormulationError(f"bad sense '{s}'")
        return self._register(self.rows, self.row_index, keys, count,
                              {"sense": sense, "rhs": rhs})

    def add_entries(self, rows, cols, values) -> None:
        """A[rows, cols] = values, broadcasting block indices, position
        arrays and values against each other; zero values are skipped."""
        r, c, v = np.broadcast_arrays(_positions(rows), _positions(cols),
                                      np.asarray(values, dtype=float))
        keep = v != 0.0
        self.entries.append(int(keep.sum()), row=r[keep], col=c[keep], value=v[keep])

    # -- queries ---------------------------------------------------------------

    def col(self, family: str, entity: Optional[str] = None):
        return self.col_index[family, entity]

    def row(self, family: str, entity: Optional[str] = None):
        return self.row_index[family, entity]

    def has_row(self, family: str, entity: Optional[str] = None) -> bool:
        return (family, entity) in self.row_index

    def col_names(self) -> list:
        return _names(self.col_index, len(self.columns))

    def row_names(self) -> list:
        return _names(self.row_index, len(self.rows))

    def copy(self) -> "LinearProgram":
        return copy.deepcopy(self)

    def sampled(self, stride: int) -> Optional["LinearProgram"]:
        """The LP restricted to every ``stride``-th snapshot, or None when a
        row links two snapshots (a storage state-of-charge row does).

        A snapshot block is a slice block; they all have one length, T.
        Each keeps snapshots 0, stride, 2·stride, ... and scalar blocks are
        kept whole.  Each of the n kept snapshots stands for T/n of them:
        per-snapshot costs, and the entries of scalar rows (a CO2 cap, a
        dispatched quota) in per-snapshot columns, are weighted by T/n.
        Returns None too when the LP has no snapshot blocks, or blocks of
        several lengths."""
        col_t, col_lengths = _snapshot_of(self.col_index, len(self.columns))
        row_t, row_lengths = _snapshot_of(self.row_index, len(self.rows))
        lengths = col_lengths | row_lengths
        e = self.entries
        row_of, col_of = row_t[e.row], col_t[e.col]
        if len(lengths) != 1 or np.any((row_of >= 0) & (col_of >= 0) & (row_of != col_of)):
            return None
        T = lengths.pop()
        n = len(range(0, T, stride))
        weight = T / n
        keep_col = (col_t < 0) | (col_t % stride == 0)
        keep_row = (row_t < 0) | (row_t % stride == 0)
        new_col, new_row = np.cumsum(keep_col) - 1, np.cumsum(keep_row) - 1
        out = LinearProgram()
        out.col_index = _kept_index(self.col_index, new_col, n)
        out.row_index = _kept_index(self.row_index, new_row, n)
        cols, rows = self.columns, self.rows
        out.columns.append(int(keep_col.sum()), lower=cols.lower[keep_col],
                           upper=cols.upper[keep_col],
                           objective=np.where(col_t[keep_col] >= 0, weight, 1.0)
                           * cols.objective[keep_col])
        out.rows.append(int(keep_row.sum()), sense=rows.sense[keep_row], rhs=rows.rhs[keep_row])
        keep = keep_row[e.row] & keep_col[e.col]
        scale = np.where((row_of[keep] < 0) & (col_of[keep] >= 0), weight, 1.0)
        out.entries.append(int(keep.sum()), row=new_row[e.row[keep]], col=new_col[e.col[keep]],
                           value=scale * e.value[keep])
        return out

    def validate_structure(self) -> None:
        e = self.entries
        if len(e) and not (0 <= e.row.min() and e.row.max() < len(self.rows)
                           and 0 <= e.col.min() and e.col.max() < len(self.columns)):
            raise FormulationError("entry references missing row or column")
        bad = np.flatnonzero(self.columns.lower > self.columns.upper)
        if bad.size:
            raise FormulationError(f"column '{self.col_names()[bad[0]]}' has lower > upper")


def _names(index: dict, n: int) -> list:
    names = [None] * n
    for key, idx in index.items():
        names[idx] = _block_names(key, idx)
    return names


def _snapshot_of(index: dict, n: int) -> tuple:
    """Snapshot of each of ``n`` positions (-1 in a scalar block), and the
    set of slice block lengths."""
    snapshot, lengths = np.full(n, -1), set()
    for idx in index.values():
        if isinstance(idx, slice):
            positions = _positions(idx)
            snapshot[positions] = np.arange(len(positions))
            lengths.add(len(positions))
    return snapshot, lengths


def _kept_index(index: dict, new: np.ndarray, n: int) -> dict:
    """``index`` over the kept positions, ``new`` giving each kept one its
    new position, with n per slice block.  The interleaved blocks of a
    snapshot are kept or dropped together, so a slice keeps its step."""
    return {key: slice(int(new[idx.start]), int(new[idx.start]) + idx.step * n, idx.step)
            if isinstance(idx, slice) else int(new[idx]) for key, idx in index.items()}


# -- cycle basis ----------------------------------------------------------------


def cycle_basis(lines) -> list:
    """Independent cycle basis of the line graph via a BFS spanning forest.

    Each cycle is a dict mapping line index to +1/-1 according to the
    traversal direction around the loop; parallel lines are handled.
    """
    lines = list(lines)
    adjacency: dict = {}
    for i, line in enumerate(lines):
        adjacency.setdefault(line.from_node, []).append((i, line.to_node, +1))
        adjacency.setdefault(line.to_node, []).append((i, line.from_node, -1))

    parent: dict = {}       # node -> (line index, sign to reach node from parent)
    visited: set = set()
    tree_lines: set = set()
    for root in adjacency:
        if root in visited:
            continue
        visited.add(root)
        parent[root] = None
        queue = [root]
        while queue:
            u = queue.pop(0)
            for li, v, sign in adjacency[u]:
                if v in visited or li in tree_lines:
                    continue
                visited.add(v)
                tree_lines.add(li)
                parent[v] = (li, sign, u)
                queue.append(v)

    def path_to_root(node):
        out = []
        while parent[node] is not None:
            li, sign, node = parent[node]
            out.append((li, sign))
        return out

    cycles = []
    for i, line in enumerate(lines):
        if i in tree_lines:
            continue
        # cycle: line i forward, then tree path to_node -> from_node, walked
        # as from_node's path to the root less to_node's: the tree lines both
        # share, above the lowest common ancestor, sum to 0
        cyc = {i: +1}
        for li, sign in path_to_root(line.from_node):
            cyc[li] = cyc.get(li, 0) + sign
        for li, sign in path_to_root(line.to_node):
            cyc[li] = cyc.get(li, 0) - sign
        cycles.append({k: v for k, v in cyc.items() if v != 0})
    return cycles


# -- LP construction -------------------------------------------------------------


def build_lp(system: PowerSystem, policy: PolicyConfig) -> LinearProgram:
    """Build the cost-minimization LP whose optimum satisfies the market
    equilibrium KKT system for the given policy regime."""
    violations = validate(system, policy)
    if violations:
        msgs = "; ".join(map(str, violations[:8]))
        raise FormulationError(f"invalid system/policy: {msgs}")
    T = system.snapshots

    lp = LinearProgram()
    r = system.discount_rate
    support = policy.support
    co2 = policy.co2
    support_set = set(policy.support_set())
    tax_rate = co2.rate if isinstance(co2, Co2Tax) else 0.0
    fip = support if isinstance(support, FixedFip) else None

    # balance rows first: one equality per (node, snapshot)
    balance = {n: lp.add_rows(("balance", n), count=T, sense="=", rhs=system.demand[n])
               for n in system.nodes}

    # generators
    for node, spec in system.technologies:
        key = tech_key(spec.name, node)
        o_eff = spec.marginal_cost + spec.emission_factor * tax_rate
        if fip is not None and spec.name in fip.technologies:
            o_eff -= fip.premium
        G = lp.add_columns(("G", key), objective=spec.annual_cost(r),
                           upper=INF if spec.max_potential is None else spec.max_potential)
        g = lp.add_columns(("g", key), count=T, objective=o_eff)
        lp.add_entries(balance[node], g, 1.0)
        upper = lp.add_rows(("gen-upper", key), count=T, sense="<=")
        lp.add_entries(upper, g, 1.0)
        lp.add_entries(upper, G, -np.asarray(spec.availability or 1.0))

    # load shedding at VOLL: a dispatch-only pseudo-technology per node
    if system.voll is not None:
        for n in system.nodes:
            shed = lp.add_columns(("g", tech_key(SHEDDING_NAME, n)), count=T,
                                  objective=system.voll)
            lp.add_entries(balance[n], shed, 1.0)

    # storage: dispatch columns and soc/upper rows interleave per snapshot
    for node, sto in system.storages:
        key = tech_key(sto.name, node)
        costs = sto.annual_costs(r)
        ratio = sto.fixed_energy_power_ratio
        c_dis = costs["dis"] + (ratio * costs["ene"] if ratio is not None else 0.0)
        Gdis = lp.add_columns(("Gdis", key), objective=c_dis)
        Gsto = lp.add_columns(("Gsto", key), objective=costs["sto"])
        if ratio is None:
            ene_cap = (lp.add_columns(("Gene", key), objective=costs["ene"]), -1.0)
        else:
            ene_cap = (Gdis, -ratio)
        gdis, gsto, gene = lp.add_columns(("gdis", key), ("gsto", key), ("gene", key),
                                          count=T)
        lp.add_entries(balance[node], gdis, 1.0)
        lp.add_entries(balance[node], gsto, -1.0)
        soc, up_dis, up_sto, up_ene = lp.add_rows(
            ("store-soc", key), ("store-upper", f"{key}+dis"),
            ("store-upper", f"{key}+sto"), ("store-upper", f"{key}+ene"),
            count=T, sense=("=", "<=", "<=", "<="))
        # state-of-charge recursion, wrapping from the last snapshot to the first
        lp.add_entries(soc, gene, 1.0)
        lp.add_entries(soc, np.roll(_positions(gene), 1), -sto.eta_standing)
        lp.add_entries(soc, gsto, -sto.eta_charge)
        lp.add_entries(soc, gdis, 1.0 / sto.eta_discharge)
        for up, col, (cap, coef) in ((up_dis, gdis, (Gdis, -1.0)),
                                     (up_sto, gsto, (Gsto, -1.0)), (up_ene, gene, ene_cap)):
            lp.add_entries(up, col, 1.0)
            lp.add_entries(up, cap, coef)

    # network: the upper and lower flow rows of a line interleave per snapshot
    for li, line in enumerate(system.lines):
        key = f"L{li}"
        f = lp.add_columns(("f", key), count=T, lower=-INF)
        lp.add_entries(balance[line.from_node], f, -1.0)
        lp.add_entries(balance[line.to_node], f, 1.0)
        if line.expandable:
            F = lp.add_columns(("F", key), lower=line.existing_capacity,
                               objective=line.annual_cost(r))
            rhs = (0.0, 0.0)
        else:
            rhs = (line.existing_capacity, line.reverse_capacity())
        up, lo = lp.add_rows(("line-upper", key), ("line-lower", key), count=T,
                             sense="<=", rhs=rhs)
        lp.add_entries(up, f, 1.0)
        lp.add_entries(lo, f, -1.0)
        if line.expandable:
            lp.add_entries(up, F, -1.0)
            lp.add_entries(lo, F, -1.0)

    if system.kvl:
        for ci, cyc in enumerate(cycle_basis(system.lines)):
            row = lp.add_rows(("kvl-cycle", f"c{ci}"), count=T, sense="=")
            for li, sign in sorted(cyc.items()):
                lp.add_entries(row, lp.col("f", f"L{li}"),
                               sign * system.lines[li].reactance)

    # policy rows
    if isinstance(support, SupportDispatched):
        row = lp.add_rows("vre-dispatched", sense=">=", rhs=support.energy_target(system))
        for node, spec in system.technologies:
            if spec.name in support_set:
                lp.add_entries(row, lp.col("g", tech_key(spec.name, node)), 1.0)
    elif isinstance(support, SupportAvailable):
        row = lp.add_rows("vre-available", sense=">=", rhs=support.energy_target(system))
        for node, spec in system.technologies:
            if spec.name in support_set:
                lp.add_entries(row, lp.col("G", tech_key(spec.name, node)),
                               spec.availability_sum(T))

    if isinstance(co2, Co2Cap):
        row = lp.add_rows("co2-cap", sense="<=", rhs=co2.cap)
        for node, spec in system.technologies:
            if spec.emission_factor > 0.0:
                lp.add_entries(row, lp.col("g", tech_key(spec.name, node)),
                               spec.emission_factor)

    lp.validate_structure()
    return lp


def relax(lp: LinearProgram, prices: dict) -> tuple:
    """(objective, rhs) of the Lagrangian relaxation of ``lp`` at ``prices``,
    ``{row position: μ >= 0}``: each listed inequality row is freed, its
    right-hand side +inf (``<=``) or -inf (``>=``), and the costs of its
    columns are raised by μ times their coefficients in it, negated for a
    ``>=`` row.  Raises :class:`FormulationError` on an ``=`` row.  The
    arrays are new; ``lp`` is not changed."""
    objective, rhs = lp.columns.objective.copy(), lp.rows.rhs.copy()
    e = lp.entries
    for row, mu in prices.items():
        sense = lp.rows.sense[row]
        if sense == "=":
            raise FormulationError(f"cannot relax equality row '{lp.row_names()[row]}'")
        rhs[row] = INF if sense == "<=" else -INF
        if mu:
            in_row = e.row == row
            cols = e.col[in_row]
            coef = np.bincount(cols, weights=e.value[in_row], minlength=len(objective))
            cols = np.unique(cols)
            objective[cols] += (mu if sense == "<=" else -mu) * coef[cols]
    return objective, rhs


def apply_equivalence_substitution(lp: LinearProgram, prices: dict) -> LinearProgram:
    """A copy of ``lp`` relaxed at ``prices`` (see :func:`relax`).  The copy
    has the rows and matrix of ``lp``, so it can be solved warm in the
    session that solved ``lp``."""
    out = lp.copy()
    out.columns.objective[:], out.rows.rhs[:] = relax(lp, prices)
    return out


# -- MPS interchange --------------------------------------------------------------

_OBJ_ROW = "COST"
_SENSE_TO_MPS = {"=": "E", "<=": "L", ">=": "G"}


def column_major(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                 n_cols: int) -> tuple:
    """CSC arrays ``(indptr, indices, data)`` of COO triplets: entries column
    by column, rows ascending within a column.  A repeated (row, col) pair
    is summed into one entry, kept even when it sums to 0.0 (the cyclic
    state-of-charge entry of a one-snapshot storage)."""
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(first)
    data = np.add.reduceat(values[order], starts) if len(starts) else np.empty(0)
    indptr = np.searchsorted(cols[starts], np.arange(n_cols + 1))
    return indptr, rows[starts], data


def write_mps(lp: LinearProgram, path) -> None:
    """Emit the LP in free-form MPS (ROWS, COLUMNS, RHS, RANGES, BOUNDS)."""
    col_names, row_names = lp.col_names(), lp.row_names()
    lines = ["NAME powermarket", "ROWS", f" N {_OBJ_ROW}"]
    lines += [f" {_SENSE_TO_MPS[s]} {name}"
              for s, name in zip(lp.rows.sense.tolist(), row_names)]
    lines.append("COLUMNS")
    e = lp.entries
    indptr, indices, data = (a.tolist() for a in column_major(
        e.row, e.col, e.value, len(lp.columns)))
    for j, (name, obj) in enumerate(zip(col_names, lp.columns.objective.tolist())):
        if obj != 0.0:
            lines.append(f" {name} {_OBJ_ROW} {obj!r}")
        lines += [f" {name} {row_names[indices[k]]} {data[k]!r}"
                  for k in range(indptr[j], indptr[j + 1])]
    lines.append("RHS")
    lines += [f" RHS {name} {rhs!r}"
              for name, rhs in zip(row_names, lp.rows.rhs.tolist()) if rhs != 0.0]
    lines.append("RANGES")
    lines.append("BOUNDS")
    for name, lower, upper in zip(col_names, lp.columns.lower.tolist(),
                                  lp.columns.upper.tolist()):
        if lower == 0.0 and upper == INF:
            continue
        if lower == -INF and upper == INF:
            lines.append(f" FR BND {name}")
            continue
        if lower != 0.0:
            if lower == -INF:
                lines.append(f" MI BND {name}")
            else:
                lines.append(f" LO BND {name} {lower!r}")
        if upper != INF:
            lines.append(f" UP BND {name} {upper!r}")
    lines.append("ENDATA")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
