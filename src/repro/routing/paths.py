"""Path and path-set interning.

A datacenter trace has millions of flows but only thousands of distinct
paths and path sets (every host pair in the same rack pair shares one).
Interning them gives (a) compact integer handles that the vectorized
inference kernels can index with, and (b) the memoization substrate the
paper's JLE counters rely on ("the effect on a flow's likelihood depends
only on the number of failed paths, not the specific failed links").

Two layers live here:

* :class:`PathTable` - the per-problem table of component paths that
  the problem's object views index with (local, first-seen ids).
* :class:`PathSpace` - the *global* interning space of the columnar
  trace pipeline: node paths, node path sets, and their component
  projections are assigned stable integer ids once per (topology,
  routing) pair and reused across every trace and telemetry build that
  shares it.  Host-pair path sets and their component projections are
  rows of int columns found by packed-key lookups, so resolving a
  trace's pairs, projecting their sets and gathering a problem's set
  stage are vectorized passes instead of a tuple hash per pair.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..errors import TopologyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..routing.ecmp import EcmpRouting
    from ..topology.base import Topology

ComponentPath = Tuple[int, ...]

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def first_seen_ids(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense ids for ``values``, numbered in first-appearance order.

    Returns ``(ordered_unique, ids)`` where ``ordered_unique[k]`` is
    the k-th distinct value to appear and ``ids[i]`` its number for row
    ``i``.  This reproduces the insertion order of a dict-based intern
    loop as one vectorized pass - the load-bearing equivalence between
    the columnar pipeline and the object pipeline's first-seen
    interning/grouping, so every call site shares this one
    implementation.
    """
    values = np.asarray(values)
    n = len(values)
    if n and values.dtype.kind in "iu" and int(values.min()) >= 0:
        span = int(values.max()) + 1
        if span <= 4 * n:
            # Dense ids (gsids, interior keys): each value's earliest
            # row by one ordered minimum reduction over a span-sized
            # table, then one argsort of the seen values' first rows.
            first = np.full(span, n, dtype=np.int64)
            np.minimum.at(first, values, np.arange(n, dtype=np.int64))
            seen = np.flatnonzero(first < n)
            ordered = seen[np.argsort(first[seen])]
            return _ranked(ordered, span, values)
        if span <= 1 << 16:
            # Sparse small ids: a uint16 radix argsort replaces the
            # comparison sort inside np.unique.  Stability makes each
            # run's first element the value's earliest row, which is
            # all first-seen order needs.
            order = np.argsort(values.astype(np.uint16), kind="stable")
            sv = values[order]
            boundary = np.empty(n, dtype=bool)
            boundary[0] = True
            np.not_equal(sv[1:], sv[:-1], out=boundary[1:])
            first_idx = order[boundary]
            ordered = sv[boundary][np.argsort(first_idx)]
            return _ranked(ordered, span, values)
    uniq, first_idx, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq), dtype=np.int64)
    return uniq[order], rank[inverse]


def _ranked(
    ordered: np.ndarray, span: int, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``first_seen_ids``' answer from its distinct values in order."""
    rank = np.empty(span, dtype=np.int64)
    rank[ordered] = np.arange(len(ordered), dtype=np.int64)
    return ordered.astype(values.dtype, copy=False), rank[values]


class PathTable:
    """Interning table for component-id paths.

    Each distinct canonical (sorted, de-duplicated) component tuple
    gets a dense integer id.
    """

    def __init__(self) -> None:
        self._paths: List[ComponentPath] = []
        self._index: Dict[ComponentPath, int] = {}

    def intern_canonical(self, key: ComponentPath) -> int:
        """Intern an already sorted, de-duplicated component tuple
        (the problem's views feed tuples straight from the global
        :class:`PathSpace`, canonical by construction)."""
        existing = self._index.get(key)
        if existing is not None:
            return existing
        path_id = len(self._paths)
        self._paths.append(key)
        self._index[key] = path_id
        return path_id

    def components(self, path_id: int) -> ComponentPath:
        return self._paths[path_id]

    def __len__(self) -> int:
        return len(self._paths)

    def __iter__(self):
        return iter(self._paths)


def _expand_slices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices covering [starts[i], starts[i]+lengths[i]) for every i."""
    ends = lengths.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.arange(total, dtype=np.int64)
    # One repeat of each slice's offset: start minus its output position.
    out += (starts - (ends - lengths)).repeat(lengths)
    return out


def _row_index(
    off: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(value positions, sub-offsets) of the CSR rows ``rows``, in order."""
    lens = off[rows + 1] - off[rows]
    sub_off = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lens, out=sub_off[1:])
    return _expand_slices(off[rows], lens), sub_off


def _gather_rows(
    values: np.ndarray, off: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sub-CSR (values, offsets) of the CSR rows ``rows``, in that order."""
    idx, sub_off = _row_index(off, rows)
    return values[idx], sub_off


def _first_rows(ids: np.ndarray, n_ids: int) -> np.ndarray:
    """Row of the first occurrence of each id in ``0..n_ids-1``."""
    first = np.empty(n_ids, dtype=np.int64)
    # Written back to front, so each id keeps its earliest row.
    first[ids[::-1]] = np.arange(len(ids) - 1, -1, -1, dtype=np.int64)
    return first


def _reserve(buf: np.ndarray, size: int) -> np.ndarray:
    """``buf`` if it holds ``size`` rows, else a copy with doubled room."""
    if size <= len(buf):
        return buf
    grown = np.empty((max(size, 2 * len(buf)),) + buf.shape[1:], dtype=buf.dtype)
    grown[: len(buf)] = buf
    return grown


class _Rows:
    """Append-only int64 table of fixed width, one row per dense id."""

    __slots__ = ("_buf", "n")

    def __init__(self, width: int) -> None:
        self._buf = np.empty((64, width), dtype=np.int64)
        self.n = 0

    def __getstate__(self):
        return self._buf[: self.n].copy()

    def __setstate__(self, state):
        self._buf = state
        self.n = len(state)

    def append(self, rows: np.ndarray) -> None:
        n = self.n
        self._buf = _reserve(self._buf, n + len(rows))
        self._buf[n:n + len(rows)] = rows
        self.n = n + len(rows)

    def __getitem__(self, ids) -> np.ndarray:
        """Rows of ``ids`` (an int or an int array); out of range raises."""
        return self._buf[: self.n][ids]

    def column(self, col: int, ids: np.ndarray) -> np.ndarray:
        return self._buf[: self.n, col][ids]


class _PackedMap:
    """Packed int64 keys -> int64 ids, answered by one ``searchsorted``."""

    __slots__ = ("_kv",)

    def __init__(self) -> None:
        self._kv = (_EMPTY_I64, _EMPTY_I64)

    def __getstate__(self):
        return self._kv

    def __setstate__(self, state):
        self._kv = state

    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        """(keys ascending, their ids)."""
        return self._kv

    def get(self, keys: np.ndarray) -> np.ndarray:
        """The id of each key, -1 where absent."""
        ks, vs = self._kv
        if len(ks) == 0:
            return np.full(len(keys), -1, dtype=np.int64)
        pos = np.searchsorted(ks, keys)
        np.minimum(pos, len(ks) - 1, out=pos)
        return np.where(ks[pos] == keys, vs[pos], -1)

    def insert(self, keys: np.ndarray, ids: np.ndarray) -> None:
        """Add distinct keys that are not in the map yet."""
        order = np.argsort(keys)
        ks, vs = self._kv
        at = np.searchsorted(ks, keys[order])
        self._kv = (
            np.insert(ks, at, keys[order]), np.insert(vs, at, ids[order])
        )


class _GrowableCSR:
    """Append-only CSR (int64 values by default) that grows by its
    newly appended tail.

    Rows land in capacity-doubling buffers, so appending k values costs
    O(k) amortized instead of re-converting every row held so far.
    :meth:`arrays` returns views of the filled prefix; an append never
    writes inside it, so views handed out earlier stay valid.
    """

    __slots__ = ("_flat", "_off", "n_rows")

    def __init__(self, dtype=np.int64) -> None:
        self._flat = np.empty(64, dtype=dtype)
        self._off = np.zeros(64, dtype=np.int64)
        self.n_rows = 0

    def __getstate__(self):
        flat, off = self.arrays()
        return flat.copy(), off.copy()

    def __setstate__(self, state):
        self._flat, self._off = state
        self.n_rows = len(self._off) - 1

    def append(self, values: np.ndarray, lens: np.ndarray) -> None:
        """Append ``len(lens)`` rows whose values concatenate to ``values``."""
        n = self.n_rows
        used = int(self._off[n])
        self._flat = _reserve(self._flat, used + len(values))
        self._off = _reserve(self._off, n + 1 + len(lens))
        self._flat[used:used + len(values)] = values
        tail = self._off[n + 1:n + 1 + len(lens)]
        np.cumsum(lens, out=tail)
        tail += used
        self.n_rows = n + len(lens)

    def append_rows(self, rows: Iterable[Sequence[int]]) -> None:
        """Append python int rows: one list-extend and one ``asarray``."""
        flat: List[int] = []
        lens: List[int] = []
        for row in rows:
            flat.extend(row)
            lens.append(len(row))
        self.append(
            np.asarray(flat, dtype=np.int64), np.asarray(lens, dtype=np.int64)
        )

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(values, offsets) views covering every appended row."""
        n = self.n_rows
        return self._flat[: self._off[n]], self._off[: n + 1]


def _int_objects(n: int) -> np.ndarray:
    """Object array of the ints ``0..n-1``, one shared object each."""
    out = np.empty(n, dtype=object)
    out[:] = range(n)
    return out


class _DenseCache:
    """A growable int64 array mapping dense ids to dense ids (-1 = miss).

    Batch-fill contract: :meth:`lookup` hands ``fill`` every distinct
    missed key at once, as an int64 array in first-seen order;
    ``fill`` returns one value per key and must intern in key order, so
    a batch creates exactly the ids - in exactly the order - that
    filling the same keys one at a time would.
    """

    __slots__ = ("_arr",)

    def __init__(self) -> None:
        self._arr = np.full(64, -1, dtype=np.int64)

    def gather(self, keys: np.ndarray) -> np.ndarray:
        """Cached values of ``keys`` (-1 for misses), without filling."""
        arr = self._arr
        out = np.full(len(keys), -1, dtype=np.int64)
        in_range = keys < len(arr)
        out[in_range] = arr[keys[in_range]]
        return out

    def store(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Record ``values`` (an array or list) for ``keys``."""
        if len(keys) == 0:
            return
        size = int(keys.max()) + 1
        arr = self._arr
        if size > len(arr):
            grown = np.full(max(size, 2 * len(arr)), -1, dtype=np.int64)
            grown[: len(arr)] = arr
            self._arr = arr = grown
        arr[keys] = values

    def lookup(self, keys: np.ndarray, fill) -> np.ndarray:
        """Vectorized gather; one ``fill(missed)`` call computes every
        distinct miss (see the class docstring)."""
        out = self.gather(keys)
        miss = out < 0
        if np.any(miss):
            missed = first_seen_ids(keys[miss])[0]
            self.store(missed, fill(missed))
            out = self.gather(keys)
        return out


# Columns of a node-set row, one row per sid.  A host-pair (factored)
# set fills every column; a plain set has -1 in all but its size.
_SRC, _DST, _SWITCH, _SRC_LINK, _DST_LINK, _SIZE = range(6)
# Columns of a component-set row, one row per gsid: the two endpoint
# components (ascending) and the interior gsid of a factored set; -1 in
# all three for a plain set.
_LO, _HI, _INTERIOR = range(3)


class PathSpace:
    """Global interning space for one (topology, routing) pair.

    Node paths get dense ids (*pids*), node path sets dense ids
    (*sids*), and their component projections dense ids (*gids* for a
    single component path, *gsids* for an ordered component path set).
    The projections are memoized per ``include_devices`` flag, so e.g.
    the INT build of a trace resolves every chosen path once and the
    A1/A2/P builds of the same trace find them already cached.

    Sets come in two kinds, both rows of int columns:

    * a *plain* set lists its members: pids for a node set, gids for a
      component set.  Plain sets are interned by member tuple.
    * a *factored* set is a host pair's ECMP set.  Every host pair of a
      rack pair shares one switch-level set (the *interior*); only the
      two host links differ.  A pair's node set is the row (src, dst,
      switch sid, src link, dst link, size), found by the packed key
      ``src * n_nodes + dst``; its component set is the row (endpoint
      comp lo, endpoint comp hi, interior gsid), found by a packed key
      of the same three values.  Members materialize only on demand.

    The space is owned by a trace's :class:`~repro.types.FlowBatch` and
    shared by every telemetry/problem build of that trace; all ids are
    stable for the lifetime of the space, which is what lets the runner
    reuse them across traces of the same (topology, telemetry spec).
    A space takes no lock, so one thread at a time may use it; the
    runner's pool workers are processes, each with its own copy.
    """

    def __init__(self, topology: "Topology", routing: "EcmpRouting") -> None:
        self.topology = topology
        # The routing's switch-level enumerator, not the routing itself:
        # the routing holds this space, so a back-reference would make
        # a cycle that only a full garbage collection frees.
        self._switch_paths = None if routing is None else routing.switch_level
        # Node paths.
        self._paths: List[Tuple[int, ...]] = []
        self._path_index: Dict[Tuple[int, ...], int] = {}
        # Node path sets (rows: _SRC.._SIZE).  Plain sets keep their
        # pids here; factored sets land here once materialized.
        self._set_rows = _Rows(6)
        self._set_pids: Dict[int, np.ndarray] = {}
        self._set_index: Dict[Tuple[int, ...], int] = {}
        self._pair_sid = _PackedMap()
        self._rack_pair_sid = _PackedMap()
        # (rack, host link) of every node, -1 for non-hosts; on first use.
        self._host_cols: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # Component projections (shared id space across device flags).
        self._comp_paths: List[ComponentPath] = []
        self._comp_index: Dict[ComponentPath, int] = {}
        # Component path sets (rows: _LO, _HI, _INTERIOR).  Members of
        # plain sets form one CSR over every gsid (factored rows are
        # empty); factored sets expand into ``_cset_full`` on demand.
        self._cset_rows = _Rows(3)
        self._cset_members = _GrowableCSR()
        self._cset_index: Dict[Tuple[int, ...], int] = {}
        self._factored_gsid = _PackedMap()
        self._cset_full: Dict[int, np.ndarray] = {}
        # Sorted component union of a plain comp set (an interior or an
        # exact path's set), a CSR row per set, memoized on first use,
        # and beside it each component's member count (int32).
        self._union_row = _DenseCache()
        self._unions = _GrowableCSR()
        self._union_counts = _GrowableCSR(np.int32)
        # One int object per component id (an object array): projection
        # keys gathered from it share their elements instead of each
        # holding fresh ints.
        self._comp_ints = _int_objects(topology.n_components)
        # Dense memo arrays, one trio per include_devices flag.
        self._pid_gid = (_DenseCache(), _DenseCache())
        self._pid_gsid = (_DenseCache(), _DenseCache())
        self._sid_gsid = (_DenseCache(), _DenseCache())
        # Per-pid link ids and per-gid component ids as CSRs, grown
        # lazily (see :meth:`link_csr` / :meth:`comp_csr`).
        self._link_csr = _GrowableCSR()
        self._cc_csr = _GrowableCSR()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_comp_ints"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._comp_ints = _int_objects(self.topology.n_components)

    # ------------------------------------------------------------------
    # Node paths and path sets
    # ------------------------------------------------------------------
    @property
    def n_paths(self) -> int:
        return len(self._paths)

    @property
    def n_sets(self) -> int:
        return self._set_rows.n

    def intern_path(self, nodes: Sequence[int]) -> int:
        key = tuple(nodes)
        pid = self._path_index.get(key)
        if pid is None:
            pid = len(self._paths)
            self._paths.append(key)
            self._path_index[key] = pid
        return pid

    def path_nodes(self, pid: int) -> Tuple[int, ...]:
        return self._paths[pid]

    def intern_set(self, paths: Sequence[Sequence[int]]) -> int:
        """Intern an *ordered* sequence of node paths as a plain set;
        order is preserved (the simulator's per-set ECMP choice indexes
        into it)."""
        pids = tuple(self.intern_path(p) for p in paths)
        sid = self._set_index.get(pids)
        if sid is None:
            sid = self.n_sets
            row = np.full((1, 6), -1, dtype=np.int64)
            row[0, _SIZE] = len(pids)
            self._append_sets(row, [pids])
        return sid

    def _append_sets(
        self, rows: np.ndarray, plain: Sequence[Tuple[int, ...]]
    ) -> None:
        """Store the sets ``n_sets, n_sets + 1, ...``; callers pass only
        sets new to the space.

        ``rows`` are in set-row layout; the plain rows (switch -1) take
        their pid tuples from ``plain``, in order: plain sets land in
        the pid-tuple index, pair sets in the packed pair map.
        """
        n0 = self.n_sets
        is_plain = rows[:, _SWITCH] < 0
        for sid, pids in zip((n0 + np.flatnonzero(is_plain)).tolist(), plain):
            self._set_pids[sid] = np.asarray(pids, dtype=np.int64)
            self._set_index[pids] = sid
        self._set_rows.append(rows)
        pairs = rows[~is_plain]
        if len(pairs):
            self._pair_sid.insert(
                pairs[:, _SRC] * np.int64(self.topology.n_nodes) + pairs[:, _DST],
                n0 + np.flatnonzero(~is_plain),
            )

    def set_path_ids(self, sid: int) -> np.ndarray:
        """Path ids of a node path set, in interned order.

        Factored pair sets materialize (and intern) their member paths
        on first access; the hot pipeline never calls this for them.
        """
        pids = self._set_pids.get(sid)
        if pids is None:
            src, dst, switch = self._set_rows[sid][[_SRC, _DST, _SWITCH]].tolist()
            key = tuple(
                self.intern_path((src,) + self._paths[mid] + (dst,))
                for mid in self._set_pids[switch].tolist()
            )
            self._set_index.setdefault(key, sid)
            pids = np.asarray(key, dtype=np.int64)
            self._set_pids[sid] = pids
        return pids

    def set_is_factored(self, sid: int) -> bool:
        return bool(self._set_rows[sid][_SWITCH] >= 0)

    def set_size(self, sid: int) -> int:
        """Member count of a set, without materializing factored sets."""
        return int(self._set_rows[sid][_SIZE])

    def set_sizes(self, sids: np.ndarray) -> np.ndarray:
        """:meth:`set_size` of every sid, one gather."""
        return self._set_rows.column(_SIZE, sids)

    def pair_set_columns(
        self, sids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(switch-level sid, src host link, dst host link) of each
        sid, -1 in all three for a plain set."""
        rows = self._set_rows[sids]
        return rows[:, _SWITCH], rows[:, _SRC_LINK], rows[:, _DST_LINK]

    def member_pids(self, sid: int, choice: np.ndarray) -> np.ndarray:
        """Path ids of the chosen members of a set.

        For factored sets only the chosen members are interned (the
        simulator picks one path per flow, so a trace materializes at
        most one full node path per flow instead of the whole ~w-wide
        candidate set per pair).
        """
        pids = self._set_pids.get(sid)
        if pids is not None:
            return pids[choice]
        src, dst, switch = self._set_rows[sid][[_SRC, _DST, _SWITCH]].tolist()
        middles = self._set_pids[switch]
        paths = self._paths
        mapping = {
            int(j): self.intern_path(
                (src,) + paths[int(middles[int(j)])] + (dst,)
            )
            for j in np.unique(choice).tolist()
        }
        return np.fromiter(
            (mapping[j] for j in choice.tolist()),
            dtype=np.int64,
            count=len(choice),
        )

    def pair_set(self, src: int, dst: int) -> int:
        """The ECMP path set of one host pair (see :meth:`pair_sets`)."""
        return int(self.pair_sets(
            np.asarray([src], dtype=np.int64), np.asarray([dst], dtype=np.int64)
        )[0])

    def pair_sets(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """The ECMP path set of each host pair of aligned host arrays,
        interned *factored*.

        A pair's set is one row (src, dst, switch-level sid, host links,
        size): every host pair of a rack pair shares one switch-level
        set, so a pair costs O(1) instead of O(paths).  Member order
        equals :meth:`EcmpRouting.host_paths` order exactly.  Known
        pairs resolve with one packed-key lookup; new pairs intern in
        ascending packed-key order (see :meth:`_intern_pairs`).
        """
        if len(src) == 0:
            return np.empty(0, dtype=np.int64)
        packed = src.astype(np.int64) * np.int64(self.topology.n_nodes) + dst
        uniq, inverse = np.unique(packed, return_inverse=True)
        sids = self._pair_sid.get(uniq)
        new = sids < 0
        if np.any(new):
            sids[new] = self._intern_pairs(uniq[new])
        return sids[inverse]

    def _host_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """(rack, host link) of every node id, -1 for non-hosts and in
        one trailing entry."""
        cols = self._host_cols
        if cols is None:
            topo = self.topology
            rack = np.full(topo.n_nodes + 1, -1, dtype=np.int64)
            link = np.full(topo.n_nodes + 1, -1, dtype=np.int64)
            for host in topo.hosts:
                rack[host] = topo.rack_of(host)
                link[host] = topo.link_id(host, int(rack[host]))
            self._host_cols = cols = (rack, link)
        return cols

    def _intern_pairs(self, keys: np.ndarray) -> np.ndarray:
        """Intern the pair sets of new, ascending packed pair keys.

        Numbering is that of one pair at a time in key order: a rack
        pair new to the space interns its switch-level set (a plain set)
        just before its first pair.  Only those rack pairs run Python;
        every pair row is written by array passes.
        """
        n_nodes = self.topology.n_nodes
        src, dst = np.divmod(keys, n_nodes)
        rack, link = self._host_columns()
        # Index -1 is the trailing non-host entry, for out-of-range ids.
        src_rack = rack[np.where((src >= 0) & (src < n_nodes), src, -1)]
        dst_rack = rack[dst]
        bad = (src_rack < 0) | (dst_rack < 0)
        if np.any(bad):
            row = int(np.argmax(bad))
            node = src[row] if src_rack[row] < 0 else dst[row]
            raise TopologyError(f"node {int(node)} is not a host")
        rack_keys, rack_of_pair = first_seen_ids(src_rack * n_nodes + dst_rack)
        switch = self._rack_pair_sid.get(rack_keys)
        first = _first_rows(rack_of_pair, len(rack_keys))
        new_racks = np.flatnonzero(switch < 0)
        n0 = self.n_sets
        # opens[i] = 1 where a new switch-level set precedes pair i.
        opens = np.zeros(len(keys), dtype=np.int64)
        fresh: Dict[Tuple[int, ...], int] = {}
        for r in new_racks.tolist():
            a, b = divmod(int(rack_keys[r]), n_nodes)
            pids = tuple(
                self.intern_path(p) for p in self._switch_paths.get(a, b)
            )
            sid = self._set_index.get(pids, fresh.get(pids))
            if sid is None:
                sid = fresh[pids] = n0 + int(first[r]) + len(fresh)
                opens[first[r]] = 1
            switch[r] = sid
        pair_sids = n0 + np.arange(len(keys), dtype=np.int64) + np.cumsum(opens)
        pair_switch = switch[rack_of_pair]
        block = np.full((len(keys) + len(fresh), 6), -1, dtype=np.int64)
        block[
            np.fromiter(fresh.values(), dtype=np.int64, count=len(fresh)) - n0,
            _SIZE,
        ] = [len(pids) for pids in fresh]
        known = pair_switch < n0
        sizes = np.empty(len(keys), dtype=np.int64)
        sizes[known] = self._set_rows.column(_SIZE, pair_switch[known])
        sizes[~known] = block[pair_switch[~known] - n0, _SIZE]
        block[pair_sids - n0] = np.column_stack(
            (src, dst, pair_switch, link[src], link[dst], sizes)
        )
        self._append_sets(block, list(fresh))
        self._rack_pair_sid.insert(rack_keys[new_racks], switch[new_racks])
        return pair_sids

    # ------------------------------------------------------------------
    # Component projections
    # ------------------------------------------------------------------
    @property
    def n_comp_paths(self) -> int:
        return len(self._comp_paths)

    @property
    def n_comp_sets(self) -> int:
        return self._cset_rows.n

    def intern_components(self, components: Sequence[int]) -> int:
        key = tuple(sorted(set(components)))
        gid = self._comp_index.get(key)
        if gid is None:
            gid = len(self._comp_paths)
            self._comp_paths.append(key)
            self._comp_index[key] = gid
        return gid

    def comp_path(self, gid: int) -> ComponentPath:
        """Sorted, de-duplicated component tuple of one component path."""
        return self._comp_paths[gid]

    def intern_comp_set(self, gids: Sequence[int]) -> int:
        """Intern an ordered component-path sequence as a plain set."""
        key = tuple(gids)
        gsid = self._cset_index.get(key)
        if gsid is None:
            gsid = int(self._intern_plain_sets([key])[0])
        return gsid

    def _find_plain_sets(
        self, keys: Sequence[Tuple[int, ...]]
    ) -> Tuple[np.ndarray, List[Tuple[int, ...]]]:
        """gsid of each plain member tuple, or ``-1 - j`` for the j-th
        distinct tuple new to the space; also the new tuples, in order."""
        index = self._cset_index
        fresh: Dict[Tuple[int, ...], int] = {}
        out = np.empty(len(keys), dtype=np.int64)
        for row, key in enumerate(keys):
            gsid = index.get(key)
            if gsid is None:
                gsid = -1 - fresh.setdefault(key, len(fresh))
            out[row] = gsid
        return out, list(fresh)

    def _intern_plain_sets(self, keys: Sequence[Tuple[int, ...]]) -> np.ndarray:
        """gsid of each plain member tuple, interning new ones in order
        with one append."""
        gsids, fresh = self._find_plain_sets(keys)
        if fresh:
            new = gsids < 0
            gsids[new] = self.n_comp_sets - 1 - gsids[new]
            self._append_comp_sets(
                np.full((len(fresh), 3), -1, dtype=np.int64), fresh
            )
        return gsids

    def _factored_keys(
        self, interior: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Packed map key of factored comp sets (interior, lo, hi)."""
        span = np.int64(self.topology.n_components)
        return (interior * span + lo) * span + hi

    def _append_comp_sets(
        self, rows: np.ndarray, plain: Sequence[Tuple[int, ...]]
    ) -> None:
        """Store the comp sets ``n_comp_sets, ...``; callers pass only
        sets new to the space.

        ``rows`` are in comp-set-row layout; the plain rows (interior
        -1) take their member tuples from ``plain``, in order: plain
        sets land in the member-tuple index, factored sets in the
        packed key map.
        """
        n0 = self.n_comp_sets
        is_plain = rows[:, _INTERIOR] < 0
        lens = np.zeros(len(rows), dtype=np.int64)
        lens[is_plain] = [len(key) for key in plain]
        self._cset_members.append(
            np.fromiter(
                chain.from_iterable(plain), dtype=np.int64, count=int(lens.sum())
            ),
            lens,
        )
        self._cset_rows.append(rows)
        for gsid, key in zip((n0 + np.flatnonzero(is_plain)).tolist(), plain):
            self._cset_index[key] = gsid
        factored = rows[~is_plain]
        if len(factored):
            self._factored_gsid.insert(
                self._factored_keys(
                    factored[:, _INTERIOR], factored[:, _LO], factored[:, _HI]
                ),
                n0 + np.flatnonzero(~is_plain),
            )

    def comp_set(self, gsid: int) -> np.ndarray:
        """Component-path ids of one component path set (ordered, with
        multiplicity - two ECMP node paths may share a projection).

        Factored sets expand lazily: each member's full projection is
        the (disjoint) union of the endpoint comps and one interior
        projection.  Only adapters and lazy object views call this for
        factored sets; a problem build gathers
        :meth:`comp_set_columns` and the interior's members instead.
        """
        lo, hi, interior = self._cset_rows[gsid].tolist()
        if interior < 0:
            return self.comp_set_members(np.asarray([gsid]))[0]
        full = self._cset_full.get(gsid)
        if full is None:
            members = self.comp_set(interior)
            full = np.fromiter(
                (
                    self.intern_components((lo, hi) + self._comp_paths[g])
                    for g in members.tolist()
                ),
                dtype=np.int64,
                count=len(members),
            )
            self._cset_full[gsid] = full
        return full

    def comp_set_is_factored(self, gsid: int) -> bool:
        return bool(self._cset_rows[gsid][_INTERIOR] >= 0)

    def comp_set_columns(
        self, gsids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(endpoint comp lo, endpoint comp hi, interior gsid) of each
        gsid, -1 in all three for a plain set.

        A factored set's members are the interior's members, each
        extended by both endpoint comps, which lie on every member path
        and on no interior projection.
        """
        rows = self._cset_rows[gsids]
        return rows[:, _LO], rows[:, _HI], rows[:, _INTERIOR]

    def comp_set_members(self, gsids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Member gids of plain comp sets, as a (values, offsets) CSR in
        ``gsids`` order (a factored set's row is empty)."""
        return _gather_rows(*self._cset_members.arrays(), gsids)

    def comp_set_unions(
        self, gsids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted component union of each plain comp set's members, as a
        (values, counts, offsets) CSR in ``gsids`` order.

        ``counts`` (int32) is aligned with ``values``: how many member
        paths of the set - repeated members counted each time - hold
        that component.  This is exactly the (component, count) list
        the JLE Δ prices when no member has failed.

        Union and counts are a pure function of the gsid, so the space
        memoizes both: the first request sorts the unions of every gsid
        it misses in one batched pass, later ones gather.  Problem
        builds ask for their interiors, bounded by rack pairs per
        device flag.
        """
        rows = self._union_row.lookup(gsids, self._fill_unions)
        flat, off = self._unions.arrays()
        counts = self._union_counts.arrays()[0]
        idx, sub_off = _row_index(off, rows)
        return flat[idx], counts[idx], sub_off

    def _fill_unions(self, missed: np.ndarray) -> np.ndarray:
        members, m_off = self.comp_set_members(missed)
        cc_flat, cc_off = self.comp_csr()
        lens = cc_off[members + 1] - cc_off[members]
        comps = cc_flat[_expand_slices(cc_off[members], lens)]
        owner = np.repeat(
            np.repeat(np.arange(len(missed), dtype=np.int64), np.diff(m_off)),
            lens,
        )
        # The space projects from its own topology, so its component
        # ids are below that topology's count.  A run of equal sorted
        # keys is one component of one set; its length is the count.
        span = np.int64(self.topology.n_components)
        keys = np.sort(owner * span + comps)
        run = np.empty(len(keys), dtype=bool)
        run[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=run[1:])
        starts = np.flatnonzero(run)
        counts = np.diff(np.append(starts, len(keys))).astype(np.int32)
        keys = keys[starts]
        row_lens = np.bincount(keys // span, minlength=len(missed))
        first = self._unions.n_rows
        self._unions.append(keys % span, row_lens)
        self._union_counts.append(counts, row_lens)
        return np.arange(first, first + len(missed), dtype=np.int64)

    def _intern_projections(
        self, pids: np.ndarray, include_devices: bool
    ) -> List[int]:
        """Project node paths in one batch and intern the results in
        ``pids`` order.  The gids returned are the int objects the index
        holds, so keys built from them share those objects."""
        paths = self._paths
        flat, off = self.topology.paths_components(
            [paths[pid] for pid in pids.tolist()], include_devices
        )
        comps = self._comp_ints[flat].tolist()
        bounds = off.tolist()
        comp_paths = self._comp_paths
        index = self._comp_index
        gids = []
        for key in map(tuple, map(comps.__getitem__,
                                  map(slice, bounds[:-1], bounds[1:]))):
            gid = index.get(key)
            if gid is None:
                gid = len(comp_paths)
                comp_paths.append(key)
                index[key] = gid
            gids.append(gid)
        return gids

    def path_gids(self, pids: np.ndarray, include_devices: bool) -> np.ndarray:
        """Component-path id of each node path (vectorized, memoized).

        Every distinct missed pid is projected in one
        :meth:`Topology.paths_components` pass, and new projections are
        interned in first-seen pid order - the ids a one-path-at-a-time
        fill would assign.
        """
        return self._pid_gid[int(include_devices)].lookup(
            pids, lambda missed: self._intern_projections(missed, include_devices)
        )

    def exact_gsids(self, pids: np.ndarray, include_devices: bool) -> np.ndarray:
        """Component path-*set* id of each exactly-known node path.

        The distinct missed pids project in one batch; their
        one-member comp sets then intern in first-seen pid order.
        """
        def fill(missed: np.ndarray) -> np.ndarray:
            gids = self._intern_projections(missed, include_devices)
            return self._intern_plain_sets([(gid,) for gid in gids])

        return self._pid_gsid[int(include_devices)].lookup(pids, fill)

    def set_gsids(self, sids: np.ndarray, include_devices: bool) -> np.ndarray:
        """Component path-set id of each node path set.

        A plain set projects to the plain comp set of its members'
        projections.  A factored pair set projects to a *factored* comp
        set: its two host links plus the projection of its rack pair's
        switch-level set (its interior), so a pair costs O(1) once its
        rack pair has been seen.

        Batch fill: the interiors (and plain sets) that no earlier fill
        projected are the only per-item Python work - their members
        project in one :meth:`path_gids` call, and each projects to a
        member tuple.  Every other step is an array pass over the
        missed sids.  New comp sets are numbered as a one-set-at-a-time
        fill in miss order numbered them: at a set's row, first its
        interior if that is new to the space, then its factored key if
        that is new - checkpoint resume and drift detection rely on
        this order.  An exclusive cumsum over per-row "opens an
        interior" and "opens a key" flags assigns those ids.
        """
        cache = self._sid_gsid[int(include_devices)]

        def fill(missed: np.ndarray) -> np.ndarray:
            rows = self._set_rows[missed]
            factored = rows[:, _SWITCH] >= 0
            inner = np.where(factored, rows[:, _SWITCH], missed)
            inner_ids, inner_of_row = first_seen_ids(inner)
            inner_gsid = cache.gather(inner_ids)
            first = _first_rows(inner_of_row, len(inner_ids))
            n_rows = len(missed)
            opens_interior = np.zeros(n_rows, dtype=np.int64)
            # Interiors new to this flag: a known member tuple gives its
            # gsid now, a new one the placeholder -1 - j, j in row order.
            todo = np.flatnonzero(inner_gsid < 0)
            fresh: List[Tuple[int, ...]] = []
            if len(todo):
                members = [
                    self._set_pids[sid] for sid in inner_ids[todo].tolist()
                ]
                gids = self.path_gids(
                    np.concatenate(members), include_devices
                ).tolist()
                bounds = np.cumsum([0] + [len(m) for m in members]).tolist()
                found, fresh = self._find_plain_sets(
                    [tuple(gids[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
                )
                inner_gsid[todo] = found
                new = np.flatnonzero(found < 0)
                opener = new[_first_rows(-1 - found[new], len(fresh))]
                opens_interior[first[todo[opener]]] = 1
            row_inner = inner_gsid[inner_of_row]
            # Factored rows group by (interior, endpoint comps); shifting
            # placeholders by len(fresh) keeps the packed keys distinct.
            frows = np.flatnonzero(factored)
            src_link = rows[frows, _SRC_LINK]
            dst_link = rows[frows, _DST_LINK]
            lo = np.minimum(src_link, dst_link)
            hi = np.maximum(src_link, dst_link)
            f_inner = row_inner[frows]
            key_vals, key_of_frow = first_seen_ids(
                self._factored_keys(f_inner + len(fresh), lo, hi)
            )
            key_first = _first_rows(key_of_frow, len(key_vals))
            key_gsid = np.full(len(key_vals), -1, dtype=np.int64)
            # Only a key whose interior is known can be in the map.
            known = f_inner[key_first] >= 0
            kf = key_first[known]
            key_gsid[known] = self._factored_gsid.get(
                self._factored_keys(f_inner[kf], lo[kf], hi[kf])
            )
            new_keys = np.flatnonzero(key_gsid < 0)
            new_first = key_first[new_keys]
            key_rows = frows[new_first]
            opens_key = np.zeros(n_rows, dtype=np.int64)
            opens_key[key_rows] = 1
            opened = opens_interior + opens_key
            before = self.n_comp_sets + np.cumsum(opened) - opened
            if fresh:
                interior_ids = before[np.flatnonzero(opens_interior)]
                placeholder = inner_gsid < 0
                inner_gsid[placeholder] = interior_ids[-1 - inner_gsid[placeholder]]
                row_inner = inner_gsid[inner_of_row]
            key_gsid[new_keys] = before[key_rows] + opens_interior[key_rows]
            block = np.full((int(opened.sum()), 3), -1, dtype=np.int64)
            block[key_gsid[new_keys] - self.n_comp_sets] = np.column_stack(
                (lo[new_first], hi[new_first], row_inner[key_rows])
            )
            if len(block):
                self._append_comp_sets(block, fresh)
            cache.store(inner_ids[todo], inner_gsid[todo])
            out = row_inner.copy()
            out[frows] = key_gsid[key_of_frow]
            return out

        return cache.lookup(sids, fill)

    # ------------------------------------------------------------------
    # Per-path link ids (used by the vectorized simulator and latency
    # model: drop probabilities and flap crossings are per-pid facts).
    # ------------------------------------------------------------------
    def path_link_ids(self, pid: int) -> Tuple[int, ...]:
        """Link ids along a node path, hop by hop (with multiplicity)."""
        nodes = self._paths[pid]
        link_id = self.topology.link_id
        return tuple(link_id(u, v) for u, v in zip(nodes, nodes[1:]))

    def comp_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of component ids per component path, covering every gid.

        The columnar problem builder gathers local path tables straight
        out of these arrays instead of iterating component tuples; only
        gids interned since the previous call are converted.
        """
        csr = self._cc_csr
        if csr.n_rows < len(self._comp_paths):
            csr.append_rows(self._comp_paths[csr.n_rows:])
        return csr.arrays()

    def link_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of link ids per node path, covering every interned pid.

        Link ids are pure topology facts, so the CSR is grown once per
        new path and reused across traces - the simulator computes all
        per-path drop probabilities of a trace with one vectorized
        reduce over it.
        """
        csr = self._link_csr
        n = len(self._paths)
        if csr.n_rows < n:
            csr.append_rows(
                self.path_link_ids(pid) for pid in range(csr.n_rows, n)
            )
        return csr.arrays()

    def paths_cross_links(
        self, pids: np.ndarray, links: Iterable[int]
    ) -> np.ndarray:
        """Boolean per pid in ``pids``: does the path cross any of
        ``links``?  One whole-array pass over the link CSR."""
        link_arr = np.asarray(sorted(set(links)), dtype=np.int64)
        if len(link_arr) == 0 or len(pids) == 0:
            return np.zeros(len(pids), dtype=bool)
        flat_links, link_off = self.link_csr()
        crossed = np.zeros(len(link_off) - 1, dtype=bool)
        nonempty = np.diff(link_off) > 0
        if len(flat_links) and np.any(nonempty):
            hit = np.isin(flat_links, link_arr).astype(np.int64)
            crossed[nonempty] = (
                np.add.reduceat(hit, link_off[:-1][nonempty]) > 0
            )
        return crossed[pids]
