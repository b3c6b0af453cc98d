"""Path and path-set interning.

A datacenter trace has millions of flows but only thousands of distinct
paths and path sets (every host pair in the same rack pair shares one).
Interning them gives (a) compact integer handles that the vectorized
inference kernels can index with, and (b) the memoization substrate the
paper's JLE counters rely on ("the effect on a flow's likelihood depends
only on the number of failed paths, not the specific failed links").

Two layers live here:

* :class:`PathTable` / :class:`PathSetTable` - the per-problem interning
  tables the inference kernels index with (local, first-seen ids).
* :class:`PathSpace` - the *global* interning space of the columnar
  trace pipeline: node paths, node path sets, and their component
  projections are assigned stable integer ids once per (topology,
  routing) pair and reused across every trace and telemetry build that
  shares it.  All hot lookups are dense numpy array gathers, so the
  per-flow cost of path handling is a vectorized index instead of a
  tuple hash.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

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
        if span <= 1 << 16:
            # Dense small ids (interned path/set handles): a uint16
            # radix argsort replaces the comparison sort inside
            # np.unique.  Stability makes each run's first element the
            # value's earliest row, which is all first-seen order needs.
            order = np.argsort(values.astype(np.uint16), kind="stable")
            sv = values[order]
            boundary = np.empty(n, dtype=bool)
            boundary[0] = True
            np.not_equal(sv[1:], sv[:-1], out=boundary[1:])
            first_idx = order[boundary]
            seen_order = np.argsort(first_idx)
            ordered = sv[boundary][seen_order]
            rank = np.empty(span, dtype=np.int64)
            rank[ordered] = np.arange(len(ordered), dtype=np.int64)
            return ordered.astype(values.dtype, copy=False), rank[values]
    uniq, first_idx, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq), dtype=np.int64)
    return uniq[order], rank[inverse]


class PathTable:
    """Interning table for component-id paths.

    Each distinct sorted component tuple gets a dense integer id.
    """

    def __init__(self) -> None:
        self._paths: List[ComponentPath] = []
        self._index: Dict[ComponentPath, int] = {}

    def intern(self, components: Sequence[int]) -> int:
        """Return the id for this component set, creating it if new."""
        return self.intern_canonical(tuple(sorted(set(components))))

    def intern_canonical(self, key: ComponentPath) -> int:
        """Intern an already sorted, de-duplicated component tuple.

        The columnar problem builder feeds tuples straight from the
        global :class:`PathSpace` (canonical by construction), skipping
        the per-path re-sort of :meth:`intern`.
        """
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


class PathSetTable:
    """Interning table for path sets (tuples of path ids)."""

    def __init__(self) -> None:
        self._sets: List[Tuple[int, ...]] = []
        self._index: Dict[Tuple[int, ...], int] = {}

    def intern(self, path_ids: Iterable[int]) -> int:
        key = tuple(sorted(path_ids))
        existing = self._index.get(key)
        if existing is not None:
            return existing
        set_id = len(self._sets)
        self._sets.append(key)
        self._index[key] = set_id
        return set_id

    def paths(self, set_id: int) -> Tuple[int, ...]:
        return self._sets[set_id]

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self):
        return iter(self._sets)


class _FactoredSet:
    """A host-pair path set stored without materializing its paths.

    Every host pair in the same rack pair shares one switch-level path
    set (``switch_sid``); only the two endpoint hops differ.  Member
    node paths are ``(src,) + switch_path + (dst,)`` in switch-set
    order - exactly what :meth:`EcmpRouting.host_paths` enumerates - but
    they are interned lazily (:meth:`PathSpace.set_path_ids`) or one
    member at a time (:meth:`PathSpace.member_pids`), so a paper-scale
    trace never pays for the ~w paths x ~400K pairs expansion.
    """

    __slots__ = ("src", "dst", "switch_sid", "src_link", "dst_link", "pids")

    def __init__(self, src: int, dst: int, switch_sid: int,
                 src_link: int, dst_link: int) -> None:
        self.src = src
        self.dst = dst
        self.switch_sid = switch_sid
        self.src_link = src_link
        self.dst_link = dst_link
        self.pids: Optional[np.ndarray] = None

    def __getstate__(self):
        return (self.src, self.dst, self.switch_sid,
                self.src_link, self.dst_link, self.pids)

    def __setstate__(self, state):
        (self.src, self.dst, self.switch_sid,
         self.src_link, self.dst_link, self.pids) = state


class _FactoredCompSet:
    """A component path set stored as endpoint comps + a shared interior.

    ``ecomps`` are the component ids on *every* member path (the two
    host links of the pair); ``switch_gsid`` is the component path-set
    id of the rack pair's switch-level projections, shared by all host
    pairs of the rack pair.  Full member projections materialize lazily
    (:meth:`PathSpace.comp_set`); the compressed problem build consumes
    the parts directly (:meth:`PathSpace.comp_set_parts`).
    """

    __slots__ = ("ecomps", "switch_gsid", "gids")

    def __init__(self, ecomps: np.ndarray, switch_gsid: int) -> None:
        self.ecomps = ecomps
        self.switch_gsid = switch_gsid
        self.gids: Optional[np.ndarray] = None

    def __getstate__(self):
        return (self.ecomps, self.switch_gsid, self.gids)

    def __setstate__(self, state):
        self.ecomps, self.switch_gsid, self.gids = state


def _reserve(buf: np.ndarray, size: int) -> np.ndarray:
    """``buf`` if it holds ``size`` entries, else a copy with doubled room."""
    if size <= len(buf):
        return buf
    grown = np.empty(max(size, 2 * len(buf)), dtype=buf.dtype)
    grown[: len(buf)] = buf
    return grown


class _GrowableCSR:
    """Append-only int64 CSR that grows by its newly appended tail.

    Rows land in capacity-doubling buffers, so appending k values costs
    O(k) amortized instead of re-converting every row held so far.
    :meth:`arrays` returns views of the filled prefix; an append never
    writes inside it, so views handed out earlier stay valid.  Not
    thread-safe on its own: shared owners append under their lock.
    """

    __slots__ = ("_flat", "_off", "n_rows")

    def __init__(self) -> None:
        self._flat = np.empty(64, dtype=np.int64)
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
    missed key at once, as an int64 array in first-seen order, under the
    owning space's lock; ``fill`` returns one value per key and must
    intern in key order, so a batch creates exactly the ids - in
    exactly the order - that filling the same keys one at a time
    would.  Reads never mutate; concurrent readers at worst see a stale
    array and recompute under the lock, where the fill finds its keys
    already interned (fills are pure functions of stable ids).
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
        """Record ``values`` (an array or list) for ``keys``; callers
        hold the owner's lock."""
        if len(keys) == 0:
            return
        size = int(keys.max()) + 1
        arr = self._arr
        if size > len(arr):
            grown = np.full(max(size, 2 * len(arr)), -1, dtype=np.int64)
            grown[: len(arr)] = arr
            self._arr = arr = grown
        arr[keys] = values

    def lookup(self, keys: np.ndarray, fill, lock) -> np.ndarray:
        """Vectorized gather; one ``fill(missed)`` call computes every
        distinct miss (see the class docstring)."""
        out = self.gather(keys)
        if np.any(out < 0):
            with lock:
                out = self.gather(keys)
                missed = keys[out < 0]
                if len(missed):
                    missed = first_seen_ids(missed)[0]
                    self.store(missed, fill(missed))
                    out = self.gather(keys)
        return out


class PathSpace:
    """Global interning space for one (topology, routing) pair.

    Node paths get dense ids (*pids*), node path sets dense ids
    (*sids*), and their component projections dense ids (*gids* for a
    single component path, *gsids* for an ordered component path set).
    The projections are memoized per ``include_devices`` flag, so e.g.
    the INT build of a trace resolves every chosen path once and the
    A1/A2/P builds of the same trace find them already cached - the
    array-level analogue of the object pipeline's
    :class:`~repro.telemetry.inputs.PathMemo`.

    The space is owned by a trace's :class:`~repro.types.FlowBatch` and
    shared by every telemetry/problem build of that trace; all ids are
    stable for the lifetime of the space, which is what lets the runner
    reuse them across traces of the same (topology, telemetry spec).
    """

    def __init__(self, topology: "Topology", routing: "EcmpRouting") -> None:
        self.topology = topology
        self.routing = routing
        # Node paths and node path sets.
        self._paths: List[Tuple[int, ...]] = []
        self._path_index: Dict[Tuple[int, ...], int] = {}
        self._sets: List[object] = []  # np.ndarray | _FactoredSet
        self._set_index: Dict[Tuple[int, ...], int] = {}
        self._pair_sid: Dict[Tuple[int, int], int] = {}
        self._rack_pair_sid: Dict[Tuple[int, int], int] = {}
        # Component projections (shared id space across device flags).
        self._comp_paths: List[ComponentPath] = []
        self._comp_index: Dict[ComponentPath, int] = {}
        self._comp_sets: List[np.ndarray] = []
        self._comp_set_index: Dict[Tuple[int, ...], int] = {}
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
        # A space is shared by every trace of a (topology, routing) pair;
        # under the thread executor two trace units may intern
        # concurrently.  Lookups are GIL-atomic dict reads; only the
        # miss paths take this lock.
        self._lock = threading.RLock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"], state["_comp_ints"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._comp_ints = _int_objects(self.topology.n_components)

    # ------------------------------------------------------------------
    # Node paths and path sets
    # ------------------------------------------------------------------
    @property
    def n_paths(self) -> int:
        return len(self._paths)

    @property
    def n_sets(self) -> int:
        return len(self._sets)

    def intern_path(self, nodes: Sequence[int]) -> int:
        key = tuple(nodes)
        pid = self._path_index.get(key)
        if pid is None:
            with self._lock:
                pid = self._path_index.get(key)
                if pid is None:
                    pid = len(self._paths)
                    self._paths.append(key)
                    self._path_index[key] = pid
        return pid

    def path_nodes(self, pid: int) -> Tuple[int, ...]:
        return self._paths[pid]

    def intern_set(self, paths: Sequence[Sequence[int]]) -> int:
        """Intern an *ordered* sequence of node paths; order is
        preserved (the simulator's per-set ECMP choice indexes into
        it).  Callers with repeat lookups memoize the sid themselves
        (:meth:`pair_set`), so this always re-derives the pid key."""
        pids = tuple(self.intern_path(p) for p in paths)
        sid = self._set_index.get(pids)
        if sid is None:
            with self._lock:
                sid = self._set_index.get(pids)
                if sid is None:
                    sid = len(self._sets)
                    self._sets.append(np.asarray(pids, dtype=np.int64))
                    self._set_index[pids] = sid
        return sid

    def set_path_ids(self, sid: int) -> np.ndarray:
        """Path ids of a node path set, in interned order.

        Factored pair sets materialize (and intern) their member paths
        on first access; the hot pipeline never calls this for them.
        """
        entry = self._sets[sid]
        if isinstance(entry, _FactoredSet):
            if entry.pids is None:
                with self._lock:
                    if entry.pids is None:
                        middles = self._sets[entry.switch_sid]
                        pids = tuple(
                            self.intern_path(
                                (entry.src,) + self._paths[mid] + (entry.dst,)
                            )
                            for mid in middles.tolist()
                        )
                        self._set_index.setdefault(pids, sid)
                        entry.pids = np.asarray(pids, dtype=np.int64)
            return entry.pids
        return entry

    def set_is_factored(self, sid: int) -> bool:
        return isinstance(self._sets[sid], _FactoredSet)

    def set_factored(self, sid: int) -> _FactoredSet:
        entry = self._sets[sid]
        if not isinstance(entry, _FactoredSet):
            raise TypeError(f"set {sid} is not a factored pair set")
        return entry

    def set_size(self, sid: int) -> int:
        """Member count of a set, without materializing factored sets."""
        entry = self._sets[sid]
        if isinstance(entry, _FactoredSet):
            return len(self._sets[entry.switch_sid])
        return len(entry)

    def member_pids(self, sid: int, choice: np.ndarray) -> np.ndarray:
        """Path ids of the chosen members of a set.

        For factored sets only the chosen members are interned (the
        simulator picks one path per flow, so a trace materializes at
        most one full node path per flow instead of the whole ~w-wide
        candidate set per pair).
        """
        entry = self._sets[sid]
        if isinstance(entry, _FactoredSet):
            if entry.pids is not None:
                return entry.pids[choice]
            middles = self._sets[entry.switch_sid]
            paths = self._paths
            mapping = {
                int(j): self.intern_path(
                    (entry.src,) + paths[int(middles[int(j)])] + (entry.dst,)
                )
                for j in np.unique(choice).tolist()
            }
            return np.fromiter(
                (mapping[j] for j in choice.tolist()),
                dtype=np.int64,
                count=len(choice),
            )
        return entry[choice]

    def pair_set(self, src: int, dst: int) -> int:
        """The ECMP path set for a host pair, interned *factored*.

        The set is stored as (src, dst, switch-level sid): every host
        pair of a rack pair shares one switch-level path set, so the
        per-pair cost is O(1) instead of O(paths).  Member order equals
        :meth:`EcmpRouting.host_paths` order exactly.
        """
        key = (src, dst)
        sid = self._pair_sid.get(key)
        if sid is None:
            with self._lock:
                sid = self._pair_sid.get(key)
                if sid is None:
                    topo = self.topology
                    src_rack = topo.rack_of(src)
                    dst_rack = topo.rack_of(dst)
                    rkey = (src_rack, dst_rack)
                    switch_sid = self._rack_pair_sid.get(rkey)
                    if switch_sid is None:
                        # switch_paths(a, a) is the trivial single-node
                        # path, covering same-rack pairs.
                        switch_sid = self.intern_set(
                            self.routing.switch_paths(src_rack, dst_rack)
                        )
                        self._rack_pair_sid[rkey] = switch_sid
                    sid = len(self._sets)
                    self._sets.append(
                        _FactoredSet(
                            src, dst, switch_sid,
                            topo.link_id(src, src_rack),
                            topo.link_id(dst_rack, dst),
                        )
                    )
                    self._pair_sid[key] = sid
        return sid

    def pair_sets(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`pair_set` over aligned host arrays."""
        if len(src) == 0:
            return np.empty(0, dtype=np.int64)
        packed = src.astype(np.int64) * np.int64(self.topology.n_nodes) + dst
        uniq, inverse = np.unique(packed, return_inverse=True)
        n_nodes = self.topology.n_nodes
        sids = np.fromiter(
            (self.pair_set(int(key) // n_nodes, int(key) % n_nodes) for key in uniq),
            dtype=np.int64,
            count=len(uniq),
        )
        return sids[inverse]

    # ------------------------------------------------------------------
    # Component projections
    # ------------------------------------------------------------------
    @property
    def n_comp_paths(self) -> int:
        return len(self._comp_paths)

    def intern_components(self, components: Sequence[int]) -> int:
        key = tuple(sorted(set(components)))
        gid = self._comp_index.get(key)
        if gid is None:
            with self._lock:
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
        key = tuple(gids)
        gsid = self._comp_set_index.get(key)
        if gsid is None:
            with self._lock:
                gsid = self._comp_set_index.get(key)
                if gsid is None:
                    gsid = len(self._comp_sets)
                    self._comp_sets.append(np.asarray(key, dtype=np.int64))
                    self._comp_set_index[key] = gsid
        return gsid

    def intern_factored_comp_set(
        self, ecomps: Tuple[int, ...], switch_gsid: int
    ) -> int:
        """Intern a component path set as endpoint comps + shared interior.

        ``ecomps`` (sorted component ids, present on every member path)
        plus the rack pair's interior projection set ``switch_gsid``
        describe the full set without enumerating per-pair projections.
        """
        key = ("f", ecomps, switch_gsid)
        gsid = self._comp_set_index.get(key)
        if gsid is None:
            with self._lock:
                gsid = self._comp_set_index.get(key)
                if gsid is None:
                    gsid = len(self._comp_sets)
                    self._comp_sets.append(
                        _FactoredCompSet(
                            np.asarray(ecomps, dtype=np.int64), switch_gsid
                        )
                    )
                    self._comp_set_index[key] = gsid
        return gsid

    def comp_set(self, gsid: int) -> np.ndarray:
        """Component-path ids of one component path set (ordered, with
        multiplicity - two ECMP node paths may share a projection).

        Factored sets expand lazily: each member's full projection is
        the (disjoint) union of the endpoint comps and one interior
        projection.  Only adapters and lazy object views call this for
        factored sets; the compressed pipeline uses
        :meth:`comp_set_parts`.
        """
        entry = self._comp_sets[gsid]
        if isinstance(entry, _FactoredCompSet):
            if entry.gids is None:
                with self._lock:
                    if entry.gids is None:
                        interior = self.comp_set(entry.switch_gsid)
                        e = tuple(entry.ecomps.tolist())
                        entry.gids = np.fromiter(
                            (
                                self.intern_components(
                                    e + self._comp_paths[int(g)]
                                )
                                for g in interior.tolist()
                            ),
                            dtype=np.int64,
                            count=len(interior),
                        )
            return entry.gids
        return entry

    def comp_set_is_factored(self, gsid: int) -> bool:
        return isinstance(self._comp_sets[gsid], _FactoredCompSet)

    def comp_set_parts(
        self, gsid: int
    ) -> Tuple[np.ndarray, np.ndarray, Tuple]:
        """(endpoint comps, member projection gids, interior-sharing key).

        For a factored set the members are the *interior* projections
        (shared across every host pair of the rack pair) and the key is
        ``("f", switch_gsid)``; for a plain set the members are the full
        projections, the endpoint array is empty, and the key is
        ``("p", gsid)``.  Two sets with equal keys share identical
        member arrays - the compressed problem build interns its
        interior path table once per distinct key.
        """
        entry = self._comp_sets[gsid]
        if isinstance(entry, _FactoredCompSet):
            return (
                entry.ecomps,
                self.comp_set(entry.switch_gsid),
                ("f", entry.switch_gsid),
            )
        return _EMPTY_I64, entry, ("p", gsid)

    def _intern_projections(
        self, pids: np.ndarray, include_devices: bool
    ) -> List[int]:
        """Project node paths in one batch and intern the results in
        ``pids`` order; callers hold the lock.  The gids returned are
        the int objects the index holds, so keys built from them share
        those objects."""
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
                # Append before indexing: lock-free readers of the
                # index must find the path already stored.
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
            pids,
            lambda missed: self._intern_projections(missed, include_devices),
            self._lock,
        )

    def exact_gsids(self, pids: np.ndarray, include_devices: bool) -> np.ndarray:
        """Component path-*set* id of each exactly-known node path.

        The distinct missed pids project in one batch; their
        one-member comp sets then intern in first-seen pid order.
        """
        def fill(missed: np.ndarray) -> List[int]:
            gids = self._intern_projections(missed, include_devices)
            return [self.intern_comp_set((gid,)) for gid in gids]

        return self._pid_gsid[int(include_devices)].lookup(
            pids, fill, self._lock
        )

    def set_gsids(self, sids: np.ndarray, include_devices: bool) -> np.ndarray:
        """Component path-set id of each node path set.

        Factored pair sets project to *factored* component sets: the
        endpoint host links plus the rack pair's interior projection
        set, so the projection cost of a pair is O(1) once its rack
        pair has been seen.

        Batch fill: the switch-level sets the missed sids need (each
        plain set itself, each factored set's interior) that are not
        yet projected are collected in first-seen order, and all their
        member paths project in one :meth:`path_gids` call.  Comp sets
        then intern in miss order, an interior just before the first
        factored set that uses it - the order a one-set-at-a-time fill
        produced, which checkpoint resume and drift detection rely on.
        """
        cache = self._sid_gsid[int(include_devices)]

        def fill(missed: np.ndarray) -> np.ndarray:
            sets = self._sets
            entries = [sets[sid] for sid in missed.tolist()]
            inner = [
                entry.switch_sid if isinstance(entry, _FactoredSet) else sid
                for sid, entry in zip(missed.tolist(), entries)
            ]
            known = dict(zip(inner, cache.gather(np.asarray(inner)).tolist()))
            todo = [sid for sid, gsid in known.items() if gsid < 0]
            members = [sets[sid] for sid in todo]
            gids = (
                self.path_gids(np.concatenate(members), include_devices).tolist()
                if members else []
            )
            start = 0
            pending = {}
            for sid, member in zip(todo, members):
                pending[sid] = gids[start:start + len(member)]
                start += len(member)
            out = np.empty(len(missed), dtype=np.int64)
            for row, (entry, sid) in enumerate(zip(entries, inner)):
                gsid = known[sid]
                if gsid < 0:
                    known[sid] = gsid = self.intern_comp_set(pending[sid])
                if isinstance(entry, _FactoredSet):
                    if entry.src_link <= entry.dst_link:
                        ecomps = (entry.src_link, entry.dst_link)
                    else:
                        ecomps = (entry.dst_link, entry.src_link)
                    gsid = self.intern_factored_comp_set(ecomps, gsid)
                out[row] = gsid
            cache.store(
                np.asarray(todo, dtype=np.int64),
                np.asarray([known[sid] for sid in todo], dtype=np.int64),
            )
            return out

        return cache.lookup(sids, fill, self._lock)

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
        with self._lock:
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
        with self._lock:
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
