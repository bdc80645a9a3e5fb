"""Conforming simplicial meshes with tagged lower-dimensional facets.

A mesh is a triangulation (dim=2) or tetrahedralization (dim=3) whose cells
cover the domain, plus a list of tagged facets (edges in 2D, triangles in 3D)
that coincide with cell facets. Tags are plain integers; what a tag means
(fracture, barrier, boundary condition) is assigned through a tag map, so the
same mesh file can be reused by different scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import ValidationError

__all__ = ["FacetKind", "Mesh", "TOPOLOGY", "build_mesh", "facet_measures",
           "facet_normals", "restore_mesh"]

# the Mesh fields derived from the cells and tagged facets
TOPOLOGY = ("ufacets", "ufacet_cells", "facet_to_ufacet", "cell_neighbors")

# cells per range of _orientation_volumes; its temporaries then stay in cache
_ORIENT_RANGE = 2 ** 14


class FacetKind(IntEnum):
    FRACTURE = 1
    BARRIER = 2
    DIRICHLET = 3
    NEUMANN = 4


_KIND_NAMES = {k.name.lower(): k for k in FacetKind}


def parse_kind(name: str) -> FacetKind:
    try:
        return _KIND_NAMES[name.lower()]
    except KeyError:
        raise ValidationError(
            f"unknown facet kind {name!r}; expected one of {sorted(_KIND_NAMES)}"
        ) from None


@dataclass
class Mesh:
    """Validated simplicial mesh with resolved facet topology.

    Beyond the defining arrays, holds derived adjacency used everywhere
    downstream: the unique-facet table, facet-to-cell incidence, and
    cell neighbor lists. Construct through :func:`build_mesh`, or
    :func:`restore_mesh` from stored arrays; both end in the one
    validating constructor ``_mesh``. Index arrays are held at the width
    _index_dtype gives their range (int32 below 2**31), label arrays as
    int64 (_int_array, _labels).
    """

    dim: int
    vertices: np.ndarray          # (nv, dim) float64
    cells: np.ndarray             # (nc, dim+1) vertex ids, positively oriented
    cell_region: np.ndarray       # (nc,) int64 labels
    facets: np.ndarray            # (nf, dim) vertex ids, tagged facets only
    facet_tags: np.ndarray        # (nf,) int64 labels
    facet_kinds: np.ndarray       # (nf,) int64, FacetKind values

    # derived topology (TOPOLOGY), index arrays
    ufacets: np.ndarray = field(repr=False)          # (nu, dim) sorted vertex ids
    ufacet_cells: np.ndarray = field(repr=False)     # (nu, 2) cell ids, -1 pad
    facet_to_ufacet: np.ndarray = field(repr=False)  # (nf,) unique facet ids
    cell_neighbors: np.ndarray = field(repr=False)   # (nc, dim+1) cell ids, -1 pad

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_tagged_facets(self) -> int:
        return self.facets.shape[0]

    def cell_volumes(self) -> np.ndarray:
        p = self.vertices[self.cells]
        return _edge_volumes(p[:, 1:, :] - p[:, :1, :])

    def cell_centroids(self) -> np.ndarray:
        return self.vertices[self.cells].mean(axis=1)

    def domain_diameter(self) -> float:
        # per coordinate: min and max over a (nv, dim) array's short axis are slow
        return float(np.linalg.norm([x.max() - x.min() for x in self.vertices.T]))

    def facets_of_kind(self, kind: FacetKind) -> np.ndarray:
        """Indices into the tagged facet arrays for one kind."""
        return np.nonzero(self.facet_kinds == int(kind))[0]

    def ufacet_is_kind(self, kind: FacetKind) -> np.ndarray:
        """Boolean mask over unique facets: tagged with the given kind."""
        mask = np.zeros(self.ufacets.shape[0], dtype=bool)
        sel = self.facet_kinds == int(kind)
        mask[self.facet_to_ufacet[sel]] = True
        return mask


def _edge_volumes(edges: np.ndarray) -> np.ndarray:
    """Signed simplex volumes from the (n, dim, dim) edges off corner 0."""
    if edges.shape[2] == 2:
        det = edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
        return det / 2.0
    det = np.linalg.det(edges)
    return det / 6.0


def facet_measures(vertices: np.ndarray, facets: np.ndarray) -> np.ndarray:
    """Length (2D) or area (3D) of each facet row."""
    p = vertices[facets]
    if facets.shape[1] == 2:
        return np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def facet_normals(vertices: np.ndarray, facets: np.ndarray) -> np.ndarray:
    """Unit normals of facet rows; orientation follows vertex order."""
    p = vertices[facets]
    if facets.shape[1] == 2:
        t = p[:, 1] - p[:, 0]
        n = np.stack([t[:, 1], -t[:, 0]], axis=1)
    else:
        n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return n / np.linalg.norm(n, axis=1, keepdims=True)


def _orientation_volumes(vertices: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Signed cell volumes for the orientation and degeneracy tests.

    Computed over ranges of _ORIENT_RANGE cells, one coordinate at a time
    (takes from the rows of vertices.T), so that the temporaries stay small.
    In 2d these are cell_volumes(), bit for bit. In 3d the triple product
    replaces np.linalg.det: about 3x faster, with the same sign but not
    always the same last bits, so cell_volumes() and assembly keep det.
    """
    xyz = np.ascontiguousarray(vertices.T)
    nc = cells.shape[0]
    vol = np.empty(nc)
    for lo in range(0, nc, _ORIENT_RANGE):
        hi = min(lo + _ORIENT_RANGE, nc)
        corners = np.ascontiguousarray(cells[lo:hi].T)
        p0 = [x.take(corners[0]) for x in xyz]
        # the edges off corner 0, each as one array per coordinate
        edges = [[x.take(corners[j]) - x0 for x, x0 in zip(xyz, p0)]
                 for j in range(1, len(corners))]
        if len(edges) == 2:
            a, b = edges
            vol[lo:hi] = (a[0] * b[1] - a[1] * b[0]) / 2.0
        else:
            a, b, c = edges
            vol[lo:hi] = (a[0] * (b[1] * c[2] - b[2] * c[1]) + a[1] * (b[2] * c[0] - b[0] * c[2])
                          + a[2] * (b[0] * c[1] - b[1] * c[0])) / 6.0
    return vol


def _check_degenerate(vol: np.ndarray) -> None:
    """A cell whose |volume| is at most 1e-14 of the largest is an error."""
    vol = np.abs(vol)
    scale = float(vol.max())
    if np.any(vol <= 1e-14 * max(scale, 1e-300)):
        i = int(np.argmin(vol))
        raise ValidationError(f"cell {i} is degenerate (volume {vol[i]:.3e})")


def _facet_keys(rows: np.ndarray, nv: int) -> np.ndarray:
    """Sorted facet rows packed into one integer each: (a*nv + b)*nv + c.

    The key is monotone in the rows' lexicographic order, so sorting keys
    sorts rows. Vertex ids must lie below nv. Keys are int64 whatever the
    rows' width.
    """
    dim = rows.shape[1]
    if nv ** dim > np.iinfo(np.int64).max:
        raise ValidationError(
            f"{nv} vertices are too many for packed {dim}-vertex keys: "
            f"{nv}**{dim} must fit in a signed 64-bit integer"
        )
    key = rows[:, 0].astype(np.int64)
    for j in range(1, dim):
        key *= nv
        key += rows[:, j]
    return key


def _unpack_keys(keys: np.ndarray, nv: int, dim: int) -> np.ndarray:
    """Inverse of :func:`_facet_keys`: the (n, dim) sorted rows of keys at
    the vertex-id width _index_dtype(nv). Overwrites keys; each column is
    written straight into the rows, with no temporary of keys' size."""
    rows = np.empty((keys.shape[0], dim), dtype=_index_dtype(nv))
    for j in range(dim - 1, 0, -1):
        np.remainder(keys, nv, out=rows[:, j])
        np.floor_divide(keys, nv, out=keys)
    rows[:, 0] = keys
    return rows


def _search_keys(ukey: np.ndarray, rows: np.ndarray, nv: int):
    """Where the rows (any vertex order) sit in the sorted unique keys ukey.

    Returns (pos, found): pos is the searchsorted position of each row's
    key, found whether the key is really there.
    """
    key = _facet_keys(np.sort(rows, axis=1), nv)
    pos = np.searchsorted(ukey, key)
    found = ukey[np.minimum(pos, ukey.shape[0] - 1)] == key
    return pos, found


def _unique_facet_table(cells: np.ndarray, dim: int, nv: int):
    """All unique cell facets plus incidence.

    Returns (ufacets, ufacet_cells, cell_neighbors): ufacets holds sorted
    vertex ids in lexicographic row order, ufacet_cells the one or two
    cells of each (-1 pad), and cell_neighbors[c, i] the cell across the
    facet opposite local vertex i of cell c (-1 on the boundary). The
    cells may come at any integer width; ufacets are returned at the width
    _index_dtype(nv), the cell ids at _index_dtype(nc).
    """
    nc = cells.shape[0]
    nloc = dim + 1
    # slot i*nc + c: the facet of cell c opposite its local vertex i, its key
    # packed from the sorted ids of the cell's other vertices
    key = np.empty(nloc * nc, dtype=np.int64)
    for i in range(nloc):
        others = [j for j in range(nloc) if j != i]
        key[i * nc:(i + 1) * nc] = _facet_keys(np.sort(cells[:, others], axis=1), nv)
    order = np.argsort(key, kind="stable")
    skey = key[order]
    del key
    order = order.astype(_index_dtype(order.shape[0]))  # slots at their index width
    new = np.empty(skey.shape[0], dtype=bool)
    new[0] = True
    np.not_equal(skey[1:], skey[:-1], out=new[1:])
    first = np.flatnonzero(new)
    nu = first.shape[0]
    ukey = skey[first]
    del skey
    # a facet is shared when the slot after its first is no new facet
    shared = ~np.append(new[1:], True)[first]
    del new
    # facets of one or two cells fill exactly nu + (shared facets) slots
    if nu + np.count_nonzero(shared) != order.shape[0]:
        counts = np.diff(first, append=order.shape[0])
        bad = _unpack_keys(ukey[[np.argmax(counts)]], nv, dim)[0]
        raise ValidationError(
            f"facet {tuple(bad.tolist())} is shared by {counts.max()} cells; "
            "mesh is not a manifold complex"
        )
    # the slots of the facets' first and second cells
    a = order[first]
    b = first[shared]
    b += 1
    b = order[b]
    del order, first

    # unpack the unique keys instead of gathering rows
    ufacets = _unpack_keys(ukey, nv, dim)
    del ukey
    cell = _index_dtype(nc)
    ufacet_cells = np.full((nu, 2), -1, dtype=cell)
    np.remainder(a, nc, out=ufacet_cells[:, 0])
    ufacet_cells[shared, 1] = b % nc

    # the two cells of a shared facet are neighbours across it; a boundary
    # facet's second cell is -1. Scattered by slot, that is in (nloc, nc) order
    across = np.empty(nloc * nc, dtype=cell)
    across[a] = ufacet_cells[:, 1]
    del a
    across[b] = ufacet_cells[shared, 0]
    del b
    return ufacets, ufacet_cells, np.ascontiguousarray(across.reshape(nloc, nc).T)


def _locate_tagged(ufacets: np.ndarray, tagged: np.ndarray, nv: int) -> np.ndarray:
    """Index of each tagged facet row in the sorted unique-facet table."""
    if tagged.shape[0] == 0:
        return np.zeros(0, dtype=_index_dtype(ufacets.shape[0]))
    pos, found = _search_keys(_facet_keys(ufacets, nv), tagged, nv)
    if not found.all():
        i = int(np.argmin(found))
        raise ValidationError(
            f"tagged facet {tuple(tagged[i].tolist())} does not coincide with any cell facet"
        )
    return pos.astype(_index_dtype(ufacets.shape[0]))


def _checked_cells(vertices, cells):
    """Vertices as float64, cells checked as an (n, dim+1) index array
    (_int_array), and the cells' signed volumes for the orientation test."""
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    if vertices.ndim != 2 or vertices.shape[1] not in (2, 3):
        raise ValidationError(f"vertices must be (n, 2) or (n, 3), got {vertices.shape}")
    nv, dim = vertices.shape
    cells = _int_array("cells", cells, (None, dim + 1), 0, nv)
    if cells.shape[0] == 0:
        raise ValidationError("mesh has no cells")
    return vertices, cells, _orientation_volumes(vertices, cells)


def _mesh(vertices, cells, vol, cell_region, facets, facet_tags, facet_kinds,
          topology=None) -> Mesh:
    """The one constructor of Mesh, from positively oriented cells and their
    volumes: checks every array, then derives the facet topology, or checks
    the given TOPOLOGY arrays, and applies the tag rules."""
    _check_degenerate(vol)
    nv, dim = vertices.shape
    nc = cells.shape[0]
    cell_region = _labels("cell_region", cell_region, nc)
    facets = _int_array("facets", facets, (None, dim), 0, nv)
    nf = facets.shape[0]
    facet_tags = _labels("facet_tags", facet_tags, nf)
    facet_kinds = _labels("facet_kinds", facet_kinds, nf)
    if topology is None:
        ufacets, ufacet_cells, cell_neighbors = _unique_facet_table(cells, dim, nv)
        facet_to_ufacet = _locate_tagged(ufacets, facets, nv)
    else:
        ufacets, ufacet_cells, facet_to_ufacet, cell_neighbors = topology
        ufacets = _int_array("ufacets", ufacets, (None, dim), 0, nv)
        nu = ufacets.shape[0]
        ufacet_cells = _int_array("ufacet_cells", ufacet_cells, (nu, 2), -1, nc)
        facet_to_ufacet = _int_array("facet_to_ufacet", facet_to_ufacet, (nf,), 0, nu)
        # Neighbours are only range-checked: _locate_all accepts a cell only
        # when the point's barycentric test there passes, so a wrong table can
        # send a point to _locate_brute but never give it a wrong value. A
        # symmetry check would cost ~30 ms on ex56 r2 (196,608 tets).
        cell_neighbors = _int_array("cell_neighbors", cell_neighbors, (nc, dim + 1), -1, nc)
        off = np.any(ufacets[facet_to_ufacet] != np.sort(facets, axis=1), axis=1)
        if np.any(off):
            i = int(np.argmax(off))
            raise ValidationError(
                f"tagged facet {tuple(facets[i].tolist())} is not the unique facet "
                f"{facet_to_ufacet[i]} it points at"
            )
    _check_tagged(facets, facet_tags, facet_kinds, ufacets, ufacet_cells, facet_to_ufacet)
    return Mesh(dim=dim, vertices=vertices, cells=cells, cell_region=cell_region,
                facets=facets, facet_tags=facet_tags, facet_kinds=facet_kinds,
                ufacets=ufacets, ufacet_cells=ufacet_cells,
                facet_to_ufacet=facet_to_ufacet, cell_neighbors=cell_neighbors)


def build_mesh(
    vertices,
    cells,
    facets=None,
    facet_tags=None,
    tag_map: dict | None = None,
    cell_region=None,
    facet_kinds=None,
) -> Mesh:
    """Assemble and validate a Mesh from raw arrays.

    tag_map maps integer facet tags to kind names ("fracture", "barrier",
    "dirichlet", "neumann"). Tagged facets whose tag is absent from the map
    are dropped (a mesh file may carry tags a scenario does not use).
    Cells are reoriented to positive volume; degenerate cells are an error.
    """
    vertices, cells, vol = _checked_cells(vertices, _raw_ints(cells))
    nv, dim = vertices.shape
    # a cell with negative volume gets its first two vertices swapped, in a copy
    neg = vol < 0
    if neg.any():
        cells = cells.copy()
        cells[neg, 0], cells[neg, 1] = cells[neg, 1], cells[neg, 0]

    if facets is None:
        facets, facet_tags = [], []
    facets = _raw_ints(facets)
    if facets.ndim in (1, 2) and facets.shape[0] == 0:
        facets = facets.reshape(0, dim)
    if facets.ndim != 2 or facets.shape[1] != dim:
        raise ValidationError(f"facets must be (n, {dim}) for dim={dim}, got {facets.shape}")
    # checked before tag_map drops any row
    facets = _int_array("facets", facets, (None, dim), 0, nv)
    facet_tags = _labels("facet_tags", np.asarray(facet_tags, dtype=np.int64),
                         facets.shape[0])

    if facet_kinds is None:
        kind_of_tag = {int(t): parse_kind(k) if isinstance(k, str) else FacetKind(k)
                       for t, k in (tag_map or {}).items()}
        known = np.array([t in kind_of_tag for t in facet_tags], dtype=bool)
        facets = facets[known]
        facet_tags = facet_tags[known]
        facet_kinds = np.array([int(kind_of_tag[int(t)]) for t in facet_tags], dtype=np.int64)

    if cell_region is None:
        cell_region = np.ones(cells.shape[0], dtype=np.int64)
    return _mesh(vertices, cells, np.abs(vol, out=vol),
                 np.asarray(cell_region, dtype=np.int64), facets, facet_tags,
                 np.asarray(facet_kinds, dtype=np.int64))


def _check_tagged(facets, facet_tags, facet_kinds, ufacets, ufacet_cells,
                  facet_to_ufacet) -> None:
    """Tag rules on located facets: one tag per geometric facet, fractures
    and barriers interior, boundary conditions on the boundary."""
    # duplicate tags on one geometric facet are a modeling error
    if facet_to_ufacet.size:
        uniq, cnt = np.unique(facet_to_ufacet, return_counts=True)
        if cnt.max(initial=0) > 1:
            dup = ufacets[uniq[np.argmax(cnt)]]
            raise ValidationError(f"facet {tuple(dup.tolist())} is tagged more than once")

    n_adjacent = (ufacet_cells[facet_to_ufacet] >= 0).sum(axis=1)
    interior_kinds = (facet_kinds == FacetKind.FRACTURE) | (facet_kinds == FacetKind.BARRIER)
    bad = interior_kinds & (n_adjacent != 2)
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise ValidationError(
            f"facet {tuple(facets[i].tolist())} (tag {facet_tags[i]}) is a fracture/barrier "
            "but lies on the domain boundary"
        )
    bad = ~interior_kinds & (n_adjacent != 1)
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise ValidationError(
            f"facet {tuple(facets[i].tolist())} (tag {facet_tags[i]}) carries a boundary "
            "condition but is interior"
        )


def _int_array(name: str, a: np.ndarray, shape: tuple, lo: int | None = None,
               hi: int | None = None) -> np.ndarray:
    """An integer array checked for shape (None: any length) and, given lo
    and hi, for values in lo..hi-1. Given a range it is an index array and
    comes back C-contiguous at the width _index_dtype(hi): the range is
    checked in the dtype a comes in, so any narrowing is exact, and an
    array already at that width is returned as it is, never widened.
    Without a range a comes back as it is (see _labels)."""
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.integer):
        raise ValidationError(f"{name} must hold integers, got dtype {a.dtype}")
    if a.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, a.shape)):
        want = ", ".join("n" if n is None else str(n) for n in shape)
        raise ValidationError(f"{name} has shape {a.shape}, expected ({want})")
    if hi is None:
        return a
    if a.size and (a.min() < lo or a.max() >= hi):
        raise ValidationError(f"{name} holds values outside {lo}..{hi - 1}")
    return np.ascontiguousarray(a, dtype=_index_dtype(hi))


def _labels(name: str, a: np.ndarray, n: int) -> np.ndarray:
    """Labels (cell regions, facet tags and kinds): n integers, as int64."""
    return np.ascontiguousarray(_int_array(name, a, (n,)), dtype=np.int64)


def _raw_ints(a) -> np.ndarray:
    """Raw input ids as an array: an integer array as it comes, anything
    else (a list, a float array) cast to int64."""
    a = np.asarray(a)
    return a if np.issubdtype(a.dtype, np.integer) else a.astype(np.int64)


def _index_dtype(n: int) -> type:
    """The integer dtype of indices below n: int32 while n fits, else int64."""
    return np.int32 if n < 2 ** 31 else np.int64


def restore_mesh(vertices, cells, facets, facet_tags, facet_kinds, cell_region,
                 ufacets=None, ufacet_cells=None, facet_to_ufacet=None,
                 cell_neighbors=None) -> Mesh:
    """The Mesh whose arrays were stored, with or without its topology.

    Cells must be stored positively oriented. Given the four TOPOLOGY
    arrays build_mesh made, checks them instead of deriving them again:
    every shape, integer dtype and index range, so no stored array can
    index out of bounds, and each tagged facet equal to the unique facet
    it points at. Not checked is whether ufacets, ufacet_cells and
    cell_neighbors are the cells' own facet table, which costs about as
    much as deriving it. Without them, derives the topology as build_mesh
    does. Either way the other arrays pass the checks and tag rules of
    build_mesh. The index arrays come back at the width _int_array gives
    them (int32, as write_bundle stores them, is kept without a copy), the
    labels as int64.
    """
    vertices, cells, vol = _checked_cells(vertices, cells)
    if np.any(vol < 0):
        raise ValidationError(f"cell {int(np.argmax(vol < 0))} is negatively oriented; "
                              "stored cells must be positively oriented")
    stored = (ufacets, ufacet_cells, facet_to_ufacet, cell_neighbors)
    return _mesh(vertices, cells, vol, cell_region, facets, facet_tags, facet_kinds,
                 None if all(a is None for a in stored) else stored)
