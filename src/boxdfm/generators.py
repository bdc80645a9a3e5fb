"""Deterministic mesh generators.

All generators return validated meshes whose facet tags follow one
convention: rectangle/box sides get tags 1..4 (2D: left, right, bottom,
top) or 1..6 (3D: x0, x1, y0, y1, z0, z1) unless a boundary_tag_fn
overrides them, and interior feature facets keep the tag given with each
segment or plane. Randomness is driven by an explicit seed.

The unstructured generator is not a general constrained Delaunay code: it
places points so that the plain Delaunay triangulation contains every
feature sub-edge (cleared corridor, locally uniform spacing) and raises if
recovery fails. Meshes for geometries beyond its reach come from MSH files.
Its corners, side divisions and feature points merge in one vectorized
pass: each point is snapped onto the sides, and the first of equal keys
rint(p / tol) keeps its id.

Every generator ends in one finishing step, _box_mesh: it takes the hull
facets from the packed-key unique-facet table of :mod:`.mesh` (in 2D the
facets are the edges) and tags each on the first box side that holds all
its vertices, checks that every feature facet is a facet of the cells,
and calls build_mesh once, on the final arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import Delaunay

from .errors import MeshGenerationError
from .mesh import FacetKind, Mesh, _facet_keys, _search_keys, _unique_facet_table, build_mesh

__all__ = [
    "crossed_square_mesh",
    "delaunay_rect_mesh",
    "kuhn_cube_mesh",
    "strip_grid_mesh",
    "split_segments_at_intersections",
]


def crossed_square_mesh(n, jitter=0.0, seed=0, keep_x=(), keep_y=(),
                        segments=(), region_fn=None, boundary_tag_fn=None,
                        tag_map=None, domain=((0.0, 0.0), (1.0, 1.0))) -> Mesh:
    """n x n grid of quads, each split into 4 triangles through its center.

    Grid vertices may be jittered by jitter*h; vertices on a line listed in
    keep_x/keep_y only move along that line, boundary vertices slide along
    their side, corners stay. Feature segments must be unions of kept grid
    lines; their edges are tagged after triangulation.
    """
    lo, hi = np.asarray(domain[0], float), np.asarray(domain[1], float)
    h = (hi - lo) / n
    rng = np.random.default_rng(seed)
    grid = _grid_points([lo[a] + np.arange(n + 1) * h[a] for a in range(2)])

    amp = jitter * h
    if jitter > 0:
        d = rng.uniform(-1.0, 1.0, size=grid.shape) * amp
        # the box sides are kept lines too
        for axis, kept in enumerate((keep_x, keep_y)):
            for c in (lo[axis], hi[axis], *kept):
                d[np.isclose(grid[:, axis], c), axis] = 0.0
        grid = grid + d

    gid = np.arange((n + 1) * (n + 1)).reshape(n + 1, n + 1)
    quads = np.stack(
        [gid[:-1, :-1].ravel(), gid[1:, :-1].ravel(), gid[1:, 1:].ravel(), gid[:-1, 1:].ravel()],
        axis=1,
    )
    centers = grid[quads].mean(axis=1)
    if jitter > 0:
        centers = centers + rng.uniform(-1.0, 1.0, size=centers.shape) * amp
    cid = np.arange(len(centers)) + len(grid)
    vertices = np.vstack([grid, centers])

    cells = np.concatenate(
        [
            np.stack([quads[:, 0], quads[:, 1], cid], axis=1),
            np.stack([quads[:, 1], quads[:, 2], cid], axis=1),
            np.stack([quads[:, 2], quads[:, 3], cid], axis=1),
            np.stack([quads[:, 3], quads[:, 0], cid], axis=1),
        ],
        axis=0,
    )

    fe, ft = _feature_edges_on_lines(vertices, segments, 1e-9 * float(max(hi - lo)))
    return _box_mesh(vertices, cells, lo, hi, fe, ft, region_fn, boundary_tag_fn, tag_map)


def _grid_points(axes):
    """The tensor-product points of the coordinate arrays, last axis fastest."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def _feature_edges_on_lines(vertices, segments, tol):
    """Edges between vertices lying on a given segment (for grid meshes)."""
    chains = []
    for p0, p1, tag in segments:
        p0 = np.asarray(p0, float)
        p1 = np.asarray(p1, float)
        d = p1 - p0
        L = np.linalg.norm(d)
        t = ((vertices - p0) @ d) / (L * L)
        perp = np.linalg.norm(vertices - (p0 + np.outer(t, d)), axis=1)
        on = (perp < tol) & (t > -tol / L) & (t < 1 + tol / L)
        ids = np.nonzero(on)[0]
        if len(ids) < 2:
            raise MeshGenerationError(
                f"segment {tuple(p0.tolist())}-{tuple(p1.tolist())} hits < 2 vertices")
        chains.append((ids[np.argsort(t[ids])], tag))
    return _chain_edges(chains)


def _chain_edges(chains):
    """Consecutive vertex pairs of each (vertex ids, tag) chain, tagged."""
    edges = [np.zeros((0, 2), dtype=np.int64)]
    tags = [np.zeros(0, dtype=np.int64)]
    for ids, tag in chains:
        ids = np.asarray(ids, dtype=np.int64)
        edges.append(np.stack([ids[:-1], ids[1:]], axis=1))
        tags.append(np.full(len(ids) - 1, tag, dtype=np.int64))
    return np.concatenate(edges), np.concatenate(tags)


def _box_mesh(vertices, cells, lo, hi, features, feature_tags, region_fn,
              boundary_tag_fn, tag_map, table=None):
    """build_mesh of cells filling the box [lo, hi], with side tags.

    A boundary facet takes tag 2*axis + 1 (at lo) or 2*axis + 2 (at hi) of
    the first box side that holds all its vertices, within 1e-9 of the box
    diagonal; boundary_tag_fn(midpoints, tags) may override the tags.
    Every feature facet must be a facet of the cells. Regions come from
    region_fn(centroids) and kinds from tag_map; without a map all facets
    are kept with placeholder kinds (files store tags only): the sides
    Neumann, the features barrier. table is the (ufacets, ufacet_cells)
    pair of _unique_facet_table when the caller has built it already.
    """
    dim, nv = vertices.shape[1], len(vertices)
    ufacets, ufacet_cells = table or _unique_facet_table(cells, dim, nv)[:2]
    bfacets = ufacets[ufacet_cells[:, 1] < 0]
    pts = vertices[bfacets]
    # side s = 2*axis + (0 at lo, 1 at hi) lies on coordinate sides[s]
    sides = np.stack([lo, hi], axis=1).ravel()
    tol = 1e-9 * float(np.linalg.norm(hi - lo))
    on = np.all(np.abs(pts[:, :, np.arange(2 * dim) // 2] - sides) < tol, axis=1)
    hit = on.any(axis=1)
    if not hit.all():
        k = int(np.argmin(hit))
        raise MeshGenerationError(
            f"boundary facet {tuple(bfacets[k].tolist())} lies on no box side")
    btags = np.argmax(on, axis=1) + 1
    if boundary_tag_fn is not None:
        btags = np.asarray(boundary_tag_fn(pts.mean(axis=1), btags), dtype=np.int64)

    _, found = _search_keys(_facet_keys(ufacets, nv), features, nv)
    if not found.all():
        corners = "-".join(str(tuple(np.round(p, 6).tolist()))
                           for p in vertices[features[np.argmin(found)]])
        raise MeshGenerationError(f"feature {('edge', 'face')[dim - 2]} {corners} "
                                  "was not recovered by the triangulation")

    region = None if region_fn is None else np.asarray(
        region_fn(vertices[cells].mean(axis=1)), dtype=np.int64)
    kinds = None if tag_map is not None else np.where(
        np.arange(len(bfacets) + len(features)) < len(bfacets),
        int(FacetKind.NEUMANN), int(FacetKind.BARRIER))
    return build_mesh(vertices, cells, np.vstack([bfacets, features]),
                      np.concatenate([btags, feature_tags]), tag_map=tag_map,
                      cell_region=region, facet_kinds=kinds)


def split_segments_at_intersections(segments):
    """Split 2D segments at mutual intersections and touching endpoints.

    segments: iterable of (p0, p1, tag). Returns a list of (points, tag)
    chains: each original segment becomes the ordered list of its endpoints
    and every point where another segment crosses or touches it. Shared
    points (equal to within 1e-12) are snapped to identical coordinates.
    """
    segs = [(np.asarray(p0, float), np.asarray(p1, float), tag) for p0, p1, tag in segments]
    cuts = [[0.0, 1.0] for _ in segs]
    registry: dict = {}

    def canon(p):
        key = (round(p[0] / 1e-12), round(p[1] / 1e-12))
        return registry.setdefault(key, p.copy())

    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            a0, a1, _ = segs[i]
            b0, b1, _ = segs[j]
            da, db = a1 - a0, b1 - b0
            den = da[0] * db[1] - da[1] * db[0]
            La, Lb = np.linalg.norm(da), np.linalg.norm(db)
            if abs(den) < 1e-14 * La * Lb:
                continue  # parallel; collinear overlap is unsupported
            r = b0 - a0
            t = (r[0] * db[1] - r[1] * db[0]) / den
            s = (r[0] * da[1] - r[1] * da[0]) / den
            eps_a, eps_b = 1e-12 / La, 1e-12 / Lb
            if -eps_a < t < 1 + eps_a and -eps_b < s < 1 + eps_b:
                t = min(max(t, 0.0), 1.0)
                s = min(max(s, 0.0), 1.0)
                p = canon(a0 + t * da)
                if 0.0 < t < 1.0:
                    cuts[i].append(t)
                if 0.0 < s < 1.0:
                    cuts[j].append(s)

    chains = []
    for (p0, p1, tag), ts in zip(segs, cuts):
        ts = sorted(set(ts))
        pts = [canon(p0 + t * (p1 - p0)) for t in ts]
        chains.append((pts, tag))
    return chains


def _chain_points(chain, h):
    """Points along a split chain, spacing <= h, split points kept exactly."""
    pts, _ = chain
    out = [pts[0]]
    for a, b in zip(pts[:-1], pts[1:]):
        span = np.linalg.norm(b - a)
        ndiv = max(1, int(math.ceil(span / h - 1e-9)))
        for k in range(1, ndiv):
            out.append(a + (b - a) * (k / ndiv))
        out.append(b)
    return out


def delaunay_rect_mesh(domain, h, segments=(), seed=0, boundary_div=None,
                       fill_target=None, fill_h=None, region_fn=None, boundary_tag_fn=None,
                       tag_map=None) -> Mesh:
    """Unstructured triangulation of a rectangle conforming to segments.

    Feature segments (p0, p1, tag) are split at mutual intersections,
    sampled with spacing <= h, and their sub-edges are required to appear
    in the Delaunay triangulation of the final point set. Interior fill is
    a lattice jittered by up to 0.35 pitch, cleared to 0.75 h away from
    features and sides. boundary_div
    fixes the number of intervals per side (left, right, bottom, top);
    fill_target fixes the exact number of fill points (a deterministic
    evenly-strided subset is kept); fill_h sets the fill lattice pitch
    when it must differ from the feature spacing h.
    """
    lo = np.asarray(domain[0], float)
    hi = np.asarray(domain[1], float)
    size = hi - lo
    diam = float(np.linalg.norm(size))
    tol = 1e-9 * diam
    rng = np.random.default_rng(seed)

    chains = split_segments_at_intersections(segments)
    chain_pts = [_chain_points(ch, h) for ch in chains]

    if boundary_div is None:
        boundary_div = tuple(max(1, int(round(s / h))) for s in
                             (size[1], size[1], size[0], size[0]))
    # corners, side divisions (left, right, bottom, top), then chain points
    c = np.array([lo, (hi[0], lo[1]), hi, (lo[0], hi[1])])
    pts = list(c) + [c[i] + (c[j] - c[i]) * (k / ndiv)
                     for (i, j), ndiv in zip(((0, 3), (1, 2), (0, 1), (3, 2)), boundary_div)
                     for k in range(1, ndiv)]
    n_sides = len(pts)
    pts = np.array(pts + [q for cp in chain_pts for q in cp], dtype=float)
    pts = np.where(np.abs(pts - lo) < tol, lo, pts)
    pts = np.where(np.abs(pts - hi) < tol, hi, pts)
    keys = np.rint(pts / tol).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    ids = np.argsort(by_first)[inverse.reshape(-1)]
    ends = np.cumsum([len(cp) for cp in chain_pts], dtype=np.int64)
    chain_ids = np.split(ids[n_sides:], ends[:-1])
    fixed = pts[first[by_first]]

    # jittered lattice fill, cleared around features and sides
    clear = 0.75 * h
    hf = h if fill_h is None else float(fill_h)
    nx = max(1, int(round(size[0] / hf)))
    ny = max(1, int(round(size[1] / hf)))
    ix, iy = np.meshgrid(np.arange(1, nx), np.arange(1, ny), indexing="ij")
    base = np.stack([lo[0] + ix.ravel() * size[0] / nx,
                     lo[1] + iy.ravel() * size[1] / ny], axis=1)
    cand = base + rng.uniform(-0.35, 0.35, size=base.shape) * (size / (nx, ny))

    keep = (
        (cand[:, 0] > lo[0] + clear) & (cand[:, 0] < hi[0] - clear)
        & (cand[:, 1] > lo[1] + clear) & (cand[:, 1] < hi[1] - clear)
    )
    for cp in chain_pts:
        arr = np.array(cp)
        for a, b in zip(arr[:-1], arr[1:]):
            keep &= _dist_to_segment(cand, a, b) > clear
    cand = cand[keep]

    if fill_target is not None:
        if len(cand) < fill_target:
            raise MeshGenerationError(
                f"only {len(cand)} fill candidates for target {fill_target}; decrease h"
            )
        sel = np.unique(np.round(np.linspace(0, len(cand) - 1, fill_target)).astype(int))
        if len(sel) != fill_target:
            raise MeshGenerationError("could not select a strided fill subset")
        cand = cand[sel]

    allpts = np.vstack([fixed, cand]) if len(cand) else fixed
    tri = Delaunay(allpts)
    cells = tri.simplices.astype(np.int64)
    used = np.zeros(len(allpts), dtype=bool)
    used[cells.ravel()] = True
    if not used.all():
        raise MeshGenerationError("Delaunay dropped input points (coincident points?)")

    fe, ft = _chain_edges(zip(chain_ids, (tag for _, tag in chains)))
    return _box_mesh(allpts, cells, lo, hi, fe, ft, region_fn, boundary_tag_fn, tag_map)


def _dist_to_segment(pts, a, b):
    d = b - a
    L2 = float(d @ d)
    t = np.clip(((pts - a) @ d) / L2, 0.0, 1.0)
    proj = a + np.outer(t, d)
    return np.linalg.norm(pts - proj, axis=1)


_KUHN_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def kuhn_cube_mesh(n, planes=(), domain=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
                   region_fn=None, boundary_tag_fn=None, tag_map=None) -> Mesh:
    """Structured box mesh: n^3 cubes, each split into 6 Kuhn tetrahedra.

    planes: (axis, coord, lo2, hi2, tag) tags the triangular faces lying on
    the axis-aligned plane inside the 2D extent [lo2, hi2] (coordinates of
    the remaining axes in ascending order). Side tags are 1..6 in axis
    order unless boundary_tag_fn(mids, tags) overrides them.
    """
    lo = np.asarray(domain[0], float)
    hi = np.asarray(domain[1], float)
    size = hi - lo
    vertices = _grid_points([lo[a] + np.arange(n + 1) * size[a] / n for a in range(3)])

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    base = np.stack([i.ravel(), j.ravel(), k.ravel()], axis=1)
    cells = []
    eye = np.eye(3, dtype=np.int64)
    for perm in _KUHN_PERMS:
        c0 = base
        c1 = c0 + eye[perm[0]]
        c2 = c1 + eye[perm[1]]
        c3 = c2 + eye[perm[2]]
        cells.append(np.stack(
            [vid(c[:, 0], c[:, 1], c[:, 2]) for c in (c0, c1, c2, c3)], axis=1))
    cells = np.concatenate(cells, axis=0).astype(np.int64)

    tolv = 1e-9 * float(np.linalg.norm(size))
    ufacets, ufacet_cells, _ = _unique_facet_table(cells, 3, len(vertices))
    itris = ufacets[ufacet_cells[:, 1] >= 0]
    ipts = vertices[itris]
    imids = ipts.mean(axis=1)
    fe = [np.zeros((0, 3), dtype=np.int64)]
    ft = [np.zeros(0, dtype=np.int64)]
    for axis, coord, lo2, hi2, tag in planes:
        mids = imids[:, [a for a in range(3) if a != axis]]
        on_plane = np.all(np.abs(ipts[:, :, axis] - coord) < tolv, axis=1)
        inside = np.all((mids > np.subtract(lo2, tolv)) & (mids < np.add(hi2, tolv)), axis=1)
        sel = on_plane & inside
        if not np.any(sel):
            raise MeshGenerationError(
                f"plane axis={axis} coord={coord} matches no interior faces; "
                "n must resolve the plane coordinates"
            )
        fe.append(itris[sel])
        ft.append(np.full(int(sel.sum()), tag, dtype=np.int64))

    return _box_mesh(vertices, cells, lo, hi, np.vstack(fe), np.concatenate(ft), region_fn,
                     boundary_tag_fn, tag_map, (ufacets, ufacet_cells))


def strip_grid_mesh(x_lines, y_lines, region_fn=None, boundary_tag_fn=None,
                    tag_map=None) -> Mesh:
    """Tensor-product triangulation from explicit coordinate lines.

    Each rectangle splits into two triangles (alternating diagonal).
    Used for equi-dimensional reference meshes where thin material strips
    are meshed directly; no interior facets are tagged.
    """
    xs = np.asarray(x_lines, float)
    ys = np.asarray(y_lines, float)
    nx, ny = len(xs) - 1, len(ys) - 1
    vertices = _grid_points([xs, ys])

    def vid(i, j):
        return i * (ny + 1) + j

    i, j = _grid_points([np.arange(nx), np.arange(ny)]).T
    v00, v10, v11, v01 = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
    even = (i + j) % 2 == 0
    t1 = np.where(even[:, None], np.stack([v00, v10, v11], axis=1),
                  np.stack([v00, v10, v01], axis=1))
    t2 = np.where(even[:, None], np.stack([v00, v11, v01], axis=1),
                  np.stack([v10, v11, v01], axis=1))
    cells = np.concatenate([t1, t2], axis=0).astype(np.int64)

    lo = np.array([xs[0], ys[0]])
    hi = np.array([xs[-1], ys[-1]])
    return _box_mesh(vertices, cells, lo, hi, np.zeros((0, 2), dtype=np.int64),
                     np.zeros(0, dtype=np.int64), region_fn, boundary_tag_fn, tag_map)
