"""Gmsh MSH reader (ASCII v2.2 and v4.1) and a minimal v2.2 writer.

Only the element types this solver consumes are accepted: lines and
triangles in 2D meshes, triangles and tetrahedra in 3D meshes (plus
isolated points, which are ignored). Physical tags on cells become region
ids; physical tags on lower-dimensional elements become facet tags, to be
mapped to facet kinds by the scenario's tag map.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ._rows import write_rows
from .errors import MeshFormatError, ValidationError
from .mesh import Mesh, build_mesh

__all__ = ["load_msh", "read_msh_arrays", "write_msh22"]

_LINE = 1
_TRIANGLE = 2
_TETRAHEDRON = 4
_POINT = 15
_NODES_PER_TYPE = {_LINE: 2, _TRIANGLE: 3, _TETRAHEDRON: 4, _POINT: 1}


def _split_sections(text: str, path) -> dict:
    sections = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if line.startswith("$") and not line.startswith("$End"):
            name = line[1:]
            end = f"$End{name}"
            j = i + 1
            while j < len(lines) and lines[j].strip() != end:
                j += 1
            if j >= len(lines):
                raise MeshFormatError(f"{path}: section {name} is not terminated")
            sections[name] = lines[i + 1 : j]
            i = j + 1
        else:
            i += 1
    return sections


def read_msh_arrays(path):
    """Parse an MSH file into raw arrays.

    Returns (points, cells_by_type, phys_by_type) where cells_by_type and
    phys_by_type are dicts keyed by gmsh element type. Points keep all
    three coordinates; the caller decides the dimension.
    """
    path = Path(path)
    text = path.read_text()
    sections = _split_sections(text, path)
    if "MeshFormat" not in sections:
        raise MeshFormatError(f"{path}: missing $MeshFormat section")
    try:
        fmt = sections["MeshFormat"][0].split()
        version = fmt[0]
        if fmt[1] != "0":
            raise MeshFormatError(f"{path}: binary MSH files are not supported")
        if version.startswith("2"):
            return _read_v2(sections, path)
        if version.startswith("4.1"):
            return _read_v41(sections, path)
    except KeyError as e:  # the node-tag lookups are the only dict reads that can miss
        raise MeshFormatError(f"{path}: an element refers to the unknown node tag {e.args[0]}") from None
    except IndexError:
        raise MeshFormatError(f"{path}: a section is shorter than its counts declare") from None
    except ValueError as e:
        raise MeshFormatError(f"{path}: malformed number or count ({e})") from None
    raise MeshFormatError(f"{path}: unsupported MSH version {version}")


def _check_type(etype: int, path) -> int:
    if etype not in _NODES_PER_TYPE:
        raise MeshFormatError(f"{path}: unsupported element type {etype}")
    return _NODES_PER_TYPE[etype]


def _read_v2(sections, path):
    try:
        node_lines = sections["Nodes"]
        elem_lines = sections["Elements"]
    except KeyError as e:
        raise MeshFormatError(f"{path}: missing ${e.args[0]} section") from None
    n_nodes = int(node_lines[0])
    ids = np.empty(n_nodes, dtype=np.int64)
    pts = np.empty((n_nodes, 3), dtype=np.float64)
    for k in range(n_nodes):
        parts = node_lines[1 + k].split()
        ids[k] = int(parts[0])
        pts[k] = [float(parts[1]), float(parts[2]), float(parts[3])]
    remap = _node_remap(ids, path)

    n_elems = int(elem_lines[0])
    conn = {t: [] for t in _NODES_PER_TYPE}
    phys = {t: [] for t in _NODES_PER_TYPE}
    for k in range(n_elems):
        parts = elem_lines[1 + k].split()
        etype = int(parts[1])
        nn = _check_type(etype, path)
        ntags = int(parts[2])
        tags = parts[3 : 3 + ntags]
        nodes = parts[3 + ntags :]
        if len(nodes) != nn:
            raise MeshFormatError(f"{path}: element {parts[0]} has {len(nodes)} nodes, expected {nn}")
        conn[etype].append([remap[int(v)] for v in nodes])
        phys[etype].append(int(tags[0]) if ntags >= 1 else 0)
    return pts, _pack(conn), _pack_phys(phys)


def _read_v41(sections, path):
    try:
        node_lines = sections["Nodes"]
        elem_lines = sections["Elements"]
    except KeyError as e:
        raise MeshFormatError(f"{path}: missing ${e.args[0]} section") from None

    entity_phys = _read_entities(sections.get("Entities", []), path)

    header = node_lines[0].split()
    n_blocks, n_nodes = int(header[0]), int(header[1])
    ids = np.empty(n_nodes, dtype=np.int64)
    pts = np.empty((n_nodes, 3), dtype=np.float64)
    row = 1
    filled = 0
    for _ in range(n_blocks):
        bdim, btag, parametric, nb = (int(v) for v in node_lines[row].split())
        if parametric:
            raise MeshFormatError(f"{path}: parametric nodes are not supported")
        row += 1
        for k in range(nb):
            ids[filled + k] = int(node_lines[row + k])
        row += nb
        for k in range(nb):
            parts = node_lines[row + k].split()
            pts[filled + k] = [float(parts[0]), float(parts[1]), float(parts[2])]
        row += nb
        filled += nb
    remap = _node_remap(ids, path)

    header = elem_lines[0].split()
    n_blocks = int(header[0])
    conn = {t: [] for t in _NODES_PER_TYPE}
    phys = {t: [] for t in _NODES_PER_TYPE}
    row = 1
    for _ in range(n_blocks):
        bdim, btag, etype, nb = (int(v) for v in elem_lines[row].split())
        nn = _check_type(etype, path)
        tag = entity_phys.get((bdim, btag), 0)
        row += 1
        for k in range(nb):
            parts = elem_lines[row + k].split()
            if len(parts) != 1 + nn:
                raise MeshFormatError(f"{path}: element {parts[0]} has {len(parts) - 1} nodes, expected {nn}")
            conn[etype].append([remap[int(v)] for v in parts[1:]])
            phys[etype].append(tag)
        row += nb
    return pts, _pack(conn), _pack_phys(phys)


def _read_entities(lines, path):
    """Map (dim, entityTag) -> first physical tag (0 if none)."""
    if not lines:
        return {}
    counts = [int(v) for v in lines[0].split()]
    out = {}
    row = 1
    for dim, n in enumerate(counts):
        for _ in range(n):
            parts = lines[row].split()
            # points: tag x y z nphys ...; higher dims: tag 6 bbox floats nphys ...
            base = 4 if dim == 0 else 7
            nphys = int(parts[base])
            if nphys > 0:
                out[(dim, int(parts[0]))] = int(parts[base + 1])
            row += 1
    return out


def _node_remap(ids: np.ndarray, path) -> dict:
    remap = {int(t): k for k, t in enumerate(ids)}
    if len(remap) != len(ids):
        raise MeshFormatError(f"{path}: duplicate node tags")
    return remap


def _pack(conn):
    return {t: np.array(v, dtype=np.int64).reshape(len(v), _NODES_PER_TYPE[t])
            for t, v in conn.items() if v}


def _pack_phys(phys):
    return {t: np.array(v, dtype=np.int64) for t, v in phys.items() if v}


def load_msh(path, tag_map: dict | None = None) -> Mesh:
    """Load an MSH file and resolve facet kinds through tag_map.

    The mesh dimension is 3 when tetrahedra are present, else 2 (and the
    z coordinate, which must be constant, is dropped). Cell physical tags
    become region ids. Lines in 3D meshes are ignored.
    """
    pts, conn, phys = read_msh_arrays(path)
    if _TETRAHEDRON in conn:
        cells = conn[_TETRAHEDRON]
        region = phys[_TETRAHEDRON]
        facets = conn.get(_TRIANGLE, np.zeros((0, 3), dtype=np.int64))
        ftags = phys.get(_TRIANGLE, np.zeros(0, dtype=np.int64))
        vertices = pts
    elif _TRIANGLE in conn:
        if np.ptp(pts[:, 2]) > 1e-12 * max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]), 1.0):
            raise MeshFormatError(f"{path}: triangle mesh is not planar in z")
        cells = conn[_TRIANGLE]
        region = phys[_TRIANGLE]
        facets = conn.get(_LINE, np.zeros((0, 2), dtype=np.int64))
        ftags = phys.get(_LINE, np.zeros(0, dtype=np.int64))
        vertices = pts[:, :2]
    else:
        raise MeshFormatError(f"{path}: no triangles or tetrahedra found")
    return build_mesh(vertices, cells, facets, ftags, tag_map=tag_map, cell_region=region)


def write_msh22(path, vertices, cells, cell_region, facets, facet_tags) -> None:
    """Write an ASCII MSH 2.2 file; facet and cell physical tags are kept."""
    vertices = np.asarray(vertices, dtype=np.float64)
    cells = np.asarray(cells, dtype=np.int64)
    facets = np.asarray(facets, dtype=np.int64)
    if len(cells) != len(cell_region):
        raise ValidationError(f"{len(cells)} cells but {len(cell_region)} cell regions")
    if len(facets) != len(facet_tags):
        raise ValidationError(f"{len(facets)} facets but {len(facet_tags)} facet tags")
    dim = vertices.shape[1]
    if cells.ndim != 2 or cells.shape[1] != dim + 1:
        raise ValidationError(f"cells has shape {cells.shape}; {dim}d cells need {dim + 1} vertices")
    if len(facets) and (facets.ndim != 2 or facets.shape[1] != dim):
        raise ValidationError(f"facets has shape {facets.shape}; {dim}d facets need {dim} vertices")

    def elements(f, etype, conn, tags, first):
        fmt = f"%d {etype} 2 %d %d" + " %d" * _NODES_PER_TYPE[etype] + "\n"
        write_rows(f, fmt, np.arange(first, first + len(conn)), tags, tags, conn + 1)

    with open(path, "w", newline="\n") as f:
        f.write(f"$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n{len(vertices)}\n")
        write_rows(f, "%d" + " %r" * dim + " 0.0" * (3 - dim) + "\n",
                   np.arange(1, len(vertices) + 1), vertices)
        f.write(f"$EndNodes\n$Elements\n{len(facets) + len(cells)}\n")
        elements(f, _LINE if dim == 2 else _TRIANGLE, facets, facet_tags, 1)
        elements(f, _TRIANGLE if dim == 2 else _TETRAHEDRON, cells, cell_region, len(facets) + 1)
        f.write("$EndElements\n")
