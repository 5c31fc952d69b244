"""Index-free reference extraction: test every (current, adjacent) beam pair.

Used to check that the index-pruned pipeline finds exactly the pairs the
plain formulas find.  The reference owns only the enumeration and the
order: every beam of either scan, with no band query and no blocks, and
one lexsort at the end.  The per-pair formula is the pipeline's own
kernel, run on the full cross product; a check of that formula that
shares no code with it is ``test_pair_formula.py``, which rebuilds
records from the scalar functions of ``tovp.geometry``.
"""

import numpy as np

from tovp.extraction import RECORD_DTYPE, ExtractionConfig, _band_planes, _pair_records
from tovp.sensor_model import MIN_BEAM_RANGE, Scan, SensorConfig


def brute_force_overlaps(
    current: Scan,
    adjacent: Scan,
    offset: int,
    cfg: ExtractionConfig,
    sensor: SensorConfig,
) -> np.ndarray:
    """All overlap records of one scan pair, canonically sorted."""
    assert np.linalg.norm(current.sensor_origin) <= 1e-9
    a = adjacent.sensor_origin

    r_cur = np.linalg.norm(current.points, axis=1)
    cur_ok = np.nonzero(r_cur >= MIN_BEAM_RANGE)[0]
    d = current.points[cur_ok] / r_cur[cur_ok, None]
    live, normals = _band_planes(d, a)  # a beam without a plane gives no record
    delta = adjacent.points - a
    s_adj = np.linalg.norm(delta, axis=1)
    adj_ok = np.nonzero(s_adj >= MIN_BEAM_RANGE)[0]
    e = delta[adj_ok] / s_adj[adj_ok, None]

    ii, jj = np.meshgrid(np.arange(len(live)), np.arange(len(adj_ok)), indexing="ij")
    runs = _pair_records(
        ii.ravel(), jj.ravel(),
        (cur_ok[live], d[live], r_cur[cur_ok][live], normals),
        (adj_ok, e, s_adj[adj_ok], adjacent.points),
        a, offset, adjacent.time - current.time, cfg, sensor,
    )
    if not runs:
        return np.empty(0, dtype=RECORD_DTYPE)
    rec = np.concatenate(runs).view(RECORD_DTYPE)
    order = np.lexsort(
        (rec["sample_rank"], rec["adjacent_index"], rec["scan_offset"], rec["current_index"])
    )
    return rec[order]
